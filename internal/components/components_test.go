package components

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

// shapes returns the three conflict-graph shapes of the oracle matrix:
// one giant component (tiny domains collide everywhere), many small
// components (a block-id attribute in every LHS keeps clusters inside
// their block), and singleton-only (unique tuples, no violations).
func shapes(rng *rand.Rand) []struct {
	name  string
	in    *relation.Instance
	sigma fd.Set
} {
	connected := testkit.RandomInstance(rng, 60, 4, 2)
	connectedFDs := testkit.RandomFDs(rng, 4, 2, 2)

	blocks := relation.NewInstance(relation.MustSchema("Blk", "A", "B", "C"))
	for t := 0; t < 80; t++ {
		err := blocks.AppendConsts(
			fmt.Sprintf("b%d", t/5),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(2)),
		)
		if err != nil {
			panic(err)
		}
	}
	blockFDs := fd.Set{
		fd.MustNew(relation.NewAttrSet(0, 1), 2), // Blk,A -> B
		fd.MustNew(relation.NewAttrSet(0, 3), 1), // Blk,C -> A
	}

	clean := relation.NewInstance(relation.MustSchema("A", "B", "C"))
	for t := 0; t < 40; t++ {
		if err := clean.AppendConsts(fmt.Sprintf("u%d", t), fmt.Sprintf("v%d", t), "c"); err != nil {
			panic(err)
		}
	}
	cleanFDs := fd.Set{fd.MustNew(relation.NewAttrSet(0), 1)}

	return []struct {
		name  string
		in    *relation.Instance
		sigma fd.Set
	}{
		{"connected", connected, connectedFDs},
		{"many-small", blocks, blockFDs},
		{"singleton-only", clean, cleanFDs},
	}
}

// randExt draws a random extension vector; roughly a third of the draws
// are nil (the base query).
func randExt(rng *rand.Rand, sigma fd.Set, width int) []relation.AttrSet {
	if rng.Intn(3) == 0 {
		return nil
	}
	ext := make([]relation.AttrSet, len(sigma))
	for fi := range ext {
		for a := 0; a < width; a++ {
			if rng.Intn(width+1) == 0 {
				ext[fi] = ext[fi].Add(a)
			}
		}
	}
	return ext
}

// TestEvaluatorMatchesMonolithic is the component-level oracle: on every
// shape, the evaluator's CoverSize equals the monolithic Analysis.CoverSize
// for random extension vectors, and splitting EvalDelta over arbitrary
// chunk boundaries combines to the same answer.
func TestEvaluatorMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range shapes(rng) {
		t.Run(sh.name, func(t *testing.T) {
			an := conflict.New(sh.in, sh.sigma)
			ev := NewEvaluator(an)
			width := sh.in.Schema.Width()
			d := ev.Decomposition()
			t.Logf("%s: %d components, largest %d tuples", sh.name, d.Components(), d.LargestComponent())
			if sh.name == "many-small" && d.Components() < 4 {
				t.Fatalf("expected many components, got %d", d.Components())
			}
			if sh.name == "singleton-only" && d.Components() != 0 {
				t.Fatalf("clean instance decomposed into %d components", d.Components())
			}
			for trial := 0; trial < 400; trial++ {
				ext := randExt(rng, sh.sigma, width)
				want := an.CoverSize(ext)
				if got := ev.CoverSize(an, ext); got != want {
					t.Fatalf("trial %d: evaluator CoverSize = %d, monolithic = %d (ext %v)", trial, got, want, ext)
				}
				// Chunked deltas (the worker fan-out path) must combine to
				// the same size regardless of the split point.
				comps := ev.Affected(ext)
				if len(comps) > 1 {
					cut := 1 + rng.Intn(len(comps)-1)
					l1, p1 := ev.EvalDelta(an, comps[:cut], ext)
					l2, p2 := ev.EvalDelta(an, comps[cut:], ext)
					if got := ev.Combine(l1+l2, p1+p2); got != want {
						t.Fatalf("trial %d: chunked combine = %d, monolithic = %d", trial, got, want)
					}
				}
			}
			c := ev.Counters()
			if c.Evals == 0 && d.Components() > 0 {
				t.Fatalf("no component evaluations recorded")
			}
			if c.MemoHits == 0 && d.Components() > 0 {
				t.Fatalf("memo never hit across repeated queries")
			}
		})
	}
}

// TestEvaluatorCoverMatchesMonolithic is the goal-cover oracle: on every
// shape, and on random instances where the global 2·|M| fallback fires,
// Evaluator.Cover equals Analysis.Cover for random extension vectors, on
// the call that computes it and on the one the memo answers, and what it
// returns is the caller's to modify.
func TestEvaluatorCoverMatchesMonolithic(t *testing.T) {
	check := func(t *testing.T, an *conflict.Analysis, ev *Evaluator, ext []relation.AttrSet) {
		t.Helper()
		want := an.Cover(ext)
		for call := 0; call < 2; call++ {
			got := ev.Cover(an, ext)
			if !slices.Equal(got, want) {
				t.Fatalf("call %d: evaluator Cover = %v, monolithic = %v (ext %v)", call, got, want, ext)
			}
			if len(got) > 0 {
				got[0] = -1 // must not reach the memo
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, sh := range shapes(rng) {
		t.Run(sh.name, func(t *testing.T) {
			an := conflict.New(sh.in, sh.sigma)
			ev := NewEvaluator(an)
			for trial := 0; trial < 200; trial++ {
				check(t, an, ev, randExt(rng, sh.sigma, sh.in.Schema.Width()))
			}
		})
	}
	t.Run("fallback", func(t *testing.T) {
		// Pass 2 exceeds twice the matching only under cluster overlap
		// across FDs; about one instance in twenty of this shape has an
		// extension where it does.
		fallbacks := 0
		for seed := int64(0); seed < 300; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := testkit.RandomInstance(rng, 24, 5, 3)
			sigma := testkit.RandomFDs(rng, 5, 4, 2)
			an := conflict.New(in, sigma)
			ev := NewEvaluator(an)
			for trial := 0; trial < 30; trial++ {
				ext := randExt(rng, sigma, 5)
				if len2, pairs := an.SubsetCover(an.Clusters(), ext, ^relation.AttrSet(0)); len2 > 2*pairs {
					fallbacks++
				}
				check(t, an, ev, ext)
			}
		}
		if fallbacks == 0 {
			t.Fatal("no trial reached the 2·|M| fallback")
		}
		t.Logf("%d trials reached the fallback", fallbacks)
	})
}

// TestCoverMemoBounded fills one evaluator's goal-cover memo past its
// bound: the charge never exceeds coverMemoCovers maximal covers, the memo
// clears itself at least once, and answers stay exact after a clear.
func TestCoverMemoBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const width = 8
	in := testkit.RandomInstance(rng, 60, width, 2)
	sigma := testkit.RandomFDs(rng, width, 3, 2)
	an := conflict.New(in, sigma)
	ev := NewEvaluator(an)
	limit := coverMemoCovers * (ev.d.tuples + 2*len(sigma))
	clears, prev := 0, 0
	for trial := 0; trial < 3000; trial++ {
		ext := make([]relation.AttrSet, len(sigma))
		for fi := range ext {
			ext[fi] = relation.AttrSet(rng.Int63()) & relation.FullSet(width)
		}
		if got, want := ev.Cover(an, ext), an.Cover(ext); !slices.Equal(got, want) {
			t.Fatalf("trial %d: evaluator Cover = %v, monolithic = %v (ext %v)", trial, got, want, ext)
		}
		ev.coverMu.Lock()
		words := ev.coverWords
		ev.coverMu.Unlock()
		if words > limit {
			t.Fatalf("trial %d: memo charged %d words, bound %d", trial, words, limit)
		}
		if words < prev {
			clears++
		}
		prev = words
	}
	if clears == 0 {
		t.Fatalf("memo never cleared (charge %d words, bound %d)", prev, limit)
	}
}

// TestComponentsPartitionClusters checks the decomposition is a partition:
// every cluster appears in exactly one component, in global construction
// order, and tuple counts plus the base sums are consistent.
func TestComponentsPartitionClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sh := range shapes(rng) {
		t.Run(sh.name, func(t *testing.T) {
			an := conflict.New(sh.in, sh.sigma)
			d := NewEvaluator(an).Decomposition()
			seen := make(map[conflict.ClusterRef]bool)
			total := len(an.Clusters())
			for _, comp := range d.Comps {
				if len(comp.Clusters) == 0 {
					t.Fatalf("empty component")
				}
				prev := conflict.ClusterRef{FD: -1, Cluster: -1}
				for _, ref := range comp.Clusters {
					if seen[ref] {
						t.Fatalf("cluster %v in two components", ref)
					}
					seen[ref] = true
					if ref.FD < prev.FD || (ref.FD == prev.FD && ref.Cluster <= prev.Cluster) {
						t.Fatalf("cluster order not global construction order: %v after %v", ref, prev)
					}
					prev = ref
				}
				if comp.Tuples < 2 {
					t.Fatalf("component with %d tuples", comp.Tuples)
				}
				if comp.Relevant.IsEmpty() {
					t.Fatalf("violating component with empty relevant set")
				}
			}
			if len(seen) != total {
				t.Fatalf("components cover %d clusters, analysis has %d", len(seen), total)
			}
		})
	}
}

// TestComponentListsAscendingDisjoint checks the cold build's contract on
// random instances: every per-FD component list (what Affected returns for
// a single extended FD) is strictly ascending, and no tuple lies in two
// components.
func TestComponentListsAscendingDisjoint(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := testkit.RandomInstance(rng, 60, 5, 3)
		sigma := testkit.RandomFDs(rng, 5, 3, 2)
		an := conflict.New(in, sigma)
		d := NewEvaluator(an).Decomposition()
		for fi, list := range d.compsOf {
			for i := 1; i < len(list); i++ {
				if list[i] <= list[i-1] {
					t.Fatalf("seed %d: compsOf[%d] = %v, not strictly ascending", seed, fi, list)
				}
			}
		}
		owner := make(map[int32]int)
		for c, comp := range d.Comps {
			for _, ref := range comp.Clusters {
				for _, tu := range an.ClusterTuples(int(ref.FD), int(ref.Cluster)) {
					if o, ok := owner[tu]; ok && o != c {
						t.Fatalf("seed %d: tuple %d in components %d and %d", seed, tu, o, c)
					}
					owner[tu] = c
				}
			}
		}
	}
}

// TestEvaluatorConcurrent hammers one shared evaluator from several
// goroutines, each with its own analysis fork — the session-engine usage —
// and checks every answer, cover sizes and goal covers, against the
// monolithic oracle (run under -race in CI).
func TestEvaluatorConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := testkit.RandomInstance(rng, 120, 5, 3)
	sigma := testkit.RandomFDs(rng, 5, 3, 2)
	an := conflict.New(in, sigma)
	ev := NewEvaluator(an)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			fork := an.Fork()
			defer fork.Release()
			for trial := 0; trial < 200; trial++ {
				ext := randExt(rng, sigma, in.Schema.Width())
				want := fork.CoverSize(ext)
				if got := ev.CoverSize(fork, ext); got != want {
					errs <- fmt.Errorf("seed %d trial %d: got %d want %d", seed, trial, got, want)
					return
				}
				if got, want := ev.Cover(fork, ext), fork.Cover(ext); !slices.Equal(got, want) {
					errs <- fmt.Errorf("seed %d trial %d: cover %v want %v", seed, trial, got, want)
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
