package session

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

// queryFingerprint renders every query surface of an analysis under a few
// extension vectors into one string, so "byte-identical to conflict.New"
// is a single comparison: cover sizes and sorted covers, matching sizes,
// the permanent matching, difference sets with their edge lists, the exact
// edge count, and the violating-tuple count.
func queryFingerprint(a *conflict.Analysis, exts [][]relation.AttrSet) string {
	out := fmt.Sprintf("viol=%d permmatch=%d edges=%d\n",
		a.ViolatingTuples(), a.PermanentMatching(), a.EdgeCountExact())
	for _, ext := range exts {
		out += fmt.Sprintf("ext=%v cover=%v size=%d match=%d\n",
			ext, a.Cover(ext), a.CoverSize(ext), a.MatchingSize(ext))
	}
	for _, d := range a.DiffSets(10) {
		out += fmt.Sprintf("ds=%v edges=%v\n", d.Attrs, d.Edges)
	}
	for _, e := range a.MatchingEdgeSample(50) {
		out += fmt.Sprintf("me=%v\n", e)
	}
	return out
}

// extVectors builds a deterministic set of extension vectors for sigma:
// nil, one appended attribute, and a heavier mixed vector.
func extVectors(rng *rand.Rand, width int, sigma fd.Set) [][]relation.AttrSet {
	exts := [][]relation.AttrSet{nil}
	for k := 0; k < 3; k++ {
		ext := make([]relation.AttrSet, len(sigma))
		for i, f := range sigma {
			for tries := 0; tries < 2; tries++ {
				a := rng.Intn(width)
				if a != f.RHS {
					ext[i] = ext[i].Add(a)
				}
			}
		}
		exts = append(exts, ext)
	}
	return exts
}

// TestAcquireMatchesConflictNew: analyses acquired from a warm engine must
// answer every query byte-identically to a fresh conflict.New, across
// randomized instances and repeated Acquire/Release cycles (so the second
// and later acquisitions exercise recycled arenas and pooled scratch).
func TestAcquireMatchesConflictNew(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 40; trial++ {
		width := 3 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 8+rng.Intn(24), width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(3), 2)
		exts := extVectors(rng, width, sigma)
		want := queryFingerprint(conflict.New(in, sigma), exts)

		eng := New(in)
		for cycle := 0; cycle < 4; cycle++ {
			a := eng.Acquire(sigma)
			if got := queryFingerprint(a, exts); got != want {
				t.Fatalf("trial %d cycle %d: warm-arena analysis diverges from conflict.New\nwant:\n%s\ngot:\n%s",
					trial, cycle, want, got)
			}
			eng.Release(a)
		}
		if st := eng.Stats(); st.Builds != 1 || st.Acquires != 4 {
			t.Fatalf("trial %d: stats %+v, want 1 build / 4 acquires", trial, eng.Stats())
		}
	}
}

// TestConcurrentAcquireRelease interleaves Acquire/Release across
// goroutines on one engine — including the very first acquisitions, so
// root construction races with concurrent acquirers — and asserts every
// goroutine sees byte-identical results. Run under -race in CI.
func TestConcurrentAcquireRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 8; trial++ {
		width := 4 + rng.Intn(2)
		in := testkit.RandomInstance(rng, 20+rng.Intn(20), width, 2)
		sigmas := []fd.Set{
			testkit.RandomFDs(rng, width, 2, 2),
			testkit.RandomFDs(rng, width, 1, 2),
		}
		exts := make([][][]relation.AttrSet, len(sigmas))
		wants := make([]string, len(sigmas))
		for i, sigma := range sigmas {
			exts[i] = extVectors(rng, width, sigma)
			wants[i] = queryFingerprint(conflict.New(in, sigma), exts[i])
		}

		eng := New(in)
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for cycle := 0; cycle < 6; cycle++ {
					i := (g + cycle) % len(sigmas)
					a := eng.Acquire(sigmas[i])
					if got := queryFingerprint(a, exts[i]); got != wants[i] {
						errs <- fmt.Errorf("goroutine %d cycle %d: diverged on Σ%d", g, cycle, i)
						eng.Release(a)
						return
					}
					eng.Release(a)
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if st := eng.Stats(); st.Builds != int64(len(sigmas)) {
			t.Fatalf("trial %d: %d root builds for %d distinct FD sets", trial, st.Builds, len(sigmas))
		}
	}
}

// TestAcquireFiltered: keyed filtered acquisitions cache their root and
// answer identically to conflict.NewFiltered; an empty key builds fresh
// every time.
func TestAcquireFiltered(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	// Restrict each FD to tuples whose first cell is "1" / everything.
	filters := []func(relation.Tuple) bool{
		func(tp relation.Tuple) bool { return !tp[0].IsVar() && tp[0].Str() == "1" },
		nil,
	}
	want := queryFingerprint(conflict.NewFiltered(in, sigma, filters), [][]relation.AttrSet{nil})

	eng := New(in)
	for cycle := 0; cycle < 3; cycle++ {
		a := eng.AcquireFiltered(sigma, filters, "A=1")
		if got := queryFingerprint(a, [][]relation.AttrSet{nil}); got != want {
			t.Fatalf("cycle %d: filtered warm analysis diverges\nwant:\n%s\ngot:\n%s", cycle, want, got)
		}
		eng.Release(a)
	}
	if st := eng.Stats(); st.Builds != 1 {
		t.Fatalf("keyed filtered acquire built %d roots, want 1", st.Builds)
	}
	a := eng.AcquireFiltered(sigma, filters, "")
	if got := queryFingerprint(a, [][]relation.AttrSet{nil}); got != want {
		t.Fatalf("unkeyed filtered analysis diverges")
	}
	eng.Release(a)
	if st := eng.Stats(); st.Builds != 2 {
		t.Fatalf("empty-key acquire must build fresh (builds=%d, want 2)", st.Builds)
	}
}

// TestForRejectsForeignInstance: an engine bound to a different instance
// must be rejected, not silently used.
func TestForRejectsForeignInstance(t *testing.T) {
	in1, _ := testkit.Paper4x4()
	in2, _ := testkit.Paper4x4()
	eng := New(in1)
	if _, err := For(eng, in2); err == nil {
		t.Fatal("For accepted an engine bound to a different instance")
	}
	if got, err := For(eng, in1); err != nil || got != eng {
		t.Fatalf("For(eng, same instance) = %v, %v", got, err)
	}
	if got, err := For(nil, in2); err != nil || got == nil || got.In != in2 {
		t.Fatalf("For(nil) must mint a fresh engine, got %v, %v", got, err)
	}
}
