package live

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"relatrust/internal/components"
	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

// randTuple draws a random tuple over the small test domain — the same
// value space testkit.RandomInstance uses, so mutations both create and
// destroy violations.
func randTuple(rng *rand.Rand, width, dom int) relation.Tuple {
	t := make(relation.Tuple, width)
	for a := range t {
		t[a] = relation.Const(fmt.Sprintf("v%d", rng.Intn(dom)))
	}
	return t
}

// randBatch draws a mixed batch of 1..6 ops against a table of n rows and
// returns the expected row count after it.
func randBatch(rng *rand.Rand, n, width, dom int) ([]Op, int) {
	k := 1 + rng.Intn(6)
	ops := make([]Op, 0, k)
	for i := 0; i < k; i++ {
		switch {
		case n == 0 || rng.Intn(3) == 0:
			ops = append(ops, Op{Kind: OpInsert, Tuple: randTuple(rng, width, dom)})
			n++
		case rng.Intn(2) == 0:
			ops = append(ops, Op{Kind: OpUpdate, Row: rng.Intn(n), Tuple: randTuple(rng, width, dom)})
		default:
			ops = append(ops, Op{Kind: OpDelete, Row: rng.Intn(n)})
			n--
		}
	}
	return ops, n
}

// randExt draws a random extension vector; a third of the draws are nil
// (the base cover query).
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

// checkClustersMatch asserts the spliced analysis' per-FD cluster lists
// equal the rebuild's in content and order.
func checkClustersMatch(t *testing.T, spliced, fresh *conflict.Analysis) {
	t.Helper()
	if got, want := spliced.Clusters(), fresh.Clusters(); !slices.Equal(got, want) {
		t.Fatalf("spliced clusters %v, rebuild %v", got, want)
	}
	for _, ref := range fresh.Clusters() {
		fi, ci := int(ref.FD), int(ref.Cluster)
		g, w := spliced.ClusterTuples(fi, ci), fresh.ClusterTuples(fi, ci)
		if !slices.Equal(g, w) {
			t.Fatalf("FD %d cluster %d: spliced %v, rebuild %v", fi, ci, g, w)
		}
	}
}

// checkAgainstRebuild asserts the table's current spliced analysis and
// evaluator for sigma answer bit-identically to a from-scratch rebuild of
// the current instance: cluster arenas equal in content AND order (the
// capped samplers are order-sensitive), and CoverSize equal over random
// extension vectors through both the analysis and the spliced evaluator,
// whose Affected lists — the per-FD lists verbatim for a single extended
// FD — must be strictly ascending, and whose goal covers name the same
// tuples as the rebuild's.
func checkAgainstRebuild(t *testing.T, tb *Table, sigma fd.Set, rng *rand.Rand, trials int) {
	t.Helper()
	cur, eng, _ := tb.Snapshot()
	spliced := eng.Acquire(sigma)
	defer eng.Release(spliced)
	fresh := conflict.New(cur, sigma)
	checkClustersMatch(t, spliced, fresh)
	ev := eng.CoverEvaluator(sigma)
	width := cur.Schema.Width()
	checkAscending := func(ext []relation.AttrSet) {
		t.Helper()
		aff := ev.Affected(ext)
		for i := 1; i < len(aff); i++ {
			if aff[i] <= aff[i-1] {
				t.Fatalf("Affected(%v) = %v, not strictly ascending", ext, aff)
			}
		}
	}
	for fi := range sigma {
		ext := make([]relation.AttrSet, len(sigma))
		ext[fi] = relation.FullSet(width)
		checkAscending(ext)
	}
	for trial := 0; trial < trials; trial++ {
		ext := randExt(rng, sigma, width)
		checkAscending(ext)
		want := fresh.CoverSize(ext)
		if got := spliced.CoverSize(ext); got != want {
			t.Fatalf("trial %d: spliced CoverSize = %d, rebuild = %d (ext %v)", trial, got, want, ext)
		}
		if got := ev.CoverSize(spliced, ext); got != want {
			t.Fatalf("trial %d: spliced evaluator CoverSize = %d, rebuild = %d (ext %v)", trial, got, want, ext)
		}
		if got, want := ev.Cover(spliced, ext), fresh.Cover(ext); !slices.Equal(got, want) {
			t.Fatalf("trial %d: spliced evaluator Cover = %v, rebuild = %v (ext %v)", trial, got, want, ext)
		}
	}
}

// TestApplyMatchesRebuild is the tier's core oracle: over randomized
// insert/update/delete streams, after every batch the incrementally
// spliced analysis and component evaluator must be indistinguishable from
// throwing everything away and re-analyzing the mutated instance.
func TestApplyMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const width, dom = 4, 2
			in := testkit.RandomInstance(rng, 30+rng.Intn(30), width, dom)
			sigma := testkit.RandomFDs(rng, width, 2, 2)
			tb := NewTable(in, 1)

			// Warm the root and its evaluator so batches splice rather than
			// cold-build.
			_, eng, _ := tb.Snapshot()
			eng.Release(eng.Acquire(sigma))
			eng.CoverEvaluator(sigma)

			n := in.N()
			for batch := 0; batch < 30; batch++ {
				ops, wantN := randBatch(rng, n, width, dom)
				res, err := tb.Apply(ops, nil)
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if res.NewN != wantN {
					t.Fatalf("batch %d: NewN = %d, want %d", batch, res.NewN, wantN)
				}
				n = res.NewN
				if got := tb.Generation(); got != res.Generation {
					t.Fatalf("batch %d: table generation %d, result says %d", batch, got, res.Generation)
				}
				checkAgainstRebuild(t, tb, sigma, rng, 40)
			}
			st := tb.Stats()
			if st.MutationsApplied == 0 {
				t.Fatalf("no mutations recorded")
			}
		})
	}
}

// TestSplicedGoalCoversFollowRenumbering: deleting a clean row moves the
// last row, which violates A->B, into its place by swap-remove. The next
// generation's evaluator must name that row by its new position, so the
// goal-cover memo the old generation filled is not carried across the
// splice.
func TestSplicedGoalCoversFollowRenumbering(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"c0", "x"},
		{"c1", "y"},
		{"a", "b1"},
		{"a", "b1"},
		{"a", "b2"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	tb := NewTable(in, 1)
	_, eng, _ := tb.Snapshot()
	an := eng.Acquire(sigma)
	if got := eng.CoverEvaluator(sigma).Cover(an, nil); !slices.Equal(got, []int32{4}) {
		t.Fatalf("cover before the delete = %v, want [4]", got)
	}
	eng.Release(an)

	if _, err := tb.Apply([]Op{{Kind: OpDelete, Row: 0}}, nil); err != nil {
		t.Fatal(err)
	}
	cur, eng2, _ := tb.Snapshot()
	spliced := eng2.Acquire(sigma)
	defer eng2.Release(spliced)
	got := eng2.CoverEvaluator(sigma).Cover(spliced, nil)
	if want := conflict.New(cur, sigma).Cover(nil); !slices.Equal(got, want) || !slices.Equal(got, []int32{0}) {
		t.Fatalf("cover after the delete = %v, rebuild %v, want [0]", got, want)
	}
}

// TestSnapshotIsolation pins the structural isolation guarantee: an
// engine acquired before a batch keeps answering for its own instance —
// bit-identically to a rebuild of that instance — after arbitrarily many
// later batches have been committed.
func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const width, dom = 4, 2
	in := testkit.RandomInstance(rng, 50, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	tb := NewTable(in, 7)

	oldIn, oldEng, oldGen := tb.Snapshot()
	oldEng.Release(oldEng.Acquire(sigma))
	oldEng.CoverEvaluator(sigma)
	if oldGen != 7 {
		t.Fatalf("initial generation = %d, want 7", oldGen)
	}

	n := in.N()
	for batch := 0; batch < 10; batch++ {
		ops, wantN := randBatch(rng, n, width, dom)
		if _, err := tb.Apply(ops, nil); err != nil {
			t.Fatal(err)
		}
		n = wantN
	}
	if g := tb.Generation(); g == oldGen {
		t.Fatalf("generation did not advance")
	}

	// The old engine — the one a mid-sweep materialization would re-acquire
	// from — still answers for the pre-mutation instance.
	a := oldEng.Acquire(sigma)
	defer oldEng.Release(a)
	ref := conflict.New(oldIn, sigma)
	ev := oldEng.CoverEvaluator(sigma)
	for trial := 0; trial < 60; trial++ {
		ext := randExt(rng, sigma, width)
		want := ref.CoverSize(ext)
		if got := a.CoverSize(ext); got != want {
			t.Fatalf("old snapshot drifted: CoverSize = %d, want %d", got, want)
		}
		if got := ev.CoverSize(a, ext); got != want {
			t.Fatalf("old evaluator drifted: CoverSize = %d, want %d", got, want)
		}
	}
}

// TestEvictThenApply checks Evict drops the warm state without losing
// correctness: the next batch cold-rebuilds and the oracle still holds.
func TestEvictThenApply(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const width, dom = 4, 2
	in := testkit.RandomInstance(rng, 40, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	tb := NewTable(in, 1)
	n := in.N()
	for batch := 0; batch < 4; batch++ {
		ops, wantN := randBatch(rng, n, width, dom)
		if _, err := tb.Apply(ops, nil); err != nil {
			t.Fatal(err)
		}
		n = wantN
	}
	gen := tb.Generation()
	tb.Evict()
	if g := tb.Generation(); g != gen {
		t.Fatalf("Evict changed the generation: %d -> %d", gen, g)
	}
	_, eng, _ := tb.Snapshot()
	eng.Release(eng.Acquire(sigma))
	eng.CoverEvaluator(sigma)
	for batch := 0; batch < 4; batch++ {
		ops, wantN := randBatch(rng, n, width, dom)
		if _, err := tb.Apply(ops, nil); err != nil {
			t.Fatal(err)
		}
		n = wantN
		checkAgainstRebuild(t, tb, sigma, rng, 30)
	}
}

// TestSwapRemoveMoves pins the delete renumbering contract: deleting a
// non-last row moves the last row into its slot and reports the move.
func TestSwapRemoveMoves(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"a0", "b0"},
		{"a1", "b1"},
		{"a2", "b2"},
	})
	tb := NewTable(in, 1)
	res, err := tb.Apply([]Op{{Kind: OpDelete, Row: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) != 1 || res.Moves[0] != (Move{From: 2, To: 0}) {
		t.Fatalf("moves = %v, want [{2 0}]", res.Moves)
	}
	if res.NewN != 2 {
		t.Fatalf("NewN = %d, want 2", res.NewN)
	}
	cur, _, _ := tb.Snapshot()
	if got := cur.Tuples[0][0].Str(); got != "a2" {
		t.Fatalf("row 0 = %q after swap-remove, want a2", got)
	}
	// Deleting the last row moves nothing.
	res, err = tb.Apply([]Op{{Kind: OpDelete, Row: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) != 0 {
		t.Fatalf("deleting the last row reported moves %v", res.Moves)
	}
}

// TestBadOpsRejectWholeBatch checks validation: any invalid op aborts the
// whole batch with ErrBadOp and the table unchanged.
func TestBadOpsRejectWholeBatch(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"a", "b"}, {"a", "c"}})
	tb := NewTable(in, 3)
	bad := [][]Op{
		{{Kind: OpUpdate, Row: 5, Tuple: relation.Tuple{relation.Const("x"), relation.Const("y")}}},
		{{Kind: OpUpdate, Row: -1, Tuple: relation.Tuple{relation.Const("x"), relation.Const("y")}}},
		{{Kind: OpDelete, Row: 2}},
		{{Kind: OpInsert, Tuple: relation.Tuple{relation.Const("x")}}},
		{{Kind: OpKind(99)}},
		// Valid prefix, invalid tail: the prefix must not stick either.
		{
			{Kind: OpInsert, Tuple: relation.Tuple{relation.Const("x"), relation.Const("y")}},
			{Kind: OpDelete, Row: 40},
		},
	}
	for i, ops := range bad {
		if _, err := tb.Apply(ops, nil); !errors.Is(err, ErrBadOp) {
			t.Fatalf("batch %d: err = %v, want ErrBadOp", i, err)
		}
		if g := tb.Generation(); g != 3 {
			t.Fatalf("batch %d advanced the generation to %d", i, g)
		}
		if cur, _, _ := tb.Snapshot(); cur.N() != 2 {
			t.Fatalf("batch %d changed the instance", i)
		}
	}
	// Row indices address the evolving batch state: deleting row 1 twice
	// from a 2-row table is invalid, but insert-then-update-the-insert is
	// valid.
	if _, err := tb.Apply([]Op{{Kind: OpDelete, Row: 1}, {Kind: OpDelete, Row: 1}}, nil); !errors.Is(err, ErrBadOp) {
		t.Fatalf("double delete of the shrunk row accepted")
	}
	res, err := tb.Apply([]Op{
		{Kind: OpInsert, Tuple: relation.Tuple{relation.Const("p"), relation.Const("q")}},
		{Kind: OpUpdate, Row: 2, Tuple: relation.Tuple{relation.Const("p"), relation.Const("r")}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.NewN != 3 {
		t.Fatalf("insert+update batch: applied %d rows %d", res.Applied, res.NewN)
	}
}

// TestNoOpBatch checks identical updates and empty batches commit nothing.
func TestNoOpBatch(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"a", "b"}})
	tb := NewTable(in, 2)
	res, err := tb.Apply([]Op{
		{Kind: OpUpdate, Row: 0, Tuple: relation.Tuple{relation.Const("a"), relation.Const("b")}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || res.Generation != 2 {
		t.Fatalf("no-op update committed: applied %d generation %d", res.Applied, res.Generation)
	}
	res, err = tb.Apply(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || res.NewN != 1 {
		t.Fatalf("empty batch committed: %+v", res)
	}
}

// TestPrecommitAbort checks a precommit error rolls the batch back: the
// table keeps its generation, instance, and engine, and a later batch
// still splices correctly.
func TestPrecommitAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width, dom = 4, 2
	in := testkit.RandomInstance(rng, 30, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	tb := NewTable(in, 1)
	_, eng, _ := tb.Snapshot()
	eng.Release(eng.Acquire(sigma))

	boom := errors.New("disk full")
	var sawN int
	_, err := tb.Apply([]Op{{Kind: OpInsert, Tuple: randTuple(rng, width, dom)}}, func(next *relation.Instance) error {
		sawN = next.N()
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the precommit error", err)
	}
	if sawN != 31 {
		t.Fatalf("precommit saw %d rows, want the post-batch 31", sawN)
	}
	if g := tb.Generation(); g != 1 {
		t.Fatalf("aborted batch advanced the generation to %d", g)
	}
	cur, curEng, _ := tb.Snapshot()
	if cur != in || curEng != eng {
		t.Fatalf("aborted batch swapped the snapshot")
	}
	// The tier still works after the abort.
	if _, err := tb.Apply([]Op{{Kind: OpInsert, Tuple: randTuple(rng, width, dom)}}, nil); err != nil {
		t.Fatal(err)
	}
	checkAgainstRebuild(t, tb, sigma, rng, 30)
}

// TestDirtiedCounter sanity-checks the observability counter: a batch
// that rewrites a violating cluster reports at least one dirtied
// component when the root had an evaluator.
func TestDirtiedCounter(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"a", "b1"},
		{"a", "b2"},
		{"c", "d"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	tb := NewTable(in, 1)
	_, eng, _ := tb.Snapshot()
	eng.Release(eng.Acquire(sigma))
	eng.CoverEvaluator(sigma)
	res, err := tb.Apply([]Op{
		{Kind: OpUpdate, Row: 1, Tuple: relation.Tuple{relation.Const("a"), relation.Const("b1")}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ComponentsDirtied == 0 {
		t.Fatalf("repairing the only violation dirtied no component")
	}
	if st := tb.Stats(); st.ComponentsDirtied == 0 || st.MutationsApplied != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The violation is gone now.
	cur, eng2, _ := tb.Snapshot()
	a := eng2.Acquire(sigma)
	defer eng2.Release(a)
	if a.CoverSize(nil) > 0 {
		t.Fatalf("violations remain after the repair update: cover %v", a.Cover(nil))
	}
	if ev := eng2.CoverEvaluator(sigma); ev.Decomposition().Components() != 0 {
		t.Fatalf("components remain after the repair update")
	}
	_ = cur
}

// TestSplicedSamplersMatch pins the order-sensitive surfaces: the per-FD
// cluster lists and the capped edge and diff-set samplers of a spliced
// analysis must equal a rebuild's byte for byte (the samplers iterate the
// cluster arenas in order).
func TestSplicedSamplersMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const width, dom = 4, 2
	in := testkit.RandomInstance(rng, 60, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	tb := NewTable(in, 1)
	_, eng, _ := tb.Snapshot()
	eng.Release(eng.Acquire(sigma))
	n := in.N()
	for batch := 0; batch < 8; batch++ {
		ops, wantN := randBatch(rng, n, width, dom)
		if _, err := tb.Apply(ops, nil); err != nil {
			t.Fatal(err)
		}
		n = wantN
	}
	cur, eng2, _ := tb.Snapshot()
	spliced := eng2.Acquire(sigma)
	defer eng2.Release(spliced)
	fresh := conflict.New(cur, sigma)
	checkClustersMatch(t, spliced, fresh)
	gotE, wantE := spliced.MatchingEdgeSample(16), fresh.MatchingEdgeSample(16)
	if len(gotE) != len(wantE) {
		t.Fatalf("edge samples diverged: %d vs %d edges", len(gotE), len(wantE))
	}
	for i := range gotE {
		if gotE[i] != wantE[i] {
			t.Fatalf("edge sample %d diverged: %v vs %v", i, gotE[i], wantE[i])
		}
	}
	gotD, wantD := spliced.DiffSets(8), fresh.DiffSets(8)
	if len(gotD) != len(wantD) {
		t.Fatalf("diff sets diverged: %d vs %d", len(gotD), len(wantD))
	}
	for i := range gotD {
		if gotD[i].Attrs != wantD[i].Attrs || gotD[i].Count() != wantD[i].Count() {
			t.Fatalf("diff set %d diverged: %+v vs %+v", i, gotD[i], wantD[i])
		}
	}
	// The evaluator derived through the whole batch sequence still matches.
	ev := eng2.CoverEvaluator(sigma)
	fev := components.NewEvaluator(fresh)
	for trial := 0; trial < 40; trial++ {
		ext := randExt(rng, sigma, width)
		if got, want := ev.CoverSize(spliced, ext), fev.CoverSize(fresh, ext); got != want {
			t.Fatalf("trial %d: spliced evaluator %d, fresh evaluator %d", trial, got, want)
		}
	}
}
