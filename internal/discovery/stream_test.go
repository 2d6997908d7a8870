package discovery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

// referenceDiscover is the pre-product implementation, kept verbatim as
// the bit-identity oracle: a whole-run partition map, refineStripped for
// every π(X∪{A}), and an all-supersets next map. Stream, collected and
// capped at maxResults (0 = unlimited), must return exactly its FD
// sequence.
func referenceDiscover(in *relation.Instance, opt StreamOptions, maxResults int) fd.Set {
	if opt.MaxLHS <= 0 {
		opt.MaxLHS = 3
	}
	if opt.Attrs.IsEmpty() {
		opt.Attrs = relation.FullSet(in.Schema.Width())
	}
	attrs := opt.Attrs.Attrs()
	p := relation.NewPartitioner(in)
	parts := make(map[relation.AttrSet]stripped, len(attrs)*4)
	for _, a := range attrs {
		parts[relation.NewAttrSet(a)] = partitionBySet(p, relation.NewAttrSet(a))
	}
	var out fd.Set
	found := make(map[int][]relation.AttrSet)
	level := make([]relation.AttrSet, 0, len(attrs))
	for _, a := range attrs {
		level = append(level, relation.NewAttrSet(a))
	}
	for size := 1; size <= opt.MaxLHS && len(level) > 0; size++ {
		sort.Slice(level, func(i, j int) bool { return level[i] < level[j] })
		for _, x := range level {
			px, ok := parts[x]
			if !ok {
				px = partitionBySet(p, x)
				parts[x] = px
			}
			for _, a := range attrs {
				if x.Contains(a) || hasSubsetLHS(found[a], x) {
					continue
				}
				xa := x.Add(a)
				pxa, ok := parts[xa]
				if !ok {
					pxa = refineStripped(p, px, a)
					parts[xa] = pxa
				}
				if px.err == pxa.err {
					found[a] = append(found[a], x)
					out = append(out, fd.MustNew(x, a))
					if maxResults > 0 && len(out) >= maxResults {
						slices.SortFunc(out, fd.Compare)
						return out
					}
				}
			}
		}
		if size < opt.MaxLHS {
			next := make(map[relation.AttrSet]bool)
			for _, x := range level {
				for _, a := range attrs {
					if !x.Contains(a) {
						next[x.Add(a)] = true
					}
				}
			}
			level = level[:0]
			for x := range next {
				level = append(level, x)
			}
		} else {
			level = nil
		}
	}
	slices.SortFunc(out, fd.Compare)
	return out
}

// referenceApprox is the pre-product approximate miner: Error() per
// candidate, rebuilding a partitioner each time.
func referenceApprox(in *relation.Instance, opt StreamOptions) []Found {
	if opt.MaxLHS <= 0 {
		opt.MaxLHS = 3
	}
	if opt.Attrs.IsEmpty() {
		opt.Attrs = relation.FullSet(in.Schema.Width())
	}
	if in.N() == 0 {
		return nil
	}
	attrs := opt.Attrs.Attrs()
	n := float64(in.N())
	var out []Found
	found := make(map[int][]relation.AttrSet)
	level := make([]relation.AttrSet, 0, len(attrs))
	for _, a := range attrs {
		level = append(level, relation.NewAttrSet(a))
	}
	for size := 1; size <= opt.MaxLHS && len(level) > 0; size++ {
		sort.Slice(level, func(i, j int) bool { return level[i] < level[j] })
		for _, x := range level {
			for _, a := range attrs {
				if x.Contains(a) || hasSubsetLHS(found[a], x) {
					continue
				}
				f := fd.FD{LHS: x, RHS: a}
				errFrac := float64(Error(in, f)) / n
				if errFrac <= opt.MaxError {
					found[a] = append(found[a], x)
					out = append(out, Found{FD: f, Error: errFrac, Level: size})
				}
			}
		}
		if size < opt.MaxLHS {
			next := make(map[relation.AttrSet]bool)
			for _, x := range level {
				for _, a := range attrs {
					if !x.Contains(a) {
						next[x.Add(a)] = true
					}
				}
			}
			level = level[:0]
			for x := range next {
				level = append(level, x)
			}
		} else {
			level = nil
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FD.RHS != out[j].FD.RHS {
			return out[i].FD.RHS < out[j].FD.RHS
		}
		if out[i].FD.LHS.Len() != out[j].FD.LHS.Len() {
			return out[i].FD.LHS.Len() < out[j].FD.LHS.Len()
		}
		return out[i].FD.LHS < out[j].FD.LHS
	})
	return out
}

// TestDiscoverBitIdenticalToReference: the product/store miner returns
// exactly the pre-PR FD sequence across random instances and knobs.
func TestDiscoverBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		width := 3 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 4+rng.Intn(30), width, 2+rng.Intn(3))
		opt := StreamOptions{MaxLHS: 1 + rng.Intn(width)}
		maxResults := 0
		if rng.Intn(3) == 0 {
			maxResults = 1 + rng.Intn(4)
		}
		want := referenceDiscover(in, opt, maxResults)
		got, err := mine(in, opt, maxResults)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d FDs, reference found %d\ngot  %v\nwant %v", trial, len(got), len(want), got, want)
		}
		for i := range got {
			if !got[i].FD.Equal(want[i]) {
				t.Fatalf("trial %d: FD %d differs: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestDiscoverApproxBitIdenticalToReference: same pin for the approximate
// miner, including byte-equal error fractions (the g3-split bugfix must
// not change a single float).
func TestDiscoverApproxBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		width := 3 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 4+rng.Intn(30), width, 2+rng.Intn(3))
		opt := StreamOptions{MaxError: float64(rng.Intn(4)) * 0.1, MaxLHS: 1 + rng.Intn(width)}
		want := referenceApprox(in, opt)
		got, err := mine(in, opt, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d FDs, reference found %d", trial, len(got), len(want))
		}
		for i := range got {
			if !got[i].FD.Equal(want[i].FD) || got[i].Error != want[i].Error {
				t.Fatalf("trial %d: entry %d differs: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestQuickG3SplitMatchesError: the cached-partition g3 equals the
// from-scratch Error() reference on random FDs.
func TestQuickG3SplitMatchesError(t *testing.T) {
	f := func(seed int64, lhsRaw uint8, rhsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 3 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 2+rng.Intn(30), width, 2+rng.Intn(3))
		rhs := int(rhsRaw) % width
		lhs := relation.AttrSet(lhsRaw) & relation.FullSet(width).Remove(rhs)
		if lhs.IsEmpty() {
			lhs = relation.NewAttrSet((rhs + 1) % width)
		}
		dep := fd.MustNew(lhs, rhs)
		p := relation.NewPartitioner(in)
		px := partitionFor(p, relation.NewPartitionStore(), lhs)
		g3, ok := g3Split(p, px, rhs, in.N())
		return ok && g3 == Error(in, dep)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPartitionForMissingParents: partitionFor derives the same classes as
// a from-scratch refinement whichever of x's prefixes the store holds —
// the state a concurrent run that shares the store and evicts levels
// leaves behind.
func TestPartitionForMissingParents(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		width := 4 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 2+rng.Intn(40), width, 2+rng.Intn(3))
		perm := rng.Perm(width)[:1+rng.Intn(4)]
		x := relation.NewAttrSet(perm...)
		p := relation.NewPartitioner(in)
		store := relation.NewPartitionStore()
		for pre := relation.AttrSet(0); pre != x; {
			pre = pre.Add(x.Diff(pre).Attrs()[0])
			if rng.Intn(2) == 0 {
				store.Put(pre, classesOf(partitionBySet(p, pre)))
			}
		}
		got := canonClasses(groupsOf(partitionFor(p, store, x)))
		want := canonClasses(partitionBySet(p, x).classes)
		if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
			t.Fatalf("trial %d: π(%v) = %v, want %v", trial, x, got, want)
		}
		if stored, ok := store.Get(x); !ok || !slices.EqualFunc(canonClasses(groupsOf(stored)), want, slices.Equal[[]int32]) {
			t.Fatalf("trial %d: π(%v) not cached as computed", trial, x)
		}
	}
}

// classesOf converts a reference stripped partition to the flat form the
// store holds.
func classesOf(s stripped) relation.Partition {
	out := relation.Partition{Offsets: []int32{0}}
	for _, c := range s.classes {
		out.Tuples = append(out.Tuples, c...)
		out.Offsets = append(out.Offsets, int32(len(out.Tuples)))
	}
	return out
}

// groupsOf returns the classes of a flat partition.
func groupsOf(pt relation.Partition) [][]int32 {
	out := make([][]int32, pt.NumGroups())
	for gi := range out {
		out[gi] = pt.Group(gi)
	}
	return out
}

// TestConcurrentStreamsShareOneStore: runs at different MaxLHS over one
// store at once — each evicting levels the others still read — emit
// exactly the sequence each emits over a private store.
func TestConcurrentStreamsShareOneStore(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	in := testkit.RandomInstance(rng, 3000, 6, 4)
	maxLHS := []int{2, 3, 4}
	want := make([][]Found, len(maxLHS))
	for i, m := range maxLHS {
		want[i] = streamAll(t, in, StreamOptions{MaxLHS: m, MaxError: 0.1})
	}
	store := relation.NewPartitionStore()
	const goroutines, runs = 4, 3
	errs := make(chan error, goroutines*runs)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				i := (g + r) % len(maxLHS)
				var got []Found
				err := Stream(context.Background(), in, StreamOptions{MaxLHS: maxLHS[i], MaxError: 0.1, Store: store}, func(f Found) error {
					got = append(got, f)
					return nil
				})
				if err == nil && !slices.Equal(got, want[i]) {
					err = fmt.Errorf("goroutine %d run %d (MaxLHS %d): %d FDs, private store %d\ngot  %v\nwant %v",
						g, r, maxLHS[i], len(got), len(want[i]), got, want[i])
				}
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestStreamPeakRetentionBounded pins the satellite-1 fix: on a wide
// schema the store never holds more than the single-attribute row plus
// two adjacent lattice levels — far below whole-run retention.
func TestStreamPeakRetentionBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const width, maxLHS = 9, 4
	names := make([]string, width)
	rows := make([][]string, 60)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	for r := range rows {
		row := make([]string, width)
		for c := range row {
			row[c] = fmt.Sprintf("v%d", rng.Intn(3))
		}
		rows[r] = row
	}
	in := testkit.Build(names, rows)
	store := relation.NewPartitionStore()
	err := Stream(context.Background(), in, StreamOptions{MaxLHS: maxLHS, Store: store}, func(Found) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	binom := func(n, k int) int {
		out := 1
		for i := 0; i < k; i++ {
			out = out * (n - i) / (i + 1)
		}
		return out
	}
	// During the level-k scan the store holds level 1, level k−1 (evicted
	// only after the scan), and level k as it is built.
	bound := 0
	for k := 2; k <= maxLHS; k++ {
		if b := width + binom(width, k-1) + binom(width, k); b > bound {
			bound = b
		}
	}
	total := 0
	for k := 1; k <= maxLHS; k++ {
		total += binom(width, k)
	}
	if store.Peak() > bound {
		t.Fatalf("peak retention %d exceeds two-level bound %d", store.Peak(), bound)
	}
	if store.Peak() >= total {
		t.Fatalf("peak retention %d not below whole-lattice retention %d — eviction is not working", store.Peak(), total)
	}
}

// TestStreamSharedStoreIsWarmAndIdentical: a second run over the same
// store reuses cached partitions and returns the same FDs.
func TestStreamSharedStoreIsWarmAndIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := testkit.RandomInstance(rng, 40, 5, 3)
	store := relation.NewPartitionStore()
	mine := func() []Found {
		var out []Found
		if err := Stream(context.Background(), in, StreamOptions{MaxLHS: 3, Store: store}, func(f Found) error {
			out = append(out, f)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := mine()
	// Level 1 and the top level stay cached: C(5,1) + C(5,3) partitions.
	if store.Len() != 5+10 {
		t.Fatalf("store holds %d partitions after a run, want the 15 of levels 1 and 3", store.Len())
	}
	second := mine()
	if len(first) != len(second) {
		t.Fatalf("warm run found %d FDs, cold run %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("entry %d differs across runs: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestDiscoverAttrsOutOfRange(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"1", "x"}, {"2", "y"}})
	bad := relation.NewAttrSet(0, 5) // schema width 2
	var rangeErr *AttrsRangeError

	for _, maxErr := range []float64{0, 0.1} {
		err := Stream(context.Background(), in, StreamOptions{MaxError: maxErr, Attrs: bad}, func(Found) error { return nil })
		if !errors.As(err, &rangeErr) {
			t.Fatalf("Stream max error %v: err = %v, want *AttrsRangeError", maxErr, err)
		}
		if rangeErr.Attr != 5 || rangeErr.Width != 2 {
			t.Fatalf("AttrsRangeError = %+v, want Attr=5 Width=2", rangeErr)
		}
	}
}

// TestDiscoverApproxMaxResults: a capped approximate mine keeps the
// early-return-sorted contract — the first MaxResults FDs in mining order.
func TestDiscoverApproxMaxResults(t *testing.T) {
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "1", "1"}, {"2", "2", "2"},
	})
	full, err := mine(in, StreamOptions{MaxError: 0.5, MaxLHS: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 3 {
		t.Fatalf("fixture too small: only %d approximate FDs", len(full))
	}
	capped, err := mine(in, StreamOptions{MaxError: 0.5, MaxLHS: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 2 {
		t.Fatalf("MaxResults ignored in approx mode: got %d FDs", len(capped))
	}
	// The first MaxResults in mining order, then sorted — so each capped
	// entry appears in the full result.
	for _, f := range capped {
		found := false
		for _, g := range full {
			if g.FD.Equal(f.FD) && g.Error == f.Error {
				found = true
			}
		}
		if !found {
			t.Fatalf("capped entry %+v not in the full result", f)
		}
	}
}

func TestStreamCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := testkit.RandomInstance(rng, 30, 5, 2)
	sentinel := errors.New("stop now")

	// Pre-cancelled: the run aborts before any candidate is scanned and
	// surfaces the cause, not bare context.Canceled.
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(sentinel)
	err := Stream(ctx, in, StreamOptions{MaxLHS: 4}, func(Found) error {
		t.Fatal("emitted after cancellation")
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}

	// Mid-run: cancelling once level 2 starts stops the scan there; no
	// emission may carry a level ≥ 2.
	ctx2, cancel2 := context.WithCancelCause(context.Background())
	err = Stream(ctx2, in, StreamOptions{
		MaxLHS: 4,
		Progress: func(level, _ int) {
			if level == 2 {
				cancel2(sentinel)
			}
		},
	}, func(f Found) error {
		if f.Level >= 2 {
			t.Fatalf("FD emitted from level %d after cancellation", f.Level)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("mid-run err = %v, want the cancellation cause", err)
	}
}

func TestStreamProgressReportsLevels(t *testing.T) {
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "p"}, {"1", "x", "q"}, {"2", "y", "p"},
	})
	var levels, sizes []int
	err := Stream(context.Background(), in, StreamOptions{
		MaxLHS: 2,
		Progress: func(level, sets int) {
			levels = append(levels, level)
			sizes = append(sizes, sets)
		},
	}, func(Found) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 2 || levels[0] != 1 || levels[1] != 2 {
		t.Fatalf("levels = %v, want [1 2]", levels)
	}
	if sizes[0] != 3 || sizes[1] != 3 { // C(3,1) and C(3,2)
		t.Fatalf("candidate counts = %v, want [3 3]", sizes)
	}
}

func benchDiscoverInstance(b *testing.B) *relation.Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(29))
	const width = 8
	names := make([]string, width)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	rows := make([][]string, 1000)
	for r := range rows {
		row := make([]string, width)
		for c := range row {
			row[c] = fmt.Sprintf("v%d", rng.Intn(5))
		}
		rows[r] = row
	}
	return testkit.Build(names, rows)
}

// BenchmarkDiscoverProduct vs BenchmarkDiscoverRefine: the full mining
// pass of Stream on a wide schema, over a private store, against the
// refine-everything reference — the level-k cost BENCH_discovery.json
// records. It keeps its old name because BENCH_discovery.json and CI
// refer to it.
func BenchmarkDiscoverProduct(b *testing.B) {
	in := benchDiscoverInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mine(in, StreamOptions{MaxLHS: 3}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoverRefine(b *testing.B) {
	in := benchDiscoverInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = referenceDiscover(in, StreamOptions{MaxLHS: 3}, 0)
	}
}

// BenchmarkDiscoverStream is one warm mining pass at the census-discover
// benchmark shape: census-like data over 16 attributes with the two
// planted FDs, n=25,000, MaxLHS 3, MaxError 0.01, over a shared store
// warmed by one untimed pass — what a repeated POST /v1/discover on a
// registered dataset costs. Level 2 is rebuilt every pass (it is evicted);
// levels 1 and 3 are read from the store.
func BenchmarkDiscoverStream(b *testing.B) {
	spec := gen.SubSpec(gen.CensusSpec(), 16)
	in, err := gen.Generate(spec, gen.TwoFDs(spec), 25000, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := StreamOptions{MaxLHS: 3, MaxError: 0.01, Store: relation.NewPartitionStore()}
	if _, err := mine(in, opt, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mine(in, opt, 0); err != nil {
			b.Fatal(err)
		}
	}
}
