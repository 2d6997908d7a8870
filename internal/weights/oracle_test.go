package weights

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

// The reference weightings below are the per-weighting implementations
// the Source replaced — each with its own partitioner, refining π(Y) from
// scratch on every call. The views over a shared Source must return
// bit-identical values.

func refDistinct(in *relation.Instance, y relation.AttrSet) float64 {
	if y.IsEmpty() {
		return 0
	}
	p := relation.NewPartitioner(in)
	p.BeginAll()
	p.RefineSet(y)
	return float64(p.Partition().NumGroups())
}

func refEntropy(in *relation.Instance, y relation.AttrSet) float64 {
	if y.IsEmpty() {
		return 0
	}
	n := in.N()
	if n == 0 {
		return 0
	}
	p := relation.NewPartitioner(in)
	p.BeginAll()
	p.RefineSet(y)
	pt := p.Partition()
	h := 0.0
	for gi := 0; gi < pt.NumGroups(); gi++ {
		q := float64(len(pt.Group(gi))) / float64(n)
		h -= q * math.Log2(q)
	}
	if h < 0 {
		h = 0
	}
	return h
}

func refMDL(in *relation.Instance, y relation.AttrSet) float64 {
	total := 0.0
	width := in.Schema.Width()
	for a := 0; a < width; a++ {
		_, n := in.Codes(a)
		total += float64(n)
	}
	avg := total / math.Max(float64(width), 1)
	return refDistinct(in, y) * math.Log2(math.Max(avg, 2))
}

// views returns the three instance-backed weightings over one source,
// paired with their references.
func views(src *Source) []struct {
	w   Func
	ref func(*relation.Instance, relation.AttrSet) float64
} {
	return []struct {
		w   Func
		ref func(*relation.Instance, relation.AttrSet) float64
	}{
		{src.DistinctCount(), refDistinct},
		{&Entropy{src}, refEntropy},
		{&MDL{src}, refMDL},
	}
}

// TestSourceMatchesReference: over random instances (including the empty
// one) and random Y — asked twice, so both the miss and the memo hit are
// checked — every view returns the reference's exact float64 bits.
func TestSourceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 60; trial++ {
		width := 1 + rng.Intn(6)
		n := 0
		if trial > 0 {
			n = rng.Intn(80)
		}
		in := testkit.RandomInstance(rng, n, width, 1+rng.Intn(5))
		src := NewSource(in)
		for q := 0; q < 40; q++ {
			y := relation.AttrSet(rng.Intn(1 << width))
			for _, v := range views(src) {
				want := v.ref(in, y)
				for rep := 0; rep < 2; rep++ {
					if got := v.w.Weight(y); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d (n=%d) %s(%v) = %v, reference %v", trial, n, v.w.Name(), y, got, want)
					}
				}
			}
		}
	}
}

// TestSourceConcurrent: the views of one source, weighed from several
// goroutines at once, still return the reference bits (run under -race to
// check the source's synchronization).
func TestSourceConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const width = 5
	in := testkit.RandomInstance(rng, 60, width, 3)
	src := NewSource(in)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for q := 0; q < 100; q++ {
				y := relation.AttrSet(r.Intn(1 << width))
				for _, v := range views(src) {
					if got, want := v.w.Weight(y), v.ref(in, y); math.Float64bits(got) != math.Float64bits(want) {
						errs <- v.w.Name()
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s diverged from the reference under concurrent use", name)
	}
	if got := src.Len(); got > 1<<width {
		t.Errorf("memo holds %d entries, more than the %d attribute sets", got, 1<<width)
	}
}
