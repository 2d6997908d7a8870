package conflict

import (
	"math/rand"
	"sync"
	"testing"

	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

// TestForkMatchesOriginal: a fork must answer every cover and matching
// query with results identical to the analysis it was forked from.
func TestForkMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		width := 4 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 12+rng.Intn(20), width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 2)
		a := New(in, sigma)
		f := a.Fork()
		for q := 0; q < 10; q++ {
			ext := make([]relation.AttrSet, len(sigma))
			for i := range ext {
				for b := 0; b < width; b++ {
					if rng.Intn(3) == 0 {
						ext[i] = ext[i].Add(b)
					}
				}
			}
			c1, c2 := a.Cover(ext), f.Cover(ext)
			if len(c1) != len(c2) {
				t.Fatalf("trial %d: cover sizes differ: %d vs %d", trial, len(c1), len(c2))
			}
			for i := range c1 {
				if c1[i] != c2[i] {
					t.Fatalf("trial %d: covers differ at %d: %d vs %d", trial, i, c1[i], c2[i])
				}
			}
			if a.MatchingSize(ext) != f.MatchingSize(ext) {
				t.Fatalf("trial %d: matching sizes differ", trial)
			}
		}
		f.Release()
	}
}

// TestForkConcurrentQueries: forks queried from many goroutines at once
// must each return the sequential answer (run under -race in CI).
func TestForkConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := testkit.RandomInstance(rng, 60, 5, 2)
	sigma := testkit.RandomFDs(rng, 5, 2, 2)
	a := New(in, sigma)

	exts := make([][]relation.AttrSet, 32)
	want := make([]int, len(exts))
	for q := range exts {
		ext := make([]relation.AttrSet, len(sigma))
		for i := range ext {
			for b := 0; b < 5; b++ {
				if rng.Intn(3) == 0 {
					ext[i] = ext[i].Add(b)
				}
			}
		}
		exts[q] = ext
		want[q] = a.CoverSize(ext)
	}

	var wg sync.WaitGroup
	got := make([]int, len(exts))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := a.Fork()
			defer f.Release()
			for q := w; q < len(exts); q += 8 {
				got[q] = f.CoverSize(exts[q])
			}
		}(w)
	}
	wg.Wait()
	for q := range exts {
		if got[q] != want[q] {
			t.Fatalf("query %d: concurrent fork cover %d, sequential %d", q, got[q], want[q])
		}
	}
}

// TestForkRecycling: Fork after Release must reuse the pooled scratch
// instead of reallocating it. Under -race the cycle still runs, but the
// bound is not asserted.
func TestForkRecycling(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	a := New(in, sigma)
	f := a.Fork()
	f.CoverSize(nil) // grow the scratch to the working-set size
	f.Release()
	allocs := testing.AllocsPerRun(50, func() {
		g := a.Fork()
		g.CoverSize(nil)
		g.Release()
	})
	if raceEnabled {
		t.Logf("allocation bound not asserted under -race (sync.Pool drops items at random): %.0f objects per cycle", allocs)
		return
	}
	// A recycled fork reuses its partitioner scratch and matched marks; a
	// handful of allocations is tolerated for sync.Pool internals.
	if allocs > 4 {
		t.Errorf("Fork/CoverSize/Release allocates %.0f objects per cycle; want ~0 (pooled scratch)", allocs)
	}
}
