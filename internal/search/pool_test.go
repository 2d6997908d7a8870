package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
	"relatrust/internal/weights"
)

// TestInlinePoolStartsNoGoroutine: Workers: 1 evaluates on the calling
// goroutine — no goroutine runs beside it while results stream out —
// whereas Workers: 4 does start its pool.
func TestInlinePoolStartsNoGoroutine(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{Workers: workers})
		peak := 0
		err := s.FindRangeStream(context.Background(), 0, s.DeltaPOriginal(), func(*Result) error {
			peak = max(peak, runtime.NumGoroutine())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 && peak > baseline {
			t.Fatalf("workers=1: %d goroutines during the search, baseline %d", peak, baseline)
		}
		if workers > 1 && peak <= baseline {
			t.Fatalf("workers=%d: no pool goroutine seen during the search (baseline %d)", workers, baseline)
		}
		testkit.WaitGoroutineBaseline(t, baseline)
	}
}

// panicWeights is a weighting that panics on every non-empty set.
type panicWeights struct{}

func (panicWeights) Weight(relation.AttrSet) float64 { panic("injected: weighting exploded") }
func (panicWeights) Name() string                    { return "panic" }

// TestPanickingWeightingReturnsPanicError: a panic inside an evaluation
// fails the search with a *PanicError at every worker count, the inline
// pool included, and leaks no goroutine.
func TestPanickingWeightingReturnsPanicError(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	for _, workers := range []int{1, 2, 4} {
		for _, bestFirst := range []bool{false, true} {
			label := fmt.Sprintf("workers=%d best-first=%v", workers, bestFirst)
			baseline := runtime.NumGoroutine()
			s := NewSearcher(conflict.New(in, sigma), panicWeights{}, Options{Workers: workers, BestFirst: bestFirst})
			_, err := collect(context.Background(), s, 0, s.DeltaPOriginal())
			var pe *PanicError
			if !errors.As(err, &pe) || !errors.Is(err, ErrPanic) {
				t.Fatalf("%s: err = %v, want a *PanicError", label, err)
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("%s: PanicError carries no stack", label)
			}
			testkit.WaitGoroutineBaseline(t, baseline)
		}
	}
}

// countdownWeights wraps a weighting and panics on its nth Weight call,
// once; every other call is answered by the wrapped weighting.
type countdownWeights struct {
	weights.Func
	left atomic.Int64
}

func (c *countdownWeights) Weight(y relation.AttrSet) float64 {
	if c.left.Add(-1) == 0 {
		panic("injected: weighting exploded mid-search")
	}
	return c.Func.Weight(y)
}

// TestSearcherCleanAfterPanic: a weighting that panics part-way through a
// sweep — for every call the panic can land on, mid-gc included — leaves
// nothing behind in the searcher. The next sweep on the same searcher
// equals a fresh searcher's, goal for goal and stat for stat, at Workers 1
// (where the inline pool reuses the searcher's own heuristic scratch) and
// Workers 2.
func TestSearcherCleanAfterPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	panics := 0
	for trial := 0; trial < 6; trial++ {
		in := testkit.RandomInstance(rng, 24, 5, 3)
		sigma := testkit.RandomFDs(rng, 5, 2, 2)
		for _, workers := range []int{1, 2} {
			fresh := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{Workers: workers})
			want, err := collect(context.Background(), fresh, 0, fresh.DeltaPOriginal())
			if err != nil {
				t.Fatal(err)
			}
			for n := int64(1); ; n++ {
				w := &countdownWeights{Func: weights.AttrCount{}}
				w.left.Store(n)
				s := NewSearcher(conflict.New(in, sigma), w, Options{Workers: workers})
				_, err := collect(context.Background(), s, 0, s.DeltaPOriginal())
				if err == nil {
					break // the sweep makes fewer than n weight lookups
				}
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("trial %d workers=%d n=%d: err = %v, want a *PanicError", trial, workers, n, err)
				}
				panics++
				got, err := collect(context.Background(), s, 0, s.DeltaPOriginal())
				if err != nil {
					t.Fatal(err)
				}
				checkSameResults(t, fmt.Sprintf("trial %d workers=%d panic at lookup %d", trial, workers, n), want, got)
			}
		}
	}
	if panics == 0 {
		t.Fatal("no sweep panicked; the instances make no weight lookups")
	}
}
