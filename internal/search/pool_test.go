package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
			_, err := s.FindRange(context.Background(), 0, s.DeltaPOriginal())
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
