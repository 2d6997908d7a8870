package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/testkit"
	"relatrust/internal/weights"
)

// TestStreamMatchesBatch pins the streaming contract on randomized
// instances: FindRangeStream must emit exactly the results FindRange
// returns — same states, bit-identical costs, same order — at Workers 1
// and 4, and every result except the final
// one must arrive before the search finishes (the final one carries the
// run's complete stats).
func TestStreamMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 16; trial++ {
		width := 4 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 10+rng.Intn(25), width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 2)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("trial %d workers=%d", trial, workers)
			batchS := NewSearcher(conflict.New(in, sigma), weights.NewDistinctCount(in), Options{Workers: workers})
			streamS := NewSearcher(conflict.New(in, sigma), weights.NewDistinctCount(in), Options{Workers: workers})
			dp := batchS.DeltaPOriginal()

			batch, err := batchS.FindRange(context.Background(), 0, dp)
			if err != nil {
				t.Fatal(err)
			}
			var streamed []*Result
			err = streamS.FindRangeStream(context.Background(), 0, dp, func(r *Result) error {
				streamed = append(streamed, r)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(streamed) {
				t.Fatalf("%s: batch %d results, stream %d", label, len(batch), len(streamed))
			}
			for i := range batch {
				a, b := batch[i], streamed[i]
				if !a.State.Equal(b.State) || a.Cost != b.Cost || a.CoverSize != b.CoverSize ||
					a.DeltaP != b.DeltaP || !a.Sigma.Equal(b.Sigma) {
					t.Fatalf("%s: result %d diverges: batch %+v, stream %+v", label, i, a, b)
				}
			}
			if n := len(streamed); n > 0 {
				last := streamed[n-1]
				fin := streamS.LastStats()
				if last.Stats.Visited != fin.Visited || last.Stats.Generated != fin.Generated {
					t.Fatalf("%s: final streamed result stats %+v != run stats %+v", label, last.Stats, fin)
				}
			}
		}
	}
}

// TestFindCancelledBeforeStart: a pre-cancelled context aborts the search
// at Workers 1 and 4 before any state is popped, with errors.Is(err,
// context.Canceled).
func TestFindCancelledBeforeStart(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{Workers: workers})
		_, err := s.Find(ctx, s.DeltaPOriginal())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		_, err = s.FindRange(ctx, 0, s.DeltaPOriginal())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: FindRange err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestStreamCancelMidSweep cancels deterministically from inside the emit
// hook — after the first delivered result — and expects both engines to
// abort with context.Canceled without delivering further results, with
// goroutine counts back at baseline (the parallel pool must drain).
func TestStreamCancelMidSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := testkit.RandomInstance(rng, 40, 6, 2)
	sigma := testkit.RandomFDs(rng, 6, 2, 2)

	for _, workers := range []int{1, 4} {
		s := NewSearcher(conflict.New(in, sigma), weights.NewDistinctCount(in), Options{Workers: workers})
		dp := s.DeltaPOriginal()
		full, err := s.FindRange(context.Background(), 0, dp)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 2 {
			t.Fatalf("workload too easy for a mid-sweep cancel: %d results", len(full))
		}

		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		emitted := 0
		err = s.FindRangeStream(ctx, 0, dp, func(*Result) error {
			emitted++
			cancel() // the next coordinator iteration must observe it
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if emitted != 1 {
			t.Fatalf("workers=%d: %d results emitted after cancel, want 1", workers, emitted)
		}
		testkit.WaitGoroutineBaseline(t, baseline)

		// The searcher must stay usable after a cancelled run: pooled forks
		// were drained, not poisoned.
		again, err := s.FindRange(context.Background(), 0, dp)
		if err != nil {
			t.Fatal(err)
		}
		checkSameResults(t, fmt.Sprintf("workers=%d post-cancel", workers), full, again)
	}
}

// TestCancelCausePropagates: a CancelCause cause must surface verbatim.
func TestCancelCausePropagates(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	cause := errors.New("deadline budget spent")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{})
	if _, err := s.Find(ctx, s.DeltaPOriginal()); !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cancel cause", err)
	}
}

// TestMaxVisitedTypedError: the runaway guard returns a *MaxVisitedError
// that matches the ErrMaxVisited sentinel and carries the abort stats.
func TestMaxVisitedTypedError(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	for _, workers := range []int{1, 4} {
		s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{BestFirst: true, MaxVisited: 1, Workers: workers})
		_, err := s.Find(context.Background(), 0)
		if !errors.Is(err, ErrMaxVisited) {
			t.Fatalf("workers=%d: err = %v, want ErrMaxVisited", workers, err)
		}
		var mv *MaxVisitedError
		if !errors.As(err, &mv) {
			t.Fatalf("workers=%d: err %T does not unwrap to *MaxVisitedError", workers, err)
		}
		if mv.Stats.Visited != 1 {
			t.Fatalf("workers=%d: abort stats report %d visited, want 1", workers, mv.Stats.Visited)
		}
	}
}
