package repair

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"relatrust/internal/search"
	"relatrust/internal/session"
	"relatrust/internal/testkit"
	"relatrust/internal/weights"
)

// sameRepair compares the content of two suggestions — everything except
// Stats, which streaming deliberately snapshots mid-sweep.
func sameRepair(a, b *Repair) bool {
	if a.Tau != b.Tau || a.DeltaP != b.DeltaP || a.FDCost != b.FDCost ||
		!a.Sigma.Equal(b.Sigma) || a.Ext.Key() != b.Ext.Key() ||
		len(a.Data.Changed) != len(b.Data.Changed) {
		return false
	}
	for i := range a.Data.Changed {
		ca, cb := a.Data.Changed[i], b.Data.Changed[i]
		if ca != cb {
			return false
		}
		va := a.Data.Instance.Tuples[ca.Tuple][ca.Attr]
		vb := b.Data.Instance.Tuples[cb.Tuple][cb.Attr]
		if va.IsVar() != vb.IsVar() || (!va.IsVar() && !va.Equal(vb)) {
			return false
		}
	}
	return true
}

// TestStreamRangeMatchesRunRange pins the streaming facade's central
// guarantee at the repair layer: StreamRange yields repairs identical in
// content and order to the batch RunRange — same Σ′, extension vectors,
// τ bookkeeping, δP, and changed cells — on randomized instances, with one
// search worker and with several.
func TestStreamRangeMatchesRunRange(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 16; trial++ {
		width := 4 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 10+rng.Intn(25), width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 2)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("trial %d workers=%d", trial, workers)
			cfg := Config{Weights: weights.NewDistinctCount(in), Seed: int64(trial), Search: searchOpts(workers)}

			sb, err := NewSession(in, sigma, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dp := sb.DeltaPOriginal()
			batch, err := sb.RunRange(context.Background(), 0, dp)
			sb.Close()
			if err != nil {
				t.Fatal(err)
			}

			ss, err := NewSession(in, sigma, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var streamed []*Repair
			err = ss.StreamRange(context.Background(), 0, dp, func(r *Repair) error {
				streamed = append(streamed, r)
				return nil
			})
			ss.Close()
			if err != nil {
				t.Fatal(err)
			}

			if len(batch) != len(streamed) {
				t.Fatalf("%s: batch %d repairs, stream %d", label, len(batch), len(streamed))
			}
			for i := range batch {
				if !sameRepair(batch[i], streamed[i]) {
					t.Fatalf("%s: repair %d diverges:\n batch  %v\n stream %v", label, i, batch[i], streamed[i])
				}
			}
		}
	}
}

// TestStreamRangeYieldErrorAborts: an error returned by yield stops the
// sweep and surfaces verbatim.
func TestStreamRangeYieldErrorAborts(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s, err := NewSession(in, sigma, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	boom := errors.New("stop right there")
	err = s.StreamRange(context.Background(), 0, s.DeltaPOriginal(), func(*Repair) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the yield error", err)
	}
}

// TestStreamRangeCancel: cancelling from inside yield aborts with
// context.Canceled, and the session's engine still serves a correct
// follow-up sweep (pooled-fork hygiene after cancellation).
func TestStreamRangeCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	in := testkit.RandomInstance(rng, 40, 6, 2)
	sigma := testkit.RandomFDs(rng, 6, 2, 2)
	eng := session.New(in)

	for _, workers := range []int{1, 4} {
		cfg := Config{Weights: weights.NewDistinctCount(in), Engine: eng, Search: searchOpts(workers)}
		ref, err := RunSampling(context.Background(), in, sigma, []int{0, 2, 4}, cfg)
		if err != nil {
			t.Fatal(err)
		}

		s, err := NewSession(in, sigma, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		err = s.StreamRange(ctx, 0, s.DeltaPOriginal(), func(*Repair) error {
			cancel()
			return nil
		})
		s.Close()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}

		// The engine the cancelled session drew from must still produce
		// exactly the pre-cancel results.
		again, err := RunSampling(context.Background(), in, sigma, []int{0, 2, 4}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) != len(again) {
			t.Fatalf("workers=%d: %d repairs after cancel, %d before", workers, len(again), len(ref))
		}
		for i := range ref {
			if !sameRepair(ref[i], again[i]) {
				t.Fatalf("workers=%d: repair %d diverges after a cancelled sweep", workers, i)
			}
		}
	}
}

// TestStreamRangeProgressEvents: a full sweep reports started, one
// finished event per repair (with monotonically growing visit counts),
// and a final sweep-finished event.
func TestStreamRangeProgressEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	in := testkit.RandomInstance(rng, 30, 5, 2)
	sigma := testkit.RandomFDs(rng, 5, 2, 2)

	var events []ProgressEvent
	cfg := Config{
		Weights:  weights.NewDistinctCount(in),
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	}
	s, err := NewSession(in, sigma, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var n int
	if err := s.StreamRange(context.Background(), 0, s.DeltaPOriginal(), func(*Repair) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Kind != ProgressSweepStarted {
		t.Fatalf("first event %+v, want sweep-started", events)
	}
	last := events[len(events)-1]
	if last.Kind != ProgressSweepFinished {
		t.Fatalf("last event %+v, want sweep-finished", last)
	}
	finished, visited := 0, 0
	for _, ev := range events {
		if ev.Kind != ProgressTauFinished {
			continue
		}
		finished++
		if ev.Repair == nil {
			t.Fatal("tau-finished event without its repair")
		}
		if ev.Visited < visited {
			t.Fatalf("visit counts regressed: %d after %d", ev.Visited, visited)
		}
		visited = ev.Visited
	}
	if finished != n {
		t.Fatalf("%d tau-finished events for %d yielded repairs", finished, n)
	}
	if last.Visited < visited {
		t.Fatalf("final stats %d below last snapshot %d", last.Visited, visited)
	}
}

// TestRunSamplingParallelCancel: cancellation drains the τ workers and
// reports context.Canceled.
func TestRunSamplingParallelCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	in := testkit.RandomInstance(rng, 30, 5, 2)
	sigma := testkit.RandomFDs(rng, 5, 2, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSamplingParallel(ctx, in, sigma, []int{0, 1, 2, 3, 4, 5}, Config{}, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// searchOpts pins the worker count while keeping every other knob default.
func searchOpts(workers int) search.Options { return search.Options{Workers: workers} }
