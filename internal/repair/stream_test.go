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
// Stats, which streaming snapshots mid-sweep.
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
		va := a.Data.Value(ca)
		vb := b.Data.Value(cb)
		if va.IsVar() != vb.IsVar() || (!va.IsVar() && !va.Equal(vb)) {
			return false
		}
	}
	return true
}

// TestStreamRangeMatchesRepeatedRun pins StreamRange against repeated
// single-τ runs on randomized instances, with one search worker and with
// several. A fresh Session.Run at the τ a point was found under returns a
// repair of bit-identical FD cost and no smaller δP (Definition 4 keeps
// the smaller δP among equal-cost goals, so the two may differ on ties);
// when it lands on the same extension it is the same repair, changed
// cells included. Every point's data repair is also exactly what
// materializing its extension on a fresh session gives.
func TestStreamRangeMatchesRepeatedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 16; trial++ {
		width := 4 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 10+rng.Intn(25), width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 2)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("trial %d workers=%d", trial, workers)
			cfg := Config{Weights: weights.NewDistinctCount(in), Seed: int64(trial), Search: searchOpts(workers)}

			ss, err := NewSession(in, sigma, cfg)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := streamAll(ss, 0, ss.DeltaPOriginal())
			ss.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(streamed) == 0 {
				t.Fatalf("%s: empty frontier", label)
			}
			for i, r := range streamed {
				s, err := NewSession(in, sigma, cfg)
				if err != nil {
					t.Fatal(err)
				}
				single, err := s.Run(context.Background(), r.Tau)
				if err != nil {
					t.Fatal(err)
				}
				m, err := s.materialize(&search.Result{State: r.Ext, Sigma: r.Sigma, Cost: r.FDCost,
					CoverSize: r.DeltaP / s.Searcher.Alpha(), DeltaP: r.DeltaP}, r.Tau)
				s.Close()
				if err != nil {
					t.Fatal(err)
				}
				if single == nil || single.FDCost != r.FDCost || single.DeltaP < r.DeltaP ||
					(single.Ext.Key() == r.Ext.Key() && !sameRepair(r, single)) {
					t.Fatalf("%s: repair %d diverges:\n stream %v\n run    %v", label, i, r, single)
				}
				if !sameRepair(r, m) {
					t.Fatalf("%s: repair %d data diverges from its materialization:\n stream %v\n fresh  %v", label, i, r, m)
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

// streamAll collects a StreamRange sweep.
func streamAll(s *Session, tauLow, tauHigh int) ([]*Repair, error) {
	var out []*Repair
	err := s.StreamRange(context.Background(), tauLow, tauHigh, func(r *Repair) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

// searchOpts pins the worker count while keeping every other knob default.
func searchOpts(workers int) search.Options { return search.Options{Workers: workers} }
