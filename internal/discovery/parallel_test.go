package discovery

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

// withProcs runs f with GOMAXPROCS set to procs, restoring it afterwards.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// streamAll returns Stream's full emitted sequence, unsorted.
func streamAll(t *testing.T, in *relation.Instance, opt StreamOptions) []Found {
	t.Helper()
	var out []Found
	if err := Stream(context.Background(), in, opt, func(f Found) error {
		out = append(out, f)
		return nil
	}); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	return out
}

// waitGoroutines fails the test unless the goroutine count falls back to
// want within a short deadline: workers may still be unwinding after
// their wg.Done when Stream returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Stream returned, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamSequenceIndependentOfGOMAXPROCS: the full emitted sequence —
// order, errors and levels — is the same at GOMAXPROCS 1, 2 and 8, in
// exact and approximate mode, and equals the reference miners.
func TestStreamSequenceIndependentOfGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 30; trial++ {
		width := 4 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 4+rng.Intn(40), width, 2+rng.Intn(3))
		opt := StreamOptions{MaxLHS: 2 + rng.Intn(width-1)}
		if trial%2 == 1 {
			opt.MaxError = float64(1+rng.Intn(3)) * 0.1
		}
		var runs [][]Found
		for _, procs := range []int{1, 2, 8} {
			withProcs(procs, func() { runs = append(runs, streamAll(t, in, opt)) })
		}
		for i, procs := range []int{2, 8} {
			if !slices.Equal(runs[i+1], runs[0]) {
				t.Fatalf("trial %d: GOMAXPROCS %d emitted\n%v\nGOMAXPROCS 1 emitted\n%v", trial, procs, runs[i+1], runs[0])
			}
		}
		got := slices.Clone(runs[0])
		slices.SortFunc(got, func(a, b Found) int { return fd.Compare(a.FD, b.FD) })
		if opt.MaxError == 0 {
			want := referenceDiscover(in, opt, 0)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d FDs, reference found %d", trial, len(got), len(want))
			}
			for i := range got {
				if !got[i].FD.Equal(want[i]) || got[i].Error != 0 {
					t.Fatalf("trial %d: entry %d is %+v, reference %v", trial, i, got[i], want[i])
				}
			}
		} else if want := referenceApprox(in, opt); !slices.Equal(got, want) {
			t.Fatalf("trial %d: got\n%v\nreference\n%v", trial, got, want)
		}
	}
}

// TestStreamEmitErrorStopsWorkers: an emit that fails at the k-th FD gets
// its error back after exactly k emissions, and no worker outlives Stream.
func TestStreamEmitErrorStopsWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	in := testkit.RandomInstance(rng, 30, 6, 4)
	opt := StreamOptions{MaxLHS: 3, MaxError: 0.1}
	sentinel := errors.New("emit failed")
	withProcs(4, func() {
		total := len(streamAll(t, in, opt))
		if total < 4 {
			t.Fatalf("fixture too small: %d FDs", total)
		}
		for _, k := range []int{1, total / 2, total} {
			base := runtime.NumGoroutine()
			emitted := 0
			err := Stream(context.Background(), in, opt, func(Found) error {
				emitted++
				if emitted == k {
					return sentinel
				}
				return nil
			})
			if !errors.Is(err, sentinel) || emitted != k {
				t.Fatalf("k=%d: err = %v after %d emissions, want the emit error after %d", k, err, emitted, k)
			}
			waitGoroutines(t, base)
		}
	})
}

// TestStreamCancelMidLevel: cancelling from inside a level returns the
// cancellation cause, emits nothing for a later candidate, and leaves no
// worker running.
func TestStreamCancelMidLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	in := testkit.RandomInstance(rng, 30, 6, 4)
	opt := StreamOptions{MaxLHS: 3, MaxError: 0.1}
	sentinel := errors.New("client went away")
	withProcs(4, func() {
		all := streamAll(t, in, opt)
		// Cancel at the last FD that a later LHS of the same level
		// follows, so the cut falls strictly inside a level.
		cut := -1
		for i, f := range all {
			if i+1 < len(all) && all[i+1].Level == f.Level && all[i+1].FD.LHS != f.FD.LHS {
				cut = i
			}
		}
		if cut < 0 {
			t.Fatal("fixture has no level with FDs of two LHS sets")
		}
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		var got []Found
		err := Stream(ctx, in, opt, func(f Found) error {
			if len(got) > cut && f.FD.LHS != all[cut].FD.LHS {
				t.Errorf("emitted %v from a later candidate after cancellation", f.FD)
			}
			got = append(got, f)
			if len(got) == cut+1 {
				cancel(sentinel)
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want the cancellation cause", err)
		}
		if !slices.Equal(got[:cut+1], all[:cut+1]) {
			t.Fatalf("emitted prefix %v, want %v", got[:cut+1], all[:cut+1])
		}
		waitGoroutines(t, base)
	})
}
