package relatrust_test

// Facade-layer pin of the conflict-hypergraph decomposition: every point
// of a Repairer's streamed frontier must carry the δP that a monolithic
// cover query over the whole instance gives its extension, and the
// frontier must be the same for worker counts 1 and 4 — on the CSV
// fixture and on a generated workload whose conflict graph splits into
// many components.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"relatrust"
	"relatrust/internal/conflict"
)

// blockCSV builds a CSV whose Blk,A->B violations stay inside 4-row
// blocks, so the conflict graph decomposes into many small components.
func blockCSV(blocks int) string {
	var b strings.Builder
	b.WriteString("Blk,A,B,C\n")
	vals := []string{"x", "y"}
	for blk := 0; blk < blocks; blk++ {
		for r := 0; r < 4; r++ {
			fmt.Fprintf(&b, "b%d,%s,%s,c%d\n", blk, vals[r%2], vals[(r/2)%2], r%3)
		}
	}
	return b.String()
}

func TestFrontierDecompositionMatchesMonolithic(t *testing.T) {
	fixtures := []struct {
		name string
		csv  string
		fds  string
	}{
		{"cities", multiCSV, "City->ZIP; City->State"},
		{"many-components", blockCSV(12), "Blk,A->B"},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			in, err := relatrust.ReadCSV(strings.NewReader(fx.csv))
			if err != nil {
				t.Fatal(err)
			}
			sigma, err := relatrust.ParseFDs(in.Schema, fx.fds)
			if err != nil {
				t.Fatal(err)
			}

			collect := func(workers int) []*relatrust.Repair {
				rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{
					Workers: workers,
					Seed:    7,
				})
				if err != nil {
					t.Fatal(err)
				}
				var out []*relatrust.Repair
				for r, err := range rp.Frontier(context.Background()) {
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, r)
				}
				return out
			}

			want := collect(1)
			if len(want) == 0 {
				t.Fatal("fixture produced an empty frontier")
			}
			mono := conflict.New(in, sigma)
			alpha := min(in.Schema.Width()-1, len(sigma))
			for i, r := range want {
				if got := alpha * mono.CoverSize(r.Ext); r.DeltaP != got {
					t.Fatalf("frontier point %d (τ=%d): δP %d, monolithic cover query gives %d", i, r.Tau, r.DeltaP, got)
				}
			}
			got := collect(4)
			if len(got) != len(want) {
				t.Fatalf("workers=4: frontier has %d points, workers=1 %d", len(got), len(want))
			}
			for i := range want {
				if !equalRepair(want[i], got[i]) {
					t.Fatalf("workers=4: frontier point %d differs (τ=%d δP=%d, workers=1 τ=%d δP=%d)",
						i, got[i].Tau, got[i].DeltaP, want[i].Tau, want[i].DeltaP)
				}
			}
		})
	}
}
