package search

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
	"relatrust/internal/weights"
)

// decompShapes builds the three conflict-graph shapes the decomposition
// matrix runs on: everything in one component, many small components (a
// block-id attribute in every LHS confines clusters to their block), and
// an instance with no violations at all.
func decompShapes(rng *rand.Rand) []struct {
	name  string
	in    *relation.Instance
	sigma fd.Set
} {
	connected := testkit.RandomInstance(rng, 24, 4, 2)
	connectedFDs := testkit.RandomFDs(rng, 4, 2, 2)

	blocks := relation.NewInstance(relation.MustSchema("Blk", "A", "B", "C"))
	for t := 0; t < 36; t++ {
		err := blocks.AppendConsts(
			fmt.Sprintf("b%d", t/4),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(2)),
		)
		if err != nil {
			panic(err)
		}
	}
	blockFDs := fd.Set{
		fd.MustNew(relation.NewAttrSet(0, 1), 2),
		fd.MustNew(relation.NewAttrSet(0, 3), 1),
	}

	clean := relation.NewInstance(relation.MustSchema("A", "B", "C"))
	for t := 0; t < 12; t++ {
		if err := clean.AppendConsts(fmt.Sprintf("u%d", t), fmt.Sprintf("v%d", t), "c"); err != nil {
			panic(err)
		}
	}
	cleanFDs := fd.Set{fd.MustNew(relation.NewAttrSet(0), 1)}

	return []struct {
		name  string
		in    *relation.Instance
		sigma fd.Set
	}{
		{"connected", connected, connectedFDs},
		{"many-small", blocks, blockFDs},
		{"singleton-only", clean, cleanFDs},
	}
}

// TestDecompositionMatchesMonolithic is the search-layer bit-identity
// matrix: Workers {1, 4} × {Find, FindRange} over connected,
// many-small-components, and violation-free instances. The sequential
// reference, whose goal tests are monolithic cover queries, is the
// oracle; the engine's component-decomposed cover queries must reproduce
// its repairs — states, bit-identical costs, cover sizes, goal order, and
// effort stats.
func TestDecompositionMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, sh := range decompShapes(rng) {
		t.Run(sh.name, func(t *testing.T) {
			w := weights.NewDistinctCount(sh.in)
			ref := NewSearcher(conflict.New(sh.in, sh.sigma), w, Options{})
			dp := ref.DeltaPOriginal()
			if mono := ref.Alpha() * ref.An.CoverSize(nil); dp != mono {
				t.Fatalf("DeltaPOriginal %d, monolithic %d", dp, mono)
			}
			refRange := reference(ref, 0, dp)

			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("workers=%d", workers)
				s := NewSearcher(conflict.New(sh.in, sh.sigma), w, Options{Workers: workers})
				got, err := s.FindRange(context.Background(), 0, dp)
				if err != nil {
					t.Fatal(err)
				}
				checkSameResults(t, "FindRange "+label, refRange, got)

				for _, tau := range []int{0, dp / 2, dp} {
					want := referenceFind(ref, tau)
					r, err := s.Find(context.Background(), tau)
					if err != nil {
						t.Fatal(err)
					}
					if (want == nil) != (r == nil) {
						t.Fatalf("τ=%d %s: reference %v, engine %v disagree on feasibility", tau, label, want, r)
					}
					if want != nil {
						checkSameResults(t, "Find "+label, []*Result{want}, []*Result{r})
					}
				}

				if sh.name != "singleton-only" && s.ComponentStats().Components == 0 {
					t.Fatalf("%s: searcher reports zero components", label)
				}
			}
		})
	}
}

// TestDecompositionFanout forces the cross-component fan-out path (many
// affected components, several workers) and pins both the bit-identity of
// the results against the sequential reference and that parallel
// per-component evaluations were actually dispatched.
func TestDecompositionFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	in := relation.NewInstance(relation.MustSchema("Blk", "A", "B", "C", "D"))
	for t := 0; t < 120; t++ {
		err := in.AppendConsts(
			fmt.Sprintf("b%d", t/4),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
		)
		if err != nil {
			panic(err)
		}
	}
	sigma := fd.Set{fd.MustNew(relation.NewAttrSet(0, 1), 2)}
	w := weights.AttrCount{}

	ref := NewSearcher(conflict.New(in, sigma), w, Options{})
	dp := ref.DeltaPOriginal()
	want := reference(ref, 0, dp)

	s := NewSearcher(conflict.New(in, sigma), w, Options{Workers: 4})
	if c := s.ComponentStats().Components; c < 2*coverChunkMin {
		t.Fatalf("instance decomposed into %d components, need >= %d to exercise the fan-out", c, 2*coverChunkMin)
	}
	got, err := s.FindRange(context.Background(), 0, dp)
	if err != nil {
		t.Fatal(err)
	}
	checkSameResults(t, "fanout", want, got)
	if s.ComponentStats().ParallelEvals == 0 {
		t.Fatal("no per-component evaluations were dispatched across the pool")
	}
}
