package repair

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestPinnedRepairGolden pins RepairDataPinned byte for byte over seeded
// random instances and pinnings: the cover, the changed cells in order and
// the rendered V-instance (variable numbering included), or the error of
// an infeasible pinning.
func TestPinnedRepairGolden(t *testing.T) {
	var b strings.Builder
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		width := 3 + rng.Intn(3)
		n := 6 + rng.Intn(9)
		in := testkit.RandomInstance(rng, n, width, 2+rng.Intn(2))
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(3), 2)
		pinned := map[relation.CellRef]bool{}
		for i := rng.Intn(2 * n); i > 0; i-- {
			pinned[relation.CellRef{Tuple: rng.Intn(n), Attr: rng.Intn(width)}] = true
		}
		cells := make([]relation.CellRef, 0, len(pinned))
		for c := range pinned {
			cells = append(cells, c)
		}
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].Tuple != cells[j].Tuple {
				return cells[i].Tuple < cells[j].Tuple
			}
			return cells[i].Attr < cells[j].Attr
		})
		fmt.Fprintf(&b, "== trial %d: %s pinned=%v\n", trial, sigma.Format(in.Schema), cells)
		rep, err := RepairDataPinned(in, sigma, pinned, int64(trial), nil)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		fmt.Fprintf(&b, "cover=%v changed=%v\n%s", rep.Cover, rep.Changed, rep.Instance())
	}
	checkGolden(t, "pinned.golden", []byte(b.String()))
}

// TestRepairDataGolden pins the unpinned data repair (RepairDataPinned
// with no pins, which computes the root's cover) byte for byte: the cover,
// the changed cells in order and the rendered V-instance (variable
// numbering included) over seeded const-only random instances, a small
// blocked shape (violations inside 4-row blocks) and a small census-like
// shape.
func TestRepairDataGolden(t *testing.T) {
	var b strings.Builder
	emit := func(name string, in *relation.Instance, sigma fd.Set, seed int64) {
		fmt.Fprintf(&b, "== %s: %s seed=%d\n", name, sigma.Format(in.Schema), seed)
		rep, err := RepairDataPinned(in, sigma, nil, seed, nil)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			return
		}
		fmt.Fprintf(&b, "cover=%v changed=%v\n%s", rep.Cover, rep.Changed, rep.Instance())
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		width := 3 + rng.Intn(4)
		n := 5 + rng.Intn(16)
		in := testkit.RandomInstance(rng, n, width, 2+rng.Intn(3))
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(3), 2)
		emit(fmt.Sprintf("random %d", trial), in, sigma, int64(trial))
	}

	brng := rand.New(rand.NewSource(42))
	blocked := relation.NewInstance(relation.MustSchema("Blk", "A", "B", "C", "D"))
	for t := 0; t < 64; t++ {
		blocked.AppendConsts(fmt.Sprintf("b%d", t/4), fmt.Sprintf("v%d", brng.Intn(2)),
			fmt.Sprintf("v%d", brng.Intn(2)), fmt.Sprintf("v%d", brng.Intn(3)), fmt.Sprintf("v%d", brng.Intn(3)))
	}
	for seed := int64(0); seed < 3; seed++ {
		emit("blocked", blocked, fd.MustParseSet(blocked.Schema, "Blk,A->B"), seed)
		emit("blocked", blocked, fd.MustParseSet(blocked.Schema, "Blk,A->B; Blk->C; C->D"), seed)
	}

	spec := gen.SubSpec(gen.CensusSpec(), 8)
	sigma := gen.TwoFDs(spec)
	clean, err := gen.Generate(spec, sigma, 120, 42)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := gen.PerturbData(clean, sigma, 0.05, 43)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		emit("census", dp.Instance, sigma, seed)
	}
	checkGolden(t, "data.golden", []byte(b.String()))
}
