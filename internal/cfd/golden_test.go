package cfd

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relatrust/internal/testkit"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRepairWithBudgetGolden pins RepairWithBudget byte for byte over
// seeded random instances and CFD sets mixing wildcard and constant
// patterns: the relaxation, the changed cells in order and the rendered
// V-instance (variable numbering included) at several budgets.
func TestRepairWithBudgetGolden(t *testing.T) {
	var b strings.Builder
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		width := 3 + rng.Intn(3)
		n := 6 + rng.Intn(9)
		dom := 2 + rng.Intn(2)
		in := testkit.RandomInstance(rng, n, width, dom)
		fds := testkit.RandomFDs(rng, width, 1+rng.Intn(3), 2)
		set := make(Set, len(fds))
		for i, f := range fds {
			pat := map[int]string{}
			for _, a := range f.LHS.Attrs() {
				if rng.Intn(3) == 0 {
					pat[a] = fmt.Sprintf("v%d", rng.Intn(dom))
				}
			}
			rhs := ""
			if rng.Intn(3) == 0 {
				rhs = fmt.Sprintf("v%d", rng.Intn(dom))
			}
			c, err := New(f, pat, rhs)
			if err != nil {
				t.Fatal(err)
			}
			set[i] = c
		}
		fmt.Fprintf(&b, "== trial %d: %s\n", trial, set.Format(in.Schema))
		for _, tau := range []int{0, 2, 5, 100} {
			r, err := RepairWithBudget(context.Background(), in, set, tau, Config{Seed: int64(trial)})
			switch {
			case err != nil:
				fmt.Fprintf(&b, "tau=%d error: %v\n", tau, err)
			case r == nil:
				fmt.Fprintf(&b, "tau=%d none\n", tau)
			default:
				fmt.Fprintf(&b, "%s set=%s changed=%v\n%s", r, r.Set.Format(in.Schema), r.Changed, r.Instance)
			}
		}
	}
	checkGolden(t, "repair.golden", []byte(b.String()))
}

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
