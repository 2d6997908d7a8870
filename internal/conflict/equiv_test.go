package conflict

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// This file pins the dictionary-encoded partitioning to the seed's
// string-keyed implementation: refAnalysis below is that implementation
// ported verbatim (plain maps instead of epoch-versioned scratch), and the
// quick tests drive both over random instances with variables, duplicate
// values, and overlapping FDs — the adversarial shapes for cluster overlap
// — asserting identical covers, matchings, and edge counts.

type refAnalysis struct {
	in       *relation.Instance
	sigma    fd.Set
	clusters [][][]int32
}

func newRef(in *relation.Instance, sigma fd.Set) *refAnalysis {
	r := &refAnalysis{in: in, sigma: sigma, clusters: make([][][]int32, len(sigma))}
	for fi, f := range sigma {
		groups := map[string][]int32{}
		var order []string
		for t := 0; t < in.N(); t++ {
			key := in.Project(t, f.LHS)
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], int32(t))
		}
		for _, key := range order {
			g := groups[key]
			if len(g) < 2 {
				continue
			}
			mixed := false
			for _, t := range g[1:] {
				if !in.Tuples[t][f.RHS].Equal(in.Tuples[g[0]][f.RHS]) {
					mixed = true
					break
				}
			}
			if mixed {
				r.clusters[fi] = append(r.clusters[fi], g)
			}
		}
	}
	return r
}

type refBuf struct {
	subs [][]int32
}

// refGroups is the legacy buildGroups: string-keyed refinement by y with
// RHS subgrouping, skipping marked tuples.
func (r *refAnalysis) refGroups(g []int32, rhs int, y relation.AttrSet, marked map[int32]bool) []*refBuf {
	groups := map[string]*refBuf{}
	subIdx := map[string]map[string]int{}
	var order []string
	for _, t := range g {
		if marked[t] {
			continue
		}
		key := ""
		if !y.IsEmpty() {
			key = r.in.Project(int(t), y)
		}
		b, ok := groups[key]
		if !ok {
			b = &refBuf{}
			groups[key] = b
			subIdx[key] = map[string]int{}
			order = append(order, key)
		}
		rkey := r.in.Tuples[t][rhs].Key()
		si, ok := subIdx[key][rkey]
		if !ok {
			si = len(b.subs)
			subIdx[key][rkey] = si
			b.subs = append(b.subs, nil)
		}
		b.subs[si] = append(b.subs[si], t)
	}
	out := make([]*refBuf, 0, len(order))
	for _, key := range order {
		out = append(out, groups[key])
	}
	return out
}

func extOfRef(sigma fd.Set, ext []relation.AttrSet, fi int) relation.AttrSet {
	if ext == nil {
		return 0
	}
	return ext[fi].Diff(sigma[fi].LHS)
}

func (r *refAnalysis) matching(ext []relation.AttrSet) (int, map[int32]bool) {
	marked := map[int32]bool{}
	pairs := 0
	for fi, f := range r.sigma {
		y := extOfRef(r.sigma, ext, fi)
		for _, g := range r.clusters[fi] {
			for _, b := range r.refGroups(g, f.RHS, y, marked) {
				if len(b.subs) < 2 {
					continue
				}
				var flat []int32
				var sub []int
				for si, s := range b.subs {
					for _, t := range s {
						flat = append(flat, t)
						sub = append(sub, si)
					}
				}
				i, j := 0, len(flat)-1
				for i < j && sub[i] != sub[j] {
					marked[flat[i]] = true
					marked[flat[j]] = true
					pairs++
					i++
					j--
				}
			}
		}
	}
	return pairs, marked
}

func (r *refAnalysis) cover(ext []relation.AttrSet) []int32 {
	pairs, matched := r.matching(ext)
	covered := map[int32]bool{}
	cov := []int32{}
	for fi, f := range r.sigma {
		y := extOfRef(r.sigma, ext, fi)
		for _, g := range r.clusters[fi] {
			for _, b := range r.refGroups(g, f.RHS, y, covered) {
				if len(b.subs) < 2 {
					continue
				}
				exempt := 0
				for si := 1; si < len(b.subs); si++ {
					if len(b.subs[si]) > len(b.subs[exempt]) {
						exempt = si
					}
				}
				for si, s := range b.subs {
					if si == exempt {
						continue
					}
					for _, t := range s {
						covered[t] = true
						cov = append(cov, t)
					}
				}
			}
		}
	}
	if len(cov) > 2*pairs {
		cov = cov[:0]
		for t := range matched {
			cov = append(cov, t)
		}
	}
	sort.Slice(cov, func(i, j int) bool { return cov[i] < cov[j] })
	return cov
}

// randConflictWorkload builds a duplicate-heavy instance and an FD set
// with overlapping attributes so clusters of different FDs share tuples.
func randConflictWorkload(rng *rand.Rand) (*relation.Instance, fd.Set) {
	width := 4 + rng.Intn(3)
	names := make([]string, width)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	in := relation.NewInstance(relation.MustSchema(names...))
	var vg relation.VarGen
	shared := []relation.Value{vg.Fresh(), vg.Fresh()}
	n := 4 + rng.Intn(40)
	for t := 0; t < n; t++ {
		tp := make(relation.Tuple, width)
		for a := range tp {
			switch rng.Intn(12) {
			case 0:
				tp[a] = shared[rng.Intn(len(shared))]
			case 1:
				tp[a] = vg.Fresh()
			default:
				tp[a] = relation.Const(string(rune('a' + rng.Intn(2+a%2))))
			}
		}
		_ = in.Append(tp)
	}
	nfd := 2 + rng.Intn(2)
	sigma := make(fd.Set, 0, nfd)
	for len(sigma) < nfd {
		rhs := rng.Intn(width)
		lhs := relation.NewAttrSet()
		for a := 0; a < width; a++ {
			if a != rhs && rng.Intn(3) == 0 {
				lhs = lhs.Add(a)
			}
		}
		if lhs.IsEmpty() {
			lhs = lhs.Add((rhs + 1) % width)
		}
		sigma = append(sigma, fd.MustNew(lhs, rhs))
	}
	return in, sigma
}

func randExt(rng *rand.Rand, sigma fd.Set, width int) []relation.AttrSet {
	if rng.Intn(4) == 0 {
		return nil
	}
	ext := make([]relation.AttrSet, len(sigma))
	for i, f := range sigma {
		ext[i] = f.LHS
		for a := 0; a < width; a++ {
			if a != f.RHS && rng.Intn(4) == 0 {
				ext[i] = ext[i].Add(a)
			}
		}
	}
	return ext
}

// TestQuickCoverMatchesStringReference: covers, cover sizes, and matching
// sizes of the code-based Analysis equal the string-keyed reference, over
// repeated queries on one Analysis (exercising epoch/scratch reuse).
func TestQuickCoverMatchesStringReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in, sigma := randConflictWorkload(rng)
		an := New(in, sigma)
		ref := newRef(in, sigma)
		for q := 0; q < 6; q++ {
			ext := randExt(rng, sigma, in.Schema.Width())
			want := ref.cover(ext)
			got := an.Cover(ext)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			pairs, _ := ref.matching(ext)
			if an.MatchingSize(ext) != pairs {
				return false
			}
			if an.CoverSize(ext) != len(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickEdgeCountMatchesBruteForce: DiffSets (uncapped) groups exactly
// the brute force deduplicated violating pairs, with each difference set's
// edge count equal to the brute-force count.
func TestQuickEdgeCountMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in, sigma := randConflictWorkload(rng)
		an := New(in, sigma)

		pairSet := map[[2]int32]bool{}
		for _, f := range sigma {
			for i := 0; i < in.N(); i++ {
				for j := i + 1; j < in.N(); j++ {
					if in.Tuples[i].AgreeOn(in.Tuples[j], f.LHS) &&
						!in.Tuples[i][f.RHS].Equal(in.Tuples[j][f.RHS]) {
						pairSet[[2]int32{int32(i), int32(j)}] = true
					}
				}
			}
		}

		wantByAttrs := map[relation.AttrSet]int{}
		for pr := range pairSet {
			d := in.Tuples[pr[0]].DiffSet(in.Tuples[pr[1]])
			wantByAttrs[d]++
		}
		ds := an.DiffSets(0)
		if len(ds) != len(wantByAttrs) {
			return false
		}
		for _, d := range ds {
			if wantByAttrs[d.Attrs] != d.Count() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
