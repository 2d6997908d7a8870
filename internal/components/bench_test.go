package components

import (
	"math/rand"
	"testing"

	"relatrust/internal/conflict"
)

// BenchmarkComponentBuild measures the cold evaluator build — union-find
// over every cluster of every FD plus per-component base covers — off a
// prebuilt analysis. Paid once per root analysis (the session engine
// caches the evaluator), so it must stay cheap relative to conflict.New.
func BenchmarkComponentBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	sh := shapes(rng)[1] // many-small: the decomposition's intended shape
	an := conflict.New(sh.in, sh.sigma)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewEvaluator(an)
	}
}

// BenchmarkComponentCover measures the decomposed cover query in steady
// state: a warm memo answers repeated queries with per-component map
// lookups (plus the Affected cache), no cluster scans.
func BenchmarkComponentCover(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	sh := shapes(rng)[1]
	an := conflict.New(sh.in, sh.sigma)
	ev := NewEvaluator(an)
	ext := randExt(rng, sh.sigma, sh.in.Schema.Width())
	for ext == nil {
		ext = randExt(rng, sh.sigma, sh.in.Schema.Width())
	}
	ev.CoverSize(an, ext) // warm the memo and the Affected cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.CoverSize(an, ext)
	}
}
