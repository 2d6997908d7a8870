//go:build race

package repair

// raceEnabled reports whether the race detector is compiled in. Its
// runtime drops sync.Pool items at random, so allocation bounds are
// asserted without -race only — the convention of Go's own AllocsPerRun
// tests.
const raceEnabled = true
