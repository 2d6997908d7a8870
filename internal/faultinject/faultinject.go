// Package faultinject is a build-tag-gated fault-point registry for the
// robustness test battery. Production code marks the places where the
// serving tier must survive failure — snapshot writes and loads, sweep
// start, mid-stream emits — with a Hit call naming the point; the e2e
// tests then inject I/O errors or panics at exactly those places and
// assert the process stays up.
//
// # Contract
//
// In a default build (no tag), Enabled is false and Hit is a constant
// nil return the compiler inlines away — production binaries carry zero
// registry, zero locks, zero overhead. Under `-tags faultinject`,
// Enabled is true and Set arms a point with a function: every Hit on
// that point calls it. The function returns the error Hit reports (which
// the call site must propagate like any real failure), or panics (which
// must be contained by the recovery layer under test), or returns nil to
// let the call through. Armed points are process-global; tests that arm
// one must Reset (or defer Reset) so points never leak between tests.
//
// Fault points are named by the exported constants so call sites and
// tests cannot drift apart; the constants exist in both build modes.
package faultinject

// Fault points of the serving tier.
const (
	// StoreWrite fires in store.Save before the snapshot file is written.
	StoreWrite = "store/write"
	// StoreGenerationWrite fires in store.SaveGeneration before the
	// generation sidecar is written. A PATCH writes the sidecar before the
	// snapshot, so arming this point fails a batch before anything of it
	// reaches disk.
	StoreGenerationWrite = "store/generation-write"
	// StoreLoad fires in store.Load before a snapshot file is decoded.
	StoreLoad = "store/load"
	// SweepStart fires at the top of every server sweep, after the
	// response status is committed for streaming sweeps.
	SweepStart = "server/sweep-start"
	// StreamEmit fires before each frontier row is written to the stream.
	StreamEmit = "server/stream-emit"
	// JobRecordWrite fires in store.JobStore.SaveRecord before a job
	// record is written.
	JobRecordWrite = "jobs/record-write"
	// JobCheckpoint fires in store.JobStore.AppendResult before a frontier
	// row is appended to a job's result log.
	JobCheckpoint = "jobs/checkpoint"
	// JobResumeLoad fires in store.JobStore.LoadAll before each persisted
	// job record is decoded at boot.
	JobResumeLoad = "jobs/resume-load"
)
