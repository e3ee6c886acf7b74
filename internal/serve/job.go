package serve

import (
	"sync"

	"repro/internal/mcbatch"
)

// JobState is the lifecycle of a job: Queued → Running → Done/Failed.
// Cache hits are born Done.
type JobState int

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
)

// String returns the wire name of the state.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	default:
		return "invalid"
	}
}

// Job is one submitted trial batch tracked by the daemon's registry.
type Job struct {
	// ID is the registry handle ("j-000001"). Two submissions of the same
	// Spec can share one Job (singleflight) or get distinct Jobs backed by
	// the same cached payload; Key is the content identity, ID the
	// submission handle.
	ID string
	// Key is the canonical content address of the Spec.
	Key mcbatch.Key

	spec mcbatch.Spec

	mu      sync.Mutex
	state   JobState // guarded by mu
	errMsg  string   // guarded by mu
	payload []byte   // guarded by mu
	// kernel records the executor the batch runner reports, for the
	// status API and /metrics.
	kernel string // guarded by mu
	// cached records that the job was answered from the result cache at
	// submit time (it never entered the queue). Written at submit under
	// s.mu but read from handler goroutines, so it takes the job's own
	// lock like the rest of the mutable state.
	cached bool // guarded by mu

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

func newJob(id string, key mcbatch.Key, spec mcbatch.Spec) *Job {
	return &Job{ID: id, Key: key, spec: spec, done: make(chan struct{})}
}

// Snapshot returns the state, error message (Failed only) and payload
// (Done only) at one instant.
func (j *Job) Snapshot() (JobState, string, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.payload
}

// Done returns the channel closed at terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setKernel records the kernel that ran; call before complete so
// observers released by the done channel already see it.
func (j *Job) setKernel(kernel string) {
	j.mu.Lock()
	j.kernel = kernel
	j.mu.Unlock()
}

// executedKernel returns the name of the kernel that ran, empty until the
// batch runner has reported it.
func (j *Job) executedKernel() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.kernel
}

// markCached records a cache-hit birth; call before complete so any
// observer released by the done channel already sees it.
func (j *Job) markCached() {
	j.mu.Lock()
	j.cached = true
	j.mu.Unlock()
}

// wasCached reports whether the job was answered from the result cache.
func (j *Job) wasCached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

func (j *Job) complete(payload []byte) {
	j.mu.Lock()
	j.state = JobDone
	j.payload = payload
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) fail(msg string) {
	j.mu.Lock()
	j.state = JobFailed
	j.errMsg = msg
	j.mu.Unlock()
	close(j.done)
}

// terminal reports whether the job has finished (either way).
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == JobDone || j.state == JobFailed
}
