package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per unit.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent, request int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name, StartNs: now})
	return len(t.spans)
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = now
	return float64(s.EndNs - s.StartNs)
}

// call runs fn as a span and returns its duration in nanoseconds.
func (t *tracer) call(parent, request int, name string, fn func()) float64 {
	id := t.begin(parent, request, name)
	fn()
	return t.end(id)
}

// write stores the spans, with their self times, as JSON at path.
func (t *tracer) write(path, workload string, seed uint64) error {
	self := selfTimes(t.spans)
	for i := range t.spans {
		t.spans[i].SelfNs = self[i]
	}
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
