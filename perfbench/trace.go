package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Times are nanoseconds since the tracer's origin.
// ChildNs is the time the span spent inside calls it delegated to the next
// layer down and timed in aggregate (a ds call's persist.Policy calls), so
// the span's self time is End-Start-ChildNs.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	ChildNs int64  `json:"child_ns,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of one measured phase in memory until the run
// ends. It is safe for concurrent use (the sweep runs jobs on two workers).
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id, charging childNs of aggregated child-call time to it.
func (t *tracer) end(id int, childNs int64) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].ChildNs = childNs
	t.mu.Unlock()
}

// each calls fn for every closed span; the tracer must be quiescent.
func (t *tracer) each(fn func(s *span)) {
	for i := range t.spans {
		fn(&t.spans[i])
	}
}

// writeTrace writes the host descriptor and the spans as JSON lines: the
// first line is {"host": ...}, every further line one span.
func writeTrace(path string, h hostInfo, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"host": h})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
