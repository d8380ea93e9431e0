package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one host-time interval the benchmark records around its own call
// into a layer. Spans of one request (or pass) share an ID; Parent names the
// enclosing span of the same ID ("" for a root).
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names, one per layer the benchmark calls into.
const (
	spanRequest = "client.request"   // loadgen round trip, from send to body read
	spanHandler = "server.ServeHTTP" // the front door's handler
	spanCompile = "sql.PlanQuery"    // statement compile
	spanPass    = "workload.pass"    // one closed-loop session pass
	spanReplay  = "kernels.replay"   // replay of one pass's (or request's) plans
	spanKernel  = "kernel.op"        // one operator's Execute inside a replay
)

var spanNames = []string{spanRequest, spanHandler, spanCompile, spanPass, spanReplay, spanKernel}

// recorder keeps spans in memory; a nil recorder records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: hostNow()} }

// add records one span timed by start and end; safe on a nil recorder.
func (r *recorder) add(id, name, parent string, start, end time.Time, attr string) {
	if r == nil {
		return
	}
	s := span{ID: id, Name: name, Parent: parent,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), Attr: attr}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span name, the summed self time of its spans
// (duration minus the durations of its direct children: spans of the same
// ID naming it as Parent) and the number of distinct IDs it occurs in.
func selfTimes(spans []span) (map[string]time.Duration, map[string]int) {
	type key struct{ id, name string }
	children := make(map[key]time.Duration)
	seen := make(map[key]bool)
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] += s.dur()
		}
	}
	self, ids := make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		k := key{s.ID, s.Name}
		self[s.Name] += s.dur() - children[k]
		if !seen[k] {
			seen[k] = true
			ids[s.Name]++
		}
	}
	return self, ids
}

// write stores the spans as JSON lines, followed by one line with each
// span name's summed self time in nanoseconds and its number of IDs.
func (r *recorder) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	spans := r.all()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	self, ids := selfTimes(spans)
	if err := enc.Encode(map[string]any{"self_ns": self, "ids": ids}); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
