package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
// Key is the round, job or cycle the call belongs to.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a top-level span
	Key    int64  `json:"key"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end of
// the run. A nil *tracer records nothing, so untraced code paths call the
// same methods.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, key int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Key: key, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose start and end were taken by the caller.
func (t *tracer) add(name string, parent int32, key int64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Key: key,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	t.mu.Unlock()
	return id
}

// durations returns the duration in ms of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
