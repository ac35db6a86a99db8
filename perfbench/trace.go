package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Req ties together the spans of one
// service request (0 outside the serve phase).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps finished spans in memory until the run writes them out.
// A nil *tracer records nothing, which is how the end-to-end runs keep
// tracing off.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; finish records it.
type open struct {
	t *tracer
	s span
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(name string, parent, req int64) *open {
	if t == nil {
		return nil
	}
	return &open{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: time.Since(t.t0)}}
}

// newRequest returns a fresh request id; 0 when tracing is off.
func (t *tracer) newRequest() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// id is the span's id for its children; 0 on a nil span.
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) finish() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.t0)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once, and child time outside the parent's interval is ignored).
func selfTimes(spans []span) map[int64]time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
		var covered, end time.Duration
		end = s.Start
		for _, c := range ivs {
			a, b := max(c.a, end), min(c.b, s.End)
			if b > a {
				covered += b - a
				end = b
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName collects the self times, in milliseconds, of the spans
// with the given name.
func selfByName(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(self[s.ID]))
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
