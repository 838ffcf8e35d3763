package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started; Parent is 0 for a root span.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced operations pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; end records it.
type span struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span under parent (0 = root).
func (t *tracer) begin(name string, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{t: t, id: t.next.Add(1), parent: parent, name: name, start: time.Now()}
}

func (s span) end() { s.endBytes(0) }

// endBytes closes the span, recording the bytes it moved.
func (s span) endBytes(n int64) {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, Span{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  int64(s.start.Sub(s.t.t0)),
		End:    int64(end.Sub(s.t.t0)),
		Bytes:  n,
	})
	s.t.mu.Unlock()
}

// all returns a snapshot of the recorded spans.
func (t *tracer) all() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// durations returns the durations of the spans with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.all() {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns, per span name, the summed time its spans spent outside
// their children: a span's duration minus the union of its children's
// intervals clipped to it. Children may overlap (the coordinator's readers
// run concurrently), so the union, not the sum, is subtracted.
func selfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	var curA, curB int64 = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	total += curB - curA
	return time.Duration(total)
}

// overlap returns how much of the named spans' time falls inside the
// window [from, to).
func overlap(spans []Span, name string, from, to int64) time.Duration {
	var total int64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if a, b := max(s.Start, from), min(s.End, to); a < b {
			total += b - a
		}
	}
	return time.Duration(total)
}

// writeJSONL writes every span, one JSON object per line, and a per-name
// summary (count, total and self time) to stderr.
func (t *tracer) writeJSONL(path string) error {
	spans := t.all()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	count := make(map[string]int)
	total := make(map[string]time.Duration)
	for _, s := range spans {
		count[s.Name]++
		total[s.Name] += s.dur()
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(spans), path)
	fmt.Fprintf(os.Stderr, "%-24s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-24s %8d %12.6f %12.6f\n", n, count[n], total[n].Seconds(), self[n].Seconds())
	}
	return nil
}
