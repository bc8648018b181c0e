package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary: a call the benchmark
// makes into the program under test. Parent is the index of the span that
// caused it (-1 for a root); Op ties together the spans of one operation
// (one shadow step, one request, one collective).
type span struct {
	Name       string
	Start, End int64 // ns since the recorder started
	Parent     int
	Op         int
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 400_000

// recorder keeps spans in memory and writes them out when the benchmark
// ends. It is used from one goroutine: concurrent passes (the serving
// load) stamp their own timestamps and add finished spans afterwards.
type recorder struct {
	t0      time.Time
	spans   []span
	on      bool
	dropped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), on: true} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its index; -1 when recording is off or
// the trace is full.
func (r *recorder) begin(name string, parent, op int) int {
	if !r.on {
		return -1
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: r.now(), End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].End = r.now()
	}
}

// add records an already finished span from wall-clock instants.
func (r *recorder) add(name string, start, end time.Time, parent, op int) int {
	if !r.on {
		return -1
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{
		Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Parent: parent, Op: op,
	})
	return len(r.spans) - 1
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap each other; the covered
// part is the union of their intervals clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// totals sums, per span name, the span count, total duration and self time.
type nameTotal struct {
	N         int
	Dur, Self int64
}

func (r *recorder) totals() map[string]nameTotal {
	self := selfTimes(r.spans)
	out := map[string]nameTotal{}
	for i, s := range r.spans {
		if s.End < s.Start {
			continue
		}
		t := out[s.Name]
		t.N++
		t.Dur += s.End - s.Start
		t.Self += self[i]
		out[s.Name] = t
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Spans of one operation share a track.
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for i, s := range r.spans {
		if s.End < s.Start {
			continue
		}
		name, _ := json.Marshal(s.Name)
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n{\"name\":%s,\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}",
			name, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Op%64+1, i, s.Parent, s.Op)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
