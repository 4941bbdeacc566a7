package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer: its name, the request it served
// (-1 outside the request path), the span that caused it (-1 for a
// root) and its start and end relative to the tracer's epoch.
type span struct {
	name       string
	id         int64
	parent     int32
	start, end time.Duration
}

// tracer keeps spans in memory; they are written out once the run ends
// so recording never does I/O. A nil *tracer records nothing, which is
// how untraced runs use the same code paths.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, id int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: time.Since(t.t0)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(h int32) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].end = time.Since(t.t0)
}

// add records an already measured interval.
func (t *tracer) add(name string, id int64, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// layerTime is one span name's total duration, self time and count.
type layerTime struct {
	total, self time.Duration
	count       int
}

// childTimes returns, per span, the time its direct children cover;
// children of one span never overlap in this benchmark.
func (t *tracer) childTimes() []time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	return child
}

// layerTimes sums the spans from index from on by name. A span's self
// time is its duration minus the time its direct children cover.
func (t *tracer) layerTimes(from int) map[string]layerTime {
	child := t.childTimes()
	out := map[string]layerTime{}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		lt := out[s.name]
		lt.total += s.end - s.start
		lt.self += s.end - s.start - child[i]
		lt.count++
		out[s.name] = lt
	}
	return out
}

// writeFile dumps every span as tab-separated text: index, name,
// request id, parent index, start ns, end ns, self ns.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	child := t.childTimes()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx\tname\tid\tparent\tstart_ns\tend_ns\tself_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i, s.name, s.id, s.parent,
			s.start.Nanoseconds(), s.end.Nanoseconds(), (s.end - s.start - child[i]).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
