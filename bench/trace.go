package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one batch share its id;
// parent is the index of the span that caused this one (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int
	batch      int
}

// tracer records spans in memory and writes them out when the benchmark
// ends. A nil tracer records nothing, which is how the untraced side of
// the overhead comparison runs the same code. It is not safe for
// concurrent use: the ladder replays on one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, to be passed to end and as
// the parent of the spans beneath it.
func (t *tracer) begin(name string, parent, batch int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, batch: batch})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
}

// write stores the spans as Chrome trace-event JSON (load the file in
// chrome://tracing or ui.perfetto.dev). Each rung gets its own row.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	rows := make(map[string]int) // top-level span name -> tid
	row := func(i int) int {
		for t.spans[i].parent >= 0 {
			i = t.spans[i].parent
		}
		name := t.spans[i].name
		if _, ok := rows[name]; !ok {
			rows[name] = len(rows) + 1
		}
		return rows[name]
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"batch":%d}}`,
			s.name, row(i), float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.batch)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the duration of every span called name, in order.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// sum is the total duration of the spans called name.
func (t *tracer) sum(name string) time.Duration {
	var d time.Duration
	for _, s := range t.durations(name) {
		d += s
	}
	return d
}
