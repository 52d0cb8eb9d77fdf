package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	name   string
	start  time.Duration // since the log's origin
	end    time.Duration
	parent int // index into spanLog.spans, -1 for a root
}

// spanLog records spans in memory and writes them out when the run ends.
// Every span is opened and closed on the benchmark's main goroutine, so the
// open spans form a stack and the innermost open one is the parent. A nil
// *spanLog records nothing, which is how the untraced passes run.
type spanLog struct {
	origin   time.Time
	workload string
	spans    []span
	open     []int
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{origin: time.Now(), workload: workload}
}

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string) (end func()) {
	if l == nil {
		return func() {}
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{name: name, start: time.Since(l.origin), parent: parent})
	l.open = append(l.open, id)
	return func() {
		l.spans[id].end = time.Since(l.origin)
		l.open = l.open[:len(l.open)-1]
	}
}

// dropLast forgets the most recently opened span, which must be closed.
func (l *spanLog) dropLast() {
	l.spans = l.spans[:len(l.spans)-1]
}

// duration returns the total time of every span with the name.
func (l *spanLog) duration(name string) time.Duration {
	var d time.Duration
	for _, s := range l.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// selfTimes returns, per span name, its duration minus the part its child
// spans cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range l.spans {
		out[s.name] += self[i]
	}
	return out
}

// printSelfTimes lists the spans by self time, longest first.
func (l *spanLog) printSelfTimes(w io.Writer) {
	self := l.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s total %9.3f ms   self %9.3f ms\n", n, l.duration(n).Seconds()*1e3, self[n].Seconds()*1e3)
	}
}

// traceEvent is one Chrome trace-event "complete" event; chrome://tracing
// and Perfetto load a JSON array of them.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON.
func (l *spanLog) write(path string) error {
	events := make([]traceEvent, len(l.spans))
	for i, s := range l.spans {
		parent := ""
		if s.parent >= 0 {
			parent = l.spans[s.parent].name
		}
		events[i] = traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"workload": l.workload, "id": i, "parent_id": s.parent, "parent": parent},
		}
	}
	b, err := json.MarshalIndent(events, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
