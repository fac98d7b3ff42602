package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	// StartNs and EndNs are host nanoseconds since the log was opened.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	SelfNs  int64 `json:"self_ns"` // filled in by write
}

// spanLog keeps the spans of one benchmark run in memory. Spans nest by
// call order: begin opens a child of the innermost open span.
type spanLog struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // indices into spans of the open spans, innermost last
}

func newSpanLog(run string) *spanLog {
	return &spanLog{run: run, t0: time.Now()}
}

// begin opens a span named name as a child of the innermost open span.
func (l *spanLog) begin(name string) {
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Run: l.run, Name: name,
		StartNs: int64(time.Since(l.t0)),
	})
	l.open = append(l.open, len(l.spans)-1)
}

// end closes the innermost open span.
func (l *spanLog) end() {
	n := len(l.open)
	l.spans[l.open[n-1]].EndNs = int64(time.Since(l.t0))
	l.open = l.open[:n-1]
}

// do runs f inside a span named name.
func (l *spanLog) do(name string, f func()) {
	l.begin(name)
	defer l.end()
	f()
}

// selfTimes returns each span's self time, keyed by span ID: its
// duration minus the part of its interval covered by its children.
// Overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered := int64(0)
		cur := s.StartNs // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.StartNs, cur), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// write stores every span, with its self time, as JSON at path.
func (l *spanLog) write(path string) error {
	if len(l.open) != 0 {
		return fmt.Errorf("span log %s: %d spans still open", l.run, len(l.open))
	}
	self := selfTimes(l.spans)
	for i := range l.spans {
		l.spans[i].SelfNs = self[l.spans[i].ID]
	}
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
