package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark makes into a layer. Spans of a run
// share its run id; times are nanoseconds since the run started.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a run's spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay only a nil check per call.
type spanLog struct {
	run   string
	t0    time.Time
	spans []span
}

func newSpanLog(run string) *spanLog { return &spanLog{run: run, t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{Run: l.run, ID: len(l.spans) + 1, Parent: parent,
		Name: name, Start: time.Since(l.t0).Nanoseconds()})
	return len(l.spans)
}

// end closes the span with the given id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = time.Since(l.t0).Nanoseconds()
}

// write stores the spans as JSON lines in dir/<run>.jsonl.
func (l *spanLog) write(dir string) (err error) {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, l.run+".jsonl"))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("writing spans: %w", cerr)
		}
	}()
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}
