package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the traced replay.
// Start and End are offsets from the recorder's epoch; Parent indexes
// the enclosing span (-1 for a request root); Req groups the spans of
// one replayed request or hop.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
}

// recorder keeps spans in memory; they are written out once, at the end.
// It is used from one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].End = time.Since(r.epoch) }

// do records fn as one span.
func (r *recorder) do(name string, parent, req int, fn func()) {
	i := r.begin(name, parent, req)
	fn()
	r.end(i)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover (overlapping children count
// once; a child sticking out of its parent counts only inside it).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var curA, curB time.Duration
		for j, v := range ivs {
			switch {
			case j == 0:
				curA, curB = v.a, v.b
			case v.a <= curB:
				if v.b > curB {
					curB = v.b
				}
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// writeSpans stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
