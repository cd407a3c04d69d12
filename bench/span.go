package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the bench
// around a call into the layer (or by an HTTP wrapper the bench mounted).
// Times are nanoseconds since the recorder was made. Spans of one request
// share Req, the X-Dod-Request-Id the router minted for it.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1: a root
	Req    string `json:"req,omitempty"`
}

// maxSpans bounds the in-memory trace; a traced run makes a fixed number
// of operations, so this is a backstop, not a sampling policy.
const maxSpans = 400_000

// spanRecorder keeps spans in memory until the run ends. Safe for
// concurrent use: HTTP wrappers record from handler goroutines.
type spanRecorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// add records a finished interval and returns its id (-1 if dropped).
func (r *spanRecorder) add(name string, parent int, req string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Name: name, Parent: parent, Req: req,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// time runs fn inside a span and returns fn's duration.
func (r *spanRecorder) time(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, parent, "", start, end)
	return end.Sub(start)
}

// finish moves the end of an open span (one added with start == end and
// used as a parent since) to now.
func (r *spanRecorder) finish(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id >= 0 {
		r.spans[id].End = time.Since(r.epoch).Nanoseconds()
	}
}

func (r *spanRecorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// linkParents gives every root span the tightest span that contains it as
// its parent, so router -> shard -> peer-support spans nest although each
// was recorded by an independent wrapper. Two spans can nest only if they
// belong to one request: equal ids, or the inner one carries none (the
// router sends read-only shard calls without an id; those link by time
// alone, which is exact while one request is in flight at a time). Parents
// set explicitly at recording time are kept.
func linkParents(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var open []int // spans that started and may still contain later ones
	for _, i := range order {
		s := &spans[i]
		for len(open) > 0 && spans[open[len(open)-1]].End <= s.Start {
			open = open[:len(open)-1]
		}
		if s.Parent < 0 {
			for k := len(open) - 1; k >= 0; k-- {
				p := spans[open[k]]
				if p.End >= s.End && (s.Req == "" || s.Req == p.Req) {
					s.Parent = p.ID
					break
				}
			}
		}
		open = append(open, i)
	}
}

// writeTrace stores a trace as <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span, dropped int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, dropped, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its children cover. Children may overlap one another (a
// fan-out) and may stick out of the parent (clock skew between goroutines);
// the covered part is the union of the child intervals clipped to the
// parent, so self time is never negative and never double-subtracts.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanTotal is the per-name roll-up of a trace.
type spanTotal struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

func rollUp(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += time.Duration(s.End - s.Start)
		t.Self += time.Duration(self[s.ID])
		out[s.Name] = t
	}
	return out
}
