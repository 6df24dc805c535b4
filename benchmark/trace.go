package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark's own
// wrappers (never by the program under test). Spans of one operation
// share Req, the id of that operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Shard  int    `json:"shard,omitempty"`
	Start  int64  `json:"start_ns"` // since tracer epoch, at reference speed (speed.go)
	End    int64  `json:"end_ns"`

	// under names the parent by span name when the recorder cannot know
	// its id (a shard leg sees only the request id); link resolves it.
	under string
	// reported marks a child known only as a duration the reply reported
	// (queue, build, enum): link lays these end to end from the parent's
	// start.
	reported bool
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil *tracer records nothing, so the wrappers need no second code path
// for an untraced run.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// newTracer shares its time base with the run's speed log, whose clock
// maps the spans to reference speed.
func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record times fn as a child of req's root span.
func (t *tracer) record(name string, req int64, fn func()) {
	start := t.now()
	fn()
	t.add(span{Parent: req, Req: req, Name: name, Start: start, End: t.now()})
}

// take returns the recorded spans with every parent resolved and every
// time mapped to reference speed by clock, and resets the tracer.
func (t *tracer) take(clock *refClock) []span {
	t.mu.Lock()
	out := t.spans
	t.spans = nil
	t.mu.Unlock()
	link(out)
	for i := range out {
		out[i].Start, out[i].End = clock.ref(out[i].Start), clock.ref(out[i].End)
	}
	return out
}

// link resolves spans recorded with a parent name instead of a parent id,
// and positions reply-reported children inside their parent.
func link(spans []span) {
	type key struct {
		req  int64
		name string
	}
	byName := make(map[key]int, len(spans))
	for i, s := range spans {
		if !s.reported {
			byName[key{s.Req, s.Name}] = i
		}
	}
	cursor := make(map[int64]int64) // parent id -> end of last reported child
	for i := range spans {
		s := &spans[i]
		if s.under == "" {
			continue
		}
		pi, ok := byName[key{s.Req, s.under}]
		if !ok {
			s.Parent = s.Req // parent never recorded: hang off the root
			continue
		}
		p := spans[pi]
		s.Parent = p.ID
		if s.reported {
			at, seen := cursor[p.ID]
			if !seen {
				at = p.Start
			}
			d := s.End - s.Start
			s.Start, s.End = at, at+d
			cursor[p.ID] = s.End
		}
	}
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover (overlapping children are counted
// once; a child's part outside the parent is ignored).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, at := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], at), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// escapes counts child spans that start before or end after their parent.
func escapes(spans []span) int {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	n := 0
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && (s.Start < p.Start || s.End > p.End) {
			n++
		}
	}
	return n
}

func writeSpansJSONL(path string, spans []span) error {
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
	return f.Close()
}
