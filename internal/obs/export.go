package obs

import (
	"encoding/json"
	"sort"
	"strconv"
)

// chromeEvent is one Chrome trace_event entry. We emit only "X"
// (complete) events — begin/end pairs folded into one record — plus "M"
// metadata events naming the process, which is the subset every
// trace_event consumer (chrome://tracing, Perfetto, speedscope)
// understands.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"` // microseconds
	Dur  int64             `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeDoc is the JSON-object form of the trace_event format.
type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace renders a span forest as Chrome trace_event JSON, loadable
// in chrome://tracing and Perfetto. Spans become complete ("X") events;
// the span's trace identity and attributes land in args. Thread IDs are
// chosen so concurrent subtrees get their own rows: a "cluster" span
// with a "worker" attribute opens a lane per enumeration worker, and
// everything else inherits its parent's lane — within one lane spans
// are sequential, so the viewer's time-based nesting reconstructs the
// tree.
func ChromeTrace(nodes []*SpanNode) ([]byte, error) {
	doc := chromeDoc{
		TraceEvents: chromeEvents(nodes),
		DisplayUnit: "ms",
	}
	return json.MarshalIndent(doc, "", " ")
}

func chromeEvents(nodes []*SpanNode) []chromeEvent {
	events := []chromeEvent{{
		Name: "process_name",
		Ph:   "M",
		PID:  1,
		Args: map[string]string{"name": "ceci"},
	}}
	var walk func(n *SpanNode, tid int64)
	walk = func(n *SpanNode, tid int64) {
		tid = laneFor(n, tid)
		args := make(map[string]string, len(n.Attrs)+3)
		for k, v := range n.Attrs {
			args[k] = v
		}
		if n.SpanID != "" {
			args["trace_id"] = n.TraceID
			args["span_id"] = n.SpanID
			if n.ParentSpanID != "" {
				args["parent_span_id"] = n.ParentSpanID
			}
		}
		dur := n.DurUS
		if dur <= 0 {
			dur = 1 // zero-duration X events vanish in the viewer
		}
		events = append(events, chromeEvent{
			Name: n.Name, Ph: "X", TS: n.StartUS, Dur: dur, PID: 1, TID: tid, Args: args,
		})
		for _, c := range n.Children {
			walk(c, tid)
		}
	}
	for i, n := range nodes {
		walk(n, int64(i))
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return events
}

// laneFor assigns the Chrome thread lane: per-worker cluster spans get
// their own lanes so concurrent siblings do not overlap on one row;
// everything else stays on the parent's lane.
func laneFor(n *SpanNode, inherited int64) int64 {
	if w, ok := n.Attrs["worker"]; ok {
		if id, err := strconv.ParseInt(w, 10, 64); err == nil {
			return inherited + id + 1
		}
	}
	return inherited
}
