package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer. Spans stay in memory until the run
// ends; nothing is written while the loop runs.
type Span struct {
	Name   string
	Req    int // request id, -1 for the iteration loop's own track
	Parent int // index of the enclosing span, -1 for none
	Start  int64
	End    int64 // nanoseconds since the tracer's origin
	Flops  float64
}

// Tracer records spans from one goroutine. A nil *Tracer records nothing,
// so the untraced run pays one nil check per call.
type Tracer struct {
	t0    time.Time
	spans []Span
	open  []int
}

func newTracer() *Tracer { return &Tracer{t0: time.Now(), spans: make([]Span, 0, 1<<16)} }

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// Begin opens a span nested in the innermost open one and returns its
// index (-1 on a nil tracer).
func (t *Tracer) Begin(name string, req int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Req: req, Parent: parent, Start: t.now()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// End closes span i, which must be the innermost open span.
func (t *Tracer) End(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// EndWork closes span i and records the model FLOPs it computed.
func (t *Tracer) EndWork(i int, flops float64) {
	if t == nil || i < 0 {
		return
	}
	t.End(i)
	t.spans[i].Flops = flops
}

// Add records a span after the fact, e.g. a request's whole lifetime.
func (t *Tracer) Add(name string, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Name: name, Req: req, Parent: -1,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// durations returns the durations in nanoseconds of every span named name.
func (t *Tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return d
}

// total returns the summed duration (ns) and FLOPs of spans named name.
func (t *Tracer) total(name string) (ns, flops float64) {
	for _, s := range t.spans {
		if s.Name == name {
			ns += float64(s.End - s.Start)
			flops += s.Flops
		}
	}
	return ns, flops
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of one span run one after another on the
// loop's goroutine, so they do not overlap.
func (t *Tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// LayerRow is one line of the per-layer summary.
type LayerRow struct {
	Name   string
	Count  int
	Total  float64 // ms
	Self   float64 // ms
	Layer  string
	MeanUs float64
}

// summary aggregates spans by name, with self time.
func (t *Tracer) summary() []LayerRow {
	self := t.selfTimes()
	idx := map[string]int{}
	var rows []LayerRow
	for i, s := range t.spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(rows)
			idx[s.Name] = j
			rows = append(rows, LayerRow{Name: s.Name, Layer: strings.SplitN(s.Name, ".", 2)[0]})
		}
		rows[j].Count++
		rows[j].Total += float64(s.End-s.Start) / 1e6
		rows[j].Self += float64(self[i]) / 1e6
	}
	for i := range rows {
		rows[i].MeanUs = rows[i].Total * 1e3 / float64(rows[i].Count)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Self > rows[b].Self })
	return rows
}

// writeSummary prints the per-layer table, then the run's notes.
func writeSummary(w io.Writer, rows []LayerRow, notes []string) {
	fmt.Fprintf(w, "%-28s %-10s %8s %12s %12s %10s\n", "span", "layer", "count", "total_ms", "self_ms", "mean_us")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-10s %8d %12.3f %12.3f %10.2f\n", r.Name, r.Layer, r.Count, r.Total, r.Self, r.MeanUs)
	}
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it): the iteration loop on track 0 and one track
// per request.
func (t *Tracer) writeChrome(path, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts,omitempty"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "{\"traceEvents\":[\n")
	meta := []event{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]any{"name": "iteration loop"}},
	}
	seen := map[int]bool{}
	for _, s := range t.spans {
		if s.Req >= 0 && !seen[s.Req] {
			seen[s.Req] = true
			meta = append(meta, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.Req + 1,
				Args: map[string]any{"name": fmt.Sprintf("request %d", s.Req)}})
		}
	}
	first := true
	emit := func(e event) error {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		return enc.Encode(e)
	}
	for _, e := range meta {
		if err := emit(e); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range t.spans {
		e := event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Req + 1}
		if s.Flops > 0 {
			e.Args = map[string]any{"flops": s.Flops}
		}
		if err := emit(e); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
