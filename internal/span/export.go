package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"edbp/internal/traceevent"
)

// JSONL wire format: one span Record per line. This is both the /trace
// response body and the on-disk interchange format tracereport reads,
// so nodes can ship spans to the coordinator with no shared memory.
//
//	{"trace":"…32 hex…","span":"…16 hex…","parent":"…16 hex…",
//	 "name":"run","node":"w1","start_us":1712345678901234,"dur_us":532.1,
//	 "err":"…","attrs":[{"k":"app","v":"crc32"}]}

type jsonAttr struct {
	K string `json:"k"`
	V string `json:"v"`
}

type jsonRecord struct {
	Trace   string     `json:"trace"`
	Span    string     `json:"span"`
	Parent  string     `json:"parent,omitempty"`
	Name    string     `json:"name"`
	Node    string     `json:"node,omitempty"`
	StartUS int64      `json:"start_us"`
	DurUS   float64    `json:"dur_us"`
	Err     string     `json:"err,omitempty"`
	Attrs   []jsonAttr `json:"attrs,omitempty"`
}

func toJSON(r Record) jsonRecord {
	j := jsonRecord{
		Trace:   r.Trace.String(),
		Span:    r.ID.String(),
		Name:    r.Name,
		Node:    r.Node,
		StartUS: r.Start.UnixMicro(),
		DurUS:   float64(r.Dur) / float64(time.Microsecond),
		Err:     r.Err,
	}
	if !r.Parent.IsZero() {
		j.Parent = r.Parent.String()
	}
	for _, a := range r.Attrs {
		j.Attrs = append(j.Attrs, jsonAttr{K: a.Key, V: a.Value})
	}
	return j
}

func fromJSON(j jsonRecord) (Record, error) {
	var r Record
	t, ok := ParseTraceID(j.Trace)
	if !ok {
		return r, fmt.Errorf("span: bad trace id %q", j.Trace)
	}
	r.Trace = t
	if err := parseSpanID(j.Span, &r.ID); err != nil {
		return r, err
	}
	if j.Parent != "" {
		if err := parseSpanID(j.Parent, &r.Parent); err != nil {
			return r, err
		}
	}
	r.Name = j.Name
	r.Node = j.Node
	r.Start = time.UnixMicro(j.StartUS).UTC()
	// Round, not truncate: 1001ns is written as 1.001µs, which reads
	// back as 1000.9999999999999ns.
	r.Dur = time.Duration(math.Round(j.DurUS * float64(time.Microsecond)))
	r.Err = j.Err
	for _, a := range j.Attrs {
		r.Attrs = append(r.Attrs, Attr{Key: a.K, Value: a.V})
	}
	return r, nil
}

func parseSpanID(s string, dst *SpanID) error {
	if len(s) != 16 {
		return fmt.Errorf("span: bad span id %q", s)
	}
	var id SpanID
	for i := 0; i < 8; i++ {
		hi, lo := unhex(s[2*i]), unhex(s[2*i+1])
		if hi < 0 || lo < 0 {
			return fmt.Errorf("span: bad span id %q", s)
		}
		id[i] = byte(hi<<4 | lo)
	}
	*dst = id
	return nil
}

func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	}
	return -1
}

// WriteJSONL writes one JSON object per span, newline-delimited.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(toJSON(r)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes spans written by WriteJSONL. Blank lines are
// skipped; any malformed line is an error.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var j jsonRecord
		if err := json.Unmarshal(b, &j); err != nil {
			return nil, fmt.Errorf("span: line %d: %w", line, err)
		}
		rec, err := fromJSON(j)
		if err != nil {
			return nil, fmt.Errorf("span: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteChromeTrace renders spans as a Chrome trace_event JSON document
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each node
// becomes a process (pid) named after it; within a node, overlapping
// span trees are spread across threads (tid lanes) greedily so
// concurrent dispatches render side by side instead of clipping.
// Timestamps are microseconds relative to the earliest span start.
func WriteChromeTrace(w io.Writer, recs []Record) error {
	recs = append([]Record(nil), recs...)
	SortRecords(recs)
	tw := traceevent.NewWriter(w)

	var epoch time.Time
	if len(recs) > 0 {
		epoch = recs[0].Start
	}
	us := func(t time.Time) float64 {
		return float64(t.Sub(epoch)) / float64(time.Microsecond)
	}

	// One Chrome "process" per node, in sorted node order.
	nodes := make([]string, 0, 4)
	seen := map[string]bool{}
	for _, r := range recs {
		if !seen[r.Node] {
			seen[r.Node] = true
			nodes = append(nodes, r.Node)
		}
	}
	sort.Strings(nodes)
	pidOf := make(map[string]int, len(nodes))
	for i, n := range nodes {
		pid := i + 1
		pidOf[n] = pid
		name := n
		if name == "" {
			name = "(unattributed)"
		}
		tw.Emit(traceevent.Event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
		tw.Emit(traceevent.Event{Name: "process_sort_index", Ph: "M", PID: pid, Args: map[string]any{"sort_index": pid}})
	}

	// Lane (tid) assignment: per node, spans whose parent lives on the
	// same node inherit the parent's lane; node-local roots grab the
	// first lane whose previous occupant has already ended.
	tid := assignLanes(recs)

	for i, r := range recs {
		args := map[string]any{
			"trace": r.Trace.String(),
			"span":  r.ID.String(),
		}
		if !r.Parent.IsZero() {
			args["parent"] = r.Parent.String()
		}
		if r.Err != "" {
			args["err"] = r.Err
		}
		for _, a := range r.Attrs {
			args[a.Key] = a.Value
		}
		tw.Emit(traceevent.Event{
			Name: r.Name, Cat: "span", Ph: "X",
			TS: us(r.Start), Dur: float64(r.Dur) / float64(time.Microsecond),
			PID: pidOf[r.Node], TID: tid[i], Args: args,
		})
	}
	return tw.Close()
}

// assignLanes returns a tid per record (parallel to recs, which must be
// start-sorted). Lanes are scoped per node.
func assignLanes(recs []Record) []int {
	type key struct {
		node string
		id   SpanID
	}
	onNode := make(map[key]int, len(recs)) // span -> index, within its node
	for i, r := range recs {
		onNode[key{r.Node, r.ID}] = i
	}
	tid := make([]int, len(recs))
	laneEnd := map[string][]time.Time{} // node -> per-lane latest end
	for i, r := range recs {
		if !r.Parent.IsZero() {
			// pi < i: the parent has already been assigned a lane (recs
			// are start-sorted; ties can order a child first, in which
			// case it is laned as a root).
			if pi, ok := onNode[key{r.Node, r.Parent}]; ok && pi < i {
				// Same-node child: nest under the parent's lane.
				tid[i] = tid[pi]
				ends := laneEnd[r.Node]
				if e := r.Start.Add(r.Dur); e.After(ends[tid[i]-1]) {
					ends[tid[i]-1] = e
				}
				continue
			}
		}
		ends := laneEnd[r.Node]
		lane := -1
		for l, end := range ends {
			if !end.After(r.Start) {
				lane = l
				break
			}
		}
		if lane < 0 {
			ends = append(ends, time.Time{})
			lane = len(ends) - 1
		}
		if e := r.Start.Add(r.Dur); e.After(ends[lane]) {
			ends[lane] = e
		}
		laneEnd[r.Node] = ends
		tid[i] = lane + 1
	}
	return tid
}
