package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval: what ran (name), when, which span caused
// it (parent, 0 for the root) and which request it belongs to (op, 0 for
// phases). The spans of one request share its op identifier.
type span struct {
	id, parent uint32
	op         uint64
	name       uint16
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. The harness records
// them around its own calls into the system; it is used from one
// goroutine (per-operation spans are added from the generator's log once
// a phase is over, so recording them costs the measured window nothing).
type tracer struct {
	epoch time.Time
	spans []span
	names []string
	index map[string]uint16
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), index: map[string]uint16{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) nameID(name string) uint16 {
	id, ok := t.index[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	return id
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent uint32, op uint64, start, end int64) uint32 {
	id := uint32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: t.nameID(name), start: start, end: end})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent uint32) uint32 {
	return t.add(name, parent, 0, t.now(), -1)
}

func (t *tracer) end(id uint32) time.Duration {
	s := &t.spans[id-1]
	s.end = t.now()
	return time.Duration(s.end - s.start)
}

// selfTimes returns, per span name, how many spans there were, their
// total duration and their self time: a span's duration minus the part
// of it that its child spans cover.
type nameTotals struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() map[string]nameTotals {
	children := make(map[uint32][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]nameTotals)
	for _, s := range t.spans {
		tot := out[t.names[s.name]]
		tot.Count++
		dur := s.end - s.start
		tot.TotalMS += float64(dur) / 1e6
		tot.SelfMS += float64(dur-covered(s, children[s.id])) / 1e6
		out[t.names[s.name]] = tot
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total int64
	reach := parent.start
	for _, k := range kids {
		lo, hi := max(k.start, reach), min(k.end, parent.end)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// coverage is the share of the root span's wall time its direct children
// account for.
func (t *tracer) coverage(root uint32) float64 {
	r := t.spans[root-1]
	var kids []span
	for _, s := range t.spans {
		if s.parent == root {
			kids = append(kids, s)
		}
	}
	if r.end <= r.start {
		return 0
	}
	return float64(covered(r, kids)) / float64(r.end-r.start)
}

// write stores the spans, their per-name totals and the run's metrics as
// one JSON document. Spans are rows of
// [id, parent, op, name index, start ns, end ns].
func (t *tracer) write(path string, header map[string]any, metrics map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	head, err := json.Marshal(map[string]any{
		"header": header, "names": t.names, "self_time": t.selfTimes(), "metrics": metrics,
		"span_columns": []string{"id", "parent", "op", "name", "start_ns", "end_ns"},
	})
	if err != nil {
		f.Close()
		return err
	}
	// Splice the span rows into the object by hand: there can be a few
	// hundred thousand of them and this keeps them one per line.
	w.Write(head[:len(head)-1])
	w.WriteString(",\"spans\":[\n")
	for i, s := range t.spans {
		sep := ",\n"
		if i == len(t.spans)-1 {
			sep = "\n"
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d]%s", s.id, s.parent, s.op, s.name, s.start, s.end, sep)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
