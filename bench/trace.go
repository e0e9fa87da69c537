package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the harness from outside
// the program under test. Parent is the index, in the same spanBuf, of the
// span that caused it (-1 = none); spans of one operation share Op.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
}

// spanBuf collects the spans of one goroutine; it is not safe for concurrent
// use, so each client goroutine gets its own and the file lists them all. A
// nil *spanBuf records nothing, which is how the same workload code runs
// untraced.
type spanBuf struct {
	Workload string `json:"workload"`
	Client   int    `json:"client"`
	Spans    []span `json:"spans"`
	epoch    time.Time
}

// tracer hands out span buffers sharing one time origin.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) buf(workload string, client int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{Workload: workload, Client: client, epoch: t.epoch}
	t.bufs = append(t.bufs, b)
	return b
}

// begin opens a span and returns its index (-1 when untraced).
func (b *spanBuf) begin(name string, parent, op int) int {
	if b == nil {
		return -1
	}
	b.Spans = append(b.Spans, span{Name: name, StartNS: int64(time.Since(b.epoch)), Parent: int32(parent), Op: int32(op)})
	return len(b.Spans) - 1
}

// end closes the span opened by begin.
func (b *spanBuf) end(id int) {
	if b == nil {
		return
	}
	b.Spans[id].EndNS = int64(time.Since(b.epoch))
}

// layerMeans returns, per span name, the mean duration in nanoseconds and
// the number of spans, over every buffer of the workload.
func (t *tracer) layerMeans(workload string) (mean map[string]float64, count map[string]int) {
	sum := make(map[string]float64)
	count = make(map[string]int)
	for _, b := range t.bufs {
		if b.Workload != workload {
			continue
		}
		for _, s := range b.Spans {
			sum[s.Name] += float64(s.EndNS - s.StartNS)
			count[s.Name]++
		}
	}
	mean = make(map[string]float64, len(sum))
	for name, s := range sum {
		mean[name] = s / float64(count[name])
	}
	return mean, count
}

// write stores every buffer as one JSON document: {"buffers":[{workload,
// client, spans:[{name,start_ns,end_ns,parent,op}]}]}. Times are nanoseconds
// from the tracer's creation; parent indexes into the same buffer's spans.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Buffers []*spanBuf `json:"buffers"`
	}{t.bufs})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	return nil
}

// layerSet collects the per-layer metrics of a traced run, in the units the
// definition names.
type layerSet struct {
	vals map[string]float64
	errs []string
}

func newLayerSet() *layerSet { return &layerSet{vals: make(map[string]float64)} }

func (ls *layerSet) set(name string, v float64) { ls.vals[name] = v }

// self records a derived self time (a difference of adjacent rung means, in
// the metric's unit). Nested rungs do strictly less work the deeper they
// are, so a clearly negative difference means the rungs did not measure the
// same work, and the traced run fails.
func (ls *layerSet) self(name string, v, top float64) {
	ls.vals[name] = v
	if v < -0.05*top {
		ls.errs = append(ls.errs, fmt.Sprintf("%s = %.3f is negative beyond 5%% of its top rung %.3f: the rungs did not measure the same work", name, v, top))
	}
}

// fromSpans fills every per-layer metric of the workload that has a span of
// the same name with that span's mean duration, converted to the metric's
// time unit.
func (ls *layerSet) fromSpans(workload string, mean map[string]float64) {
	perUnit := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}
	for _, l := range perLayer {
		if l.Workload != workload {
			continue
		}
		if ns, ok := mean[l.Name]; ok {
			ls.vals[l.Name] = ns / perUnit[l.Unit]
		}
	}
}
