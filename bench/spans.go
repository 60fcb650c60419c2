package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. Spans are recorded only here in bench/,
// around the calls into each layer; the program itself carries no
// tracing. Times are nanoseconds since the recorder was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// Ops is how many calls into the layer the span covers (a batch
	// child loops 64 frames through one public function).
	Ops int `json:"ops"`
}

// layerTotal accumulates one span name's time and call counts over the
// whole traced pass, including spans dropped from the file by keep.
type layerTotal struct {
	ns    int64
	spans int64
	// perOp is each span's time per call in nanoseconds, less the
	// clock reads' share.
	perOp []float64
}

// recorder keeps spans in memory and writes them out once, at the end
// of the run. A nil recorder records nothing and reads no clock, which
// is how the same driver code runs untraced.
type recorder struct {
	epoch  time.Time
	spans  []span
	keep   int // len(spans) stops growing here; totals cover all
	nextID int
	totals map[string]*layerTotal
	// clockNs is what an empty span measures — the clock reads' own
	// share of every span — subtracted when totals become per-call
	// figures.
	clockNs float64
}

// maxKeptSpans bounds the trace file; totals still cover every span.
const maxKeptSpans = 40_000

func newRecorder() *recorder {
	r := &recorder{epoch: now(), keep: maxKeptSpans, totals: map[string]*layerTotal{}}
	// Calibrate on empty spans, then forget them.
	for i := 0; i < 4096; i++ {
		r.end(r.begin(0, 0, "calibrate"), 0)
	}
	r.clockNs = float64(r.totals["calibrate"].ns) / float64(r.totals["calibrate"].spans)
	r.spans, r.nextID = r.spans[:0], 0
	delete(r.totals, "calibrate")
	return r
}

// retain lets the file take n more spans from here on.
func (r *recorder) retain(n int) { r.keep = len(r.spans) + n }

// open is a span in progress.
type open struct {
	id, parent int
	request    uint64
	name       string
	start      time.Time
}

func (r *recorder) begin(parent int, request uint64, name string) open {
	if r == nil {
		return open{}
	}
	r.nextID++
	return open{id: r.nextID, parent: parent, request: request, name: name, start: now()}
}

func (r *recorder) end(o open, ops int) {
	if r == nil {
		return
	}
	end := now()
	t := r.totals[o.name]
	if t == nil {
		t = &layerTotal{}
		r.totals[o.name] = t
	}
	ns := end.Sub(o.start).Nanoseconds()
	t.ns += ns
	t.spans++
	if ops > 0 {
		t.perOp = append(t.perOp, max(0, float64(ns)-r.clockNs)/float64(ops))
	}
	if len(r.spans) < r.keep {
		r.spans = append(r.spans, span{
			ID: o.id, Parent: o.parent, Request: o.request, Name: o.name,
			Start: o.start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
			Ops: ops,
		})
	}
}

// layer times fn as a child span covering ops calls.
func (r *recorder) layer(parent int, request uint64, name string, ops int, fn func()) {
	o := r.begin(parent, request, name)
	fn()
	r.end(o, ops)
}

// calls times total calls of fn in spans of batchSize calls each.
func (r *recorder) calls(name string, total int, fn func(i int)) {
	for i := 0; i < total; i += batchSize {
		n := min(batchSize, total-i)
		r.layer(0, uint64(i/batchSize), name, n, func() {
			for j := i; j < i+n; j++ {
				fn(j)
			}
		})
	}
}

// net is the summed time of the named spans in nanoseconds, less their
// own clock reads.
func (r *recorder) net(names ...string) float64 {
	var ns float64
	for _, name := range names {
		if t := r.totals[name]; t != nil {
			ns += max(0, float64(t.ns)-float64(t.spans)*r.clockNs)
		}
	}
	return ns
}

// perOp is the named spans' time per call in nanoseconds: the median
// over spans, so that a span the scheduler interrupted does not set the
// figure. 0 when none ran.
func (r *recorder) perOp(names ...string) float64 {
	var all []float64
	for _, name := range names {
		if t := r.totals[name]; t != nil {
			all = append(all, t.perOp...)
		}
	}
	if len(all) == 0 {
		return 0
	}
	_, med, _ := quartiles(all)
	return med
}

// write stores the retained spans as JSON lines. A span is recorded when
// it ends, after its children, so where the file's limit fell inside a
// batch the children were kept and the parent was not; those are left
// out, and every parent a line names is in the file.
func (r *recorder) write(path string) error {
	kept := make(map[int]bool, len(r.spans))
	for i := range r.spans {
		kept[r.spans[i].ID] = true
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if p := r.spans[i].Parent; p != 0 && !kept[p] {
			continue
		}
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace encode: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace close: %w", err)
	}
	return nil
}
