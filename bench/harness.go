package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"apna/internal/population"
)

// now is the benchmark's only wall-clock read: every timing in bench/
// goes through it, so the repo's detwall lint sees one sanctioned site.
func now() time.Time {
	return time.Now() //apna:wallclock
}

// since is time.Since routed through now.
func since(t time.Time) time.Duration { return now().Sub(t) }

// sample is one metric's repetitions, reported as median with
// quartiles.
type sample struct {
	unit   string
	values []float64
}

// quartiles returns q1, median and q3 of vs by linear interpolation
// between order statistics; a single value is its own quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// metrics collects a workload run's named measurements. Adding to an
// existing name appends a repetition.
type metrics map[string]*sample

func (m metrics) add(name, unit string, v float64) {
	s, ok := m[name]
	if !ok {
		s = &sample{unit: unit}
		m[name] = s
	}
	s.values = append(s.values, v)
}

func (m metrics) addAll(name, unit string, vs []float64) {
	for _, v := range vs {
		m.add(name, unit, v)
	}
}

// layerMetric derives one per-layer metric from the recorder's totals:
// the named spans' net time per call, in the metric's unit.
type layerMetric struct {
	name, unit string
	nsPerUnit  float64
	spans      []string
}

func lm(name, unit string, nsPerUnit float64, spans ...string) layerMetric {
	return layerMetric{name, unit, nsPerUnit, spans}
}

func (m metrics) addLayers(rec *recorder, layers ...layerMetric) {
	for _, l := range layers {
		m.add(l.name, l.unit, rec.perOp(l.spans...)/l.nsPerUnit)
	}
}

// outcome is what a workload run hands back to main: the metrics plus
// the operation counts the output checks produced.
type outcome struct {
	m         metrics
	attempted uint64
	failed    uint64
}

// setupFastestOf is how many builds make one set-up repetition.
const setupFastestOf = 4

// setupReps folds a run's build times into the repetitions setup_s is
// the median of, on timedReps' reasoning: a repetition is the fastest of
// setupFastestOf builds. Build i counts towards repetition i mod n, so a
// repetition's builds lie apart in time: the box's slow spells last
// tens of milliseconds, several millisecond-scale builds in a row, and
// the plain median flips between two modes 1.6x apart with the share of
// builds they catch.
func setupReps(builds []float64) []float64 {
	reps := append([]float64(nil), builds[:max(1, len(builds)/setupFastestOf)]...)
	for i, v := range builds {
		reps[i%len(reps)] = min(reps[i%len(reps)], v)
	}
	return reps
}

// measure runs the workload's timed repetitions and records the two
// figures every workload takes from them; it returns the rates.
func (out *outcome) measure(o opts, reps, slices int, run func() (slice, error)) ([]float64, error) {
	rates, allocs, err := timedReps(reps, o.limit, slices, run)
	out.m.addAll("ops_per_s", "1/s", rates)
	out.m.addAll("allocs_per_op", "1/op", allocs)
	return rates, err
}

// peakRSSMiB reports the process's resident-set high-water mark: VmHWM
// on Linux, the runtime's Sys estimate elsewhere.
func peakRSSMiB() float64 { return float64(population.PeakRSS()) / (1 << 20) }

// mallocs reads the cumulative heap-allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// minReps is the fewest timed repetitions a run reports a median over,
// however early the driver's time limit falls.
const minReps = 3

// slice is one fixed amount of timed work: its own rate, how many
// operations it made and how many heap allocations it cost.
type slice struct {
	rate    float64
	ops     uint64
	mallocs uint64
}

// timedReps runs reps repetitions and returns each one's rate and heap
// allocations per operation. A repetition is `slices` back-to-back calls
// of run, each a fixed amount of work, and counts as its fastest slice:
// on a shared machine interference only ever slows a slice down, so the
// fastest of a few is the steadiest estimate of what the code costs, and
// the median over repetitions then sheds the repetitions that were
// disturbed throughout. Garbage is collected between repetitions,
// outside any timed region, so each starts from the same heap.
//
// limit, when not 0, is the driver's --seconds: no repetition starts
// after it has passed, once minReps are in. The repetition counts are
// sized to end before it on the machine they were frozen on.
func timedReps(reps int, limit time.Duration, slices int, run func() (slice, error)) (rates, allocsPerOp []float64, err error) {
	start := now()
	for len(rates) < reps && (len(rates) < minReps || limit == 0 || since(start) < limit) {
		runtime.GC()
		var best float64
		var ops, allocs uint64
		for i := 0; i < slices; i++ {
			s, err := run()
			if err != nil {
				return nil, nil, fmt.Errorf("repetition %d: %w", len(rates), err)
			}
			best = max(best, s.rate)
			ops += s.ops
			allocs += s.mallocs
		}
		rates = append(rates, best)
		allocsPerOp = append(allocsPerOp, float64(allocs)/float64(ops))
	}
	return rates, allocsPerOp, nil
}
