package netsim

import "time"

// Chaos extensions to links. The base Link models a clean channel with
// an independent loss probability; adversarial conformance runs need the
// rest of the paper's threat model's network: variable latency, frame
// duplication, reordering and timed partitions. Every knob draws from
// the simulator's seeded RNG, so a chaotic run is exactly as
// reproducible as a clean one.

// ChaosConfig describes the fault behaviour of a link. The zero value
// is a clean link.
type ChaosConfig struct {
	// Loss is an extra per-frame drop probability in [0,1), applied
	// independently of the link's base loss.
	Loss float64
	// Jitter is the maximum extra one-way latency added to each frame,
	// drawn uniformly from [0, Jitter]. Because each frame draws its
	// own jitter, frames sent close together can arrive reordered.
	Jitter time.Duration
	// DupProb is the probability a frame is delivered twice; the copy
	// takes its own jitter draw.
	DupProb float64
	// ReorderProb is the probability a frame is held back by
	// ReorderDelay on top of its jitter, forcing reordering even
	// against widely spaced traffic.
	ReorderProb  float64
	ReorderDelay time.Duration
	// Partitions are virtual-time windows (since simulation start)
	// during which the link drops every frame — the timed-partition
	// fault. Intervals are checked at send time, not via scheduled
	// events, so a partitioned link never keeps the event queue alive.
	Partitions []Interval
}

// Interval is a half-open window [From, Until) of virtual time.
type Interval struct {
	From, Until time.Duration
}

// Contains reports whether t falls inside the interval.
func (i Interval) Contains(t time.Duration) bool {
	return t >= i.From && t < i.Until
}

// partitioned reports whether the link is inside a partition window.
func (c *ChaosConfig) partitioned(now time.Duration) bool {
	for _, iv := range c.Partitions {
		if iv.Contains(now) {
			return true
		}
	}
	return false
}

// extraDelay draws the chaotic latency additions for one frame copy.
// Draws route through the simulator's fault helpers so capture and
// replay see every decision.
func (c *ChaosConfig) extraDelay(s *Simulator, link string) (d time.Duration) {
	if c.Jitter > 0 {
		d += s.faultJitter(link, c.Jitter)
	}
	if c.ReorderProb > 0 && s.faultChance(link, FaultReorder, c.ReorderProb) {
		d += c.ReorderDelay
	}
	return d
}

// SetChaos installs the chaos configuration on the link. Call it during
// setup; the simulator is single-threaded, so mid-run reconfiguration
// from an event callback is also safe.
func (l *Link) SetChaos(c ChaosConfig) { l.chaos = c }

// Partition schedules a timed partition: the link drops every frame
// sent in [from, until) of virtual time.
func (l *Link) Partition(from, until time.Duration) {
	l.chaos.Partitions = append(l.chaos.Partitions, Interval{From: from, Until: until})
}

// AddTap installs a frame observer invoked for every frame that enters
// the link (after loss and partition drops, before delivery) — the
// capture point an on-path adversary uses. Taps accumulate: each one
// receives its own copy of the frame and the sending port, and may
// retain the slice, so two wiretaps on the same link both capture.
func (l *Link) AddTap(fn func(frame []byte, from *Port)) { l.taps = append(l.taps, fn) }
