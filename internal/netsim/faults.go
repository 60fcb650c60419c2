package netsim

import "time"

// Fault capture and replay. Every chaotic decision a link makes — loss
// draws, duplication draws, jitter draws, reorder hold-backs, partition
// drops — funnels through the simulator helpers below. In capture mode
// each decision is appended to a FaultTrace as a seq-stamped FaultEvent,
// producing a complete, replayable fault schedule for the run. In replay
// mode the recorded outcomes are authoritative: each draw site still
// consumes its RNG draw (so the pseudo-random stream stays aligned for
// every other consumer of Rand(), e.g. the adversary package), then
// substitutes the recorded value. A run replayed against its own
// schedule is therefore bit-exact, and a hand-edited schedule bends the
// network without touching any code.

// Fault kinds, one per decision site.
const (
	// FaultPartition records a deterministic partition drop (no RNG
	// draw is consumed).
	FaultPartition = "partition"
	// FaultLoss records the link's base loss draw.
	FaultLoss = "loss"
	// FaultChaosLoss records the chaos-config loss draw.
	FaultChaosLoss = "chaos-loss"
	// FaultDup records the duplication draw.
	FaultDup = "dup"
	// FaultJitter records the per-copy jitter draw; Delay carries the
	// drawn extra latency.
	FaultJitter = "jitter"
	// FaultReorder records the reorder hold-back draw.
	FaultReorder = "reorder"
)

// FaultEvent is one recorded chaos decision. Seq orders events within a
// run (1-based); At is the virtual time of the decision in nanoseconds.
// Chance kinds use Hit; FaultJitter uses Delay (nanoseconds).
type FaultEvent struct {
	Seq   uint64 `json:"seq"`
	At    int64  `json:"at_ns"`
	Link  string `json:"link"`
	Kind  string `json:"kind"`
	Hit   bool   `json:"hit,omitempty"`
	Delay int64  `json:"delay_ns,omitempty"`
}

// FaultTrace accumulates the fault schedule of a capturing run. The
// slice is live: it grows as the simulation executes.
type FaultTrace struct {
	Events []FaultEvent
}

// ReplayStats reports how a replayed schedule aligned with the run.
//
//   - Consumed counts schedule events matched to decision sites.
//   - Diverged counts sites where the fresh RNG draw disagreed with the
//     recorded outcome (expected to be zero when replaying an unedited
//     schedule with the original seed; nonzero means the schedule was
//     edited, and the recorded value won).
//   - Mismatched counts sites whose link/kind did not match the next
//     schedule event; the first mismatch desynchronizes replay and all
//     later sites fall back to live draws.
//   - Underrun counts sites reached after the schedule was exhausted.
//   - Leftover is how many schedule events were never consumed.
type ReplayStats struct {
	Consumed int
	//apna:testonly TestFaultCaptureReplayBitExact and TestFaultReplayOverridesRNG check through it whether a recorded outcome overrode a live draw
	Diverged   int
	Mismatched int
	Underrun   int
	Leftover   int
	Desynced   bool
	FirstError string
}

type faultReplay struct {
	events []FaultEvent
	next   int
	stats  ReplayStats
}

// CaptureFaults starts recording every chaos decision into the returned
// trace, replacing any previous capture. Replay mode, if active, is
// cleared: a simulator either records or replays, never both.
func (s *Simulator) CaptureFaults() *FaultTrace {
	t := &FaultTrace{}
	s.faultCap = t
	s.faultReplay = nil
	return t
}

// ReplayFaults installs a recorded fault schedule: subsequent chaos
// decisions consume their RNG draws (keeping the stream aligned for
// other Rand() consumers) but take the recorded outcomes. Capture mode,
// if active, is cleared.
func (s *Simulator) ReplayFaults(events []FaultEvent) {
	s.faultReplay = &faultReplay{events: events}
	s.faultCap = nil
}

// FaultReplayStats reports the alignment of the active (or finished)
// replay. The zero value is returned when ReplayFaults was never called.
func (s *Simulator) FaultReplayStats() ReplayStats {
	r := s.faultReplay
	if r == nil {
		return ReplayStats{}
	}
	st := r.stats
	st.Leftover = len(r.events) - r.next
	return st
}

// faultChance draws one chance decision (probability p) for a link
// fault, recording or replaying it as configured. The RNG draw always
// happens first so capture, replay and plain runs consume identical
// streams.
func (s *Simulator) faultChance(link, kind string, p float64) bool {
	hit := s.rng.Float64() < p
	if r := s.faultReplay; r != nil {
		rec, ok := r.take(link, kind)
		if !ok {
			return hit
		}
		if rec.Hit != hit {
			r.stats.Diverged++
		}
		return rec.Hit
	}
	s.record(FaultEvent{Link: link, Kind: kind, Hit: hit})
	return hit
}

// faultJitter draws the uniform [0, max] jitter for one frame copy,
// recording or replaying the drawn delay.
func (s *Simulator) faultJitter(link string, max time.Duration) time.Duration {
	d := time.Duration(s.rng.Int63n(int64(max) + 1))
	if r := s.faultReplay; r != nil {
		rec, ok := r.take(link, FaultJitter)
		if !ok {
			return d
		}
		if rec.Delay != int64(d) {
			r.stats.Diverged++
		}
		return time.Duration(rec.Delay)
	}
	s.record(FaultEvent{Link: link, Kind: FaultJitter, Delay: int64(d)})
	return d
}

// faultMark records a deterministic (draw-free) fault decision — the
// partition drop. In replay mode the matching schedule event is
// consumed so alignment checking covers partitions too.
func (s *Simulator) faultMark(link, kind string) {
	if r := s.faultReplay; r != nil {
		r.take(link, kind)
		return
	}
	s.record(FaultEvent{Link: link, Kind: kind, Hit: true})
}

// record appends ev to the capture trace, if capturing.
func (s *Simulator) record(ev FaultEvent) {
	if s.faultCap == nil {
		return
	}
	s.faultSeq++
	ev.Seq = s.faultSeq
	ev.At = int64(s.now)
	s.faultCap.Events = append(s.faultCap.Events, ev) //apna:alloc-ok
}

// take consumes the next schedule event, verifying it matches the
// decision site. A mismatch desynchronizes the replay permanently:
// trusting later events after an alignment failure would corrupt the
// run worse than falling back to live draws.
func (r *faultReplay) take(link, kind string) (FaultEvent, bool) {
	if r.stats.Desynced {
		return FaultEvent{}, false
	}
	if r.next >= len(r.events) {
		r.stats.Underrun++
		return FaultEvent{}, false
	}
	ev := r.events[r.next]
	if ev.Link != link || ev.Kind != kind { //apna:coldpath
		r.stats.Mismatched++
		r.stats.Desynced = true
		if r.stats.FirstError == "" {
			r.stats.FirstError = "replay desync at seq " + itoa(ev.Seq) +
				": schedule has " + ev.Link + "/" + ev.Kind +
				", run reached " + link + "/" + kind
		}
		return FaultEvent{}, false
	}
	r.next++
	r.stats.Consumed++
	return ev, true
}

// itoa formats a uint64 without pulling strconv into the hot path
// imports (faults only fire on chaotic links, but keep it cheap).
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
