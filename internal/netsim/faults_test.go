package netsim

import (
	"fmt"
	"testing"
	"time"
)

// chaoticRun drives traffic over one chaotic link and returns the
// delivery log ("t=<ns> len=<n>" lines). Frame i is 10+i bytes long, so
// the log names every copy the far port received.
func chaoticRun(t *testing.T, sim *Simulator, frames int) []string {
	t.Helper()
	link := sim.NewLink("l0", time.Millisecond, 0.05)
	link.SetChaos(ChaosConfig{
		Loss: 0.1, Jitter: 500 * time.Microsecond,
		DupProb: 0.2, ReorderProb: 0.3, ReorderDelay: 2 * time.Millisecond,
		Partitions: []Interval{{From: 3 * time.Millisecond, Until: 5 * time.Millisecond}},
	})
	var log []string
	link.B().Attach(HandlerFunc(func(frame []byte, from *Port) {
		log = append(log, fmt.Sprintf("t=%d len=%d", sim.Now(), len(frame)))
	}))
	for i := 0; i < frames; i++ {
		i := i
		sim.Schedule(time.Duration(i)*200*time.Microsecond, func() {
			link.A().Send(make([]byte, 10+i))
		})
	}
	sim.Run(1 << 20)
	return log
}

func TestFaultCaptureReplayBitExact(t *testing.T) {
	const frames = 200

	rec := New(42)
	trace := rec.CaptureFaults()
	wantLog := chaoticRun(t, rec, frames)
	if len(trace.Events) == 0 {
		t.Fatal("capture recorded no fault events")
	}
	// Seq must be strictly increasing and At non-decreasing.
	for i := 1; i < len(trace.Events); i++ {
		if trace.Events[i].Seq <= trace.Events[i-1].Seq {
			t.Fatalf("event %d: seq %d not above %d", i, trace.Events[i].Seq, trace.Events[i-1].Seq)
		}
		if trace.Events[i].At < trace.Events[i-1].At {
			t.Fatalf("event %d: time went backwards", i)
		}
	}

	rep := New(42)
	rep.ReplayFaults(trace.Events)
	gotLog := chaoticRun(t, rep, frames)
	st := rep.FaultReplayStats()
	if st.Desynced || st.Mismatched != 0 {
		t.Fatalf("replay desynced: %+v", st)
	}
	if st.Diverged != 0 {
		t.Fatalf("replay of unedited schedule diverged %d times", st.Diverged)
	}
	if st.Leftover != 0 || st.Underrun != 0 {
		t.Fatalf("replay did not consume schedule exactly: %+v", st)
	}
	if st.Consumed != len(trace.Events) {
		t.Fatalf("consumed %d of %d events", st.Consumed, len(trace.Events))
	}
	if len(gotLog) != len(wantLog) {
		t.Fatalf("delivery count differs: %d vs %d", len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("delivery %d differs: %q vs %q", i, gotLog[i], wantLog[i])
		}
	}
}

// A replay under a different seed must still reproduce the recorded
// network behaviour (the schedule is authoritative), reporting the
// disagreements as divergences rather than changing the outcome.
func TestFaultReplayOverridesRNG(t *testing.T) {
	const frames = 200
	rec := New(1)
	trace := rec.CaptureFaults()
	wantLog := chaoticRun(t, rec, frames)

	rep := New(99) // different seed: live draws disagree with the schedule
	rep.ReplayFaults(trace.Events)
	gotLog := chaoticRun(t, rep, frames)
	st := rep.FaultReplayStats()
	if st.Desynced {
		t.Fatalf("replay desynced: %+v", st)
	}
	if st.Diverged == 0 {
		t.Fatal("expected divergences when replaying under a different seed")
	}
	if len(gotLog) != len(wantLog) {
		t.Fatalf("delivery count differs: %d vs %d", len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("delivery %d differs: %q vs %q", i, gotLog[i], wantLog[i])
		}
	}
}

// Replay must keep the simulator's RNG stream aligned for consumers
// outside the chaos layer: each fault site burns its draw even though
// the recorded outcome wins.
func TestFaultReplayPreservesRNGStream(t *testing.T) {
	drain := func(sim *Simulator) []int64 {
		link := sim.NewLink("l0", time.Millisecond, 0.5)
		link.B().Attach(HandlerFunc(func([]byte, *Port) {}))
		var draws []int64
		for i := 0; i < 50; i++ {
			link.A().Send([]byte("x"))
			draws = append(draws, sim.Rand().Int63()) // an unrelated consumer
		}
		return draws
	}

	rec := New(7)
	trace := rec.CaptureFaults()
	want := drain(rec)

	rep := New(7)
	rep.ReplayFaults(trace.Events)
	got := drain(rep)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("external RNG draw %d shifted under replay: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestFaultReplayDesyncFallsBack(t *testing.T) {
	rec := New(3)
	trace := rec.CaptureFaults()
	chaoticRun(t, rec, 50)
	if len(trace.Events) < 2 {
		t.Fatal("need events to corrupt")
	}
	// Corrupt the first event's kind so the replay desyncs immediately.
	bad := append([]FaultEvent(nil), trace.Events...)
	bad[0].Kind = "nonsense"

	rep := New(3)
	rep.ReplayFaults(bad)
	log := chaoticRun(t, rep, 50)
	st := rep.FaultReplayStats()
	if !st.Desynced || st.Mismatched == 0 {
		t.Fatalf("expected desync, got %+v", st)
	}
	if st.FirstError == "" {
		t.Fatal("desync did not record a first error")
	}
	// Fallback draws come from the same seed, so the run still matches
	// the original capture.
	base := New(3)
	wantLog := chaoticRun(t, base, 50)
	if len(log) != len(wantLog) {
		t.Fatalf("fallback run diverged from seeded run: %d vs %d deliveries", len(log), len(wantLog))
	}
}

func TestFaultCaptureCleanLinkRecordsNothing(t *testing.T) {
	sim := New(5)
	trace := sim.CaptureFaults()
	link := sim.NewLink("clean", time.Millisecond, 0)
	link.B().Attach(HandlerFunc(func([]byte, *Port) {}))
	for i := 0; i < 100; i++ {
		link.A().Send([]byte("y"))
	}
	sim.Run(1 << 20)
	if len(trace.Events) != 0 {
		t.Fatalf("clean link recorded %d fault events", len(trace.Events))
	}
}

// TestFaultTraceIsCompleteRecord: the captured trace accounts for every
// frame a chaotic link carried. Each send ends in one partition, loss or
// chaos-loss hit, or reaches the far port, together with one more copy
// per duplication hit; and every copy that arrives drew its own jitter
// and reorder decisions.
func TestFaultTraceIsCompleteRecord(t *testing.T) {
	const frames = 200
	sim := New(42)
	trace := sim.CaptureFaults()
	arrivals := len(chaoticRun(t, sim, frames))

	_, partition := faultCount(trace, FaultPartition)
	_, loss := faultCount(trace, FaultLoss)
	_, chaosLoss := faultCount(trace, FaultChaosLoss)
	_, dup := faultCount(trace, FaultDup)
	reorders, _ := faultCount(trace, FaultReorder)
	jitters, _ := faultCount(trace, FaultJitter)
	if partition == 0 || loss == 0 || chaosLoss == 0 || dup == 0 {
		t.Fatalf("hits: %d partition, %d loss, %d chaos-loss, %d dup; the run must exercise every kind", partition, loss, chaosLoss, dup)
	}
	if want := frames - (loss + chaosLoss + partition) + dup; arrivals != want {
		t.Errorf("%d arrivals; the trace accounts for %d sends - (%d loss + %d chaos-loss + %d partition) + %d dup = %d",
			arrivals, frames, loss, chaosLoss, partition, dup, want)
	}
	if reorders != arrivals || jitters != arrivals {
		t.Errorf("%d reorder and %d jitter draws for %d arrivals: want one of each per copy", reorders, jitters, arrivals)
	}
}
