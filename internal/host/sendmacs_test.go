package host

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// A host's send leaves the packet MAC to its simulator's sendMACs,
// which writes it for every frame sent at one instant in one pass at
// the simulator's next settle point. These tests read frames wherever
// the simulator lets anything read them and require a MAC that
// PacketMAC.Verify accepts every time.

// macSink is a node that checks every frame it is handed against the
// sender's PacketMAC.
type macSink struct {
	t      *testing.T
	mac    *wire.PacketMAC
	frames int
	then   func() // run once, on the first frame
}

func (s *macSink) HandleFrame(frame []byte, _ *netsim.Port) {
	if !s.mac.Verify(frame) {
		s.t.Errorf("frame %d reached its receiver without a valid MAC", s.frames)
	}
	s.frames++
	if then := s.then; then != nil {
		s.then = nil
		then()
	}
}

// sink puts a macSink checking a's frames on the duplex's b end.
func (d *duplex) sink(t *testing.T) *macSink {
	s := &macSink{t: t, mac: d.a.mac}
	d.link.B().Attach(s)
	return s
}

// sendRaw sends one control frame from h, failing the test on error.
func sendRaw(t *testing.T, h *Host, payload string) {
	t.Helper()
	dst := wire.Endpoint{AID: 2, EphID: ephid.EphID{9}}
	if err := h.SendRaw(wire.ProtoControl, 0, ephid.EphID{1}, dst, []byte(payload)); err != nil {
		t.Fatal(err)
	}
}

func TestSentFramesMACedBeforeAnyRead(t *testing.T) {
	t.Run("tap sees a handshake and an ack sent from inside an event", func(t *testing.T) {
		d := newDuplex(t)
		idA := d.issue(t, d.a, d.signA, ephid.KindData, 1)
		idB := d.issue(t, d.b, d.signB, ephid.KindData, 2)
		tapped := map[*netsim.Port]int{}
		d.link.AddTap(func(frame []byte, from *netsim.Port) {
			mac := d.a.mac
			if from == d.link.B() {
				mac = d.b.mac
			}
			if !mac.Verify(frame) {
				t.Errorf("tap copied a frame without a valid MAC")
			}
			tapped[from]++
		})
		conn, err := d.a.Dial(idA, &idB.Cert, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d.sim.Run(1000)
		if !conn.Established() || tapped[d.link.A()] != 1 || tapped[d.link.B()] != 1 {
			t.Fatalf("established %v, tapped %d handshakes and %d acks; want one each", conn.Established(), tapped[d.link.A()], tapped[d.link.B()])
		}
	})
	t.Run("duplicating link", func(t *testing.T) {
		d := newDuplex(t)
		s := d.sink(t)
		d.link.SetChaos(netsim.ChaosConfig{DupProb: 1})
		sendRaw(t, d.a, "twice")
		d.sim.Run(10)
		if s.frames != 2 {
			t.Fatalf("%d deliveries, want the frame and its duplicate", s.frames)
		}
	})
	t.Run("timer callback", func(t *testing.T) {
		d := newDuplex(t)
		s := d.sink(t)
		d.sim.Every(time.Millisecond, func() { sendRaw(t, d.a, "tick") })
		d.sim.RunUntil(3 * time.Millisecond)
		if s.frames != 3 {
			t.Fatalf("%d frames from three timer firings", s.frames)
		}
	})
	t.Run("nested step inside a handler", func(t *testing.T) {
		d := newDuplex(t)
		s := d.sink(t)
		s.then = func() {
			sendRaw(t, d.a, "from inside the handler")
			if !d.sim.Step() {
				t.Error("the nested Step found nothing to do")
			}
			if s.frames != 2 {
				t.Errorf("the nested Step delivered %d frames, want the one sent from the handler", s.frames-1)
			}
		}
		sendRaw(t, d.a, "first")
		d.sim.Run(10)
	})
	t.Run("one batch per simulator", func(t *testing.T) {
		d1, d2 := newDuplex(t), newDuplex(t)
		s1, s2 := d1.sink(t), d2.sink(t)
		if d1.a.macs == d2.a.macs || d1.a.macs != d1.b.macs {
			t.Fatal("hosts of one simulator must share its batch, and no other simulator's")
		}
		sendRaw(t, d1.a, "one")
		sendRaw(t, d2.a, "two")
		d2.sim.Run(10)
		d1.sim.Run(10)
		if s1.frames != 1 || s2.frames != 1 {
			t.Fatalf("delivered %d and %d frames, want 1 and 1", s1.frames, s2.frames)
		}
	})
}

// TestSendBatchMatchesPerFrameApply plays one random schedule twice:
// through host stacks, whose MACs sendMACs writes one instant at a time,
// and through a reference sender that builds the same frames and MACs
// each with PacketMAC.Apply as it sends it. Four senders share a sink
// node (a BatchHandler, so it takes runs) that logs every frame it is
// handed and answers some by sending more — at once, from a scheduled
// function, or followed by a nested Step. Two links duplicate and
// jitter, two are tapped, two timers send, and the test mixes bursts
// of sends from outside any event with Run budgets and RunUntil. Both
// plays must log the same frames, byte for byte, at the same times.
func TestSendBatchMatchesPerFrameApply(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		batched, ref := newMACPlay(t, seed, true), newMACPlay(t, seed, false)
		drv := rand.New(rand.NewSource(seed ^ 0x3ac))
		for op := 0; batched.sim.Pending() > 0 || ref.sim.Pending() > 0 || batched.next < macPlayFrames; op++ {
			switch drv.Intn(4) {
			case 0:
				for range 1 + drv.Intn(12) {
					i := drv.Intn(macPlayHosts)
					batched.sendNext(i)
					ref.sendNext(i)
				}
			case 1, 2:
				budget := 1 + drv.Intn(12)
				if got, want := batched.sim.Run(budget), ref.sim.Run(budget); got != want {
					t.Fatalf("seed %d op %d: Run(%d) = %d, reference %d", seed, op, budget, got, want)
				}
			default:
				deadline := ref.sim.Now() + time.Duration(drv.Intn(3))
				batched.sim.RunUntil(deadline)
				ref.sim.RunUntil(deadline)
			}
			if op > 100_000 {
				t.Fatalf("seed %d: the schedule does not drain", seed)
			}
		}
		if len(batched.log) != len(ref.log) || batched.sim.Events() != ref.sim.Events() {
			t.Fatalf("seed %d: %d log entries and %d events batched, %d and %d with Apply",
				seed, len(batched.log), batched.sim.Events(), len(ref.log), ref.sim.Events())
		}
		for i := range batched.log {
			if batched.log[i] != ref.log[i] {
				t.Fatalf("seed %d: entry %d is\n%s batched, and\n%s with Apply", seed, i, batched.log[i], ref.log[i])
			}
		}
		dups := 0
		for _, ev := range batched.faults.Events {
			if ev.Kind == netsim.FaultDup && ev.Hit {
				dups++
			}
		}
		if batched.next != macPlayFrames || batched.nested == 0 || dups == 0 {
			t.Fatalf("seed %d: %d frames, %d nested Steps and %d duplicates: the schedule does not exercise them",
				seed, batched.next, batched.nested, dups)
		}
	}
}

const (
	macPlayHosts  = 4
	macPlayFrames = 1200
)

type macPlay struct {
	t      *testing.T
	seed   int64
	sim    *netsim.Simulator
	links  []*netsim.Link
	faults *netsim.FaultTrace
	send   func(i int, payload []byte)
	log    []string
	next   uint32 // frames sent so far
	depth  int    // nested Steps in progress
	nested int
}

func newMACPlay(t *testing.T, seed int64, batched bool) *macPlay {
	p := &macPlay{t: t, seed: seed, sim: netsim.New(seed)}
	p.faults = p.sim.CaptureFaults()
	node := &macPlayNode{p}
	macs := make([]*wire.PacketMAC, macPlayHosts)
	hosts := make([]*Host, macPlayHosts)
	nonces := make([]uint64, macPlayHosts)
	for i, latency := range []time.Duration{0, 1, 0, 2} {
		l := p.sim.NewLink(fmt.Sprint("h", i), latency, 0)
		if i >= 2 {
			l.SetChaos(netsim.ChaosConfig{Jitter: 2, DupProb: 0.2})
		}
		if i%2 == 1 {
			l.AddTap(func(frame []byte, _ *netsim.Port) { p.note(fmt.Sprint("tap ", i), frame) })
		}
		keys := crypto.DeriveHostASKeys([]byte{byte(i)})
		var err error
		if macs[i], err = wire.NewPacketMAC(keys.MAC[:]); err != nil {
			t.Fatal(err)
		}
		if batched {
			if hosts[i], err = New(Config{AID: ephid.AID(i + 1), Keys: keys}); err != nil {
				t.Fatal(err)
			}
			hosts[i].Attach(l.A())
		}
		l.B().Attach(node)
		p.links = append(p.links, l)
	}
	dst := wire.Endpoint{AID: 9, EphID: ephid.EphID{9}}
	if batched {
		p.send = func(i int, payload []byte) {
			if err := hosts[i].SendRaw(wire.ProtoControl, 0, ephid.EphID{byte(i)}, dst, payload); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		// What Host.send puts on the wire, MACed on the spot.
		p.send = func(i int, payload []byte) {
			nonces[i]++
			hdr := wire.Header{
				NextProto: wire.ProtoControl, HopLimit: wire.DefaultHopLimit,
				PayloadLen: uint16(len(payload)), Nonce: nonces[i],
				SrcAID: ephid.AID(i + 1), DstAID: dst.AID,
				SrcEphID: ephid.EphID{byte(i)}, DstEphID: dst.EphID,
			}
			frame := append(hdr.AppendTo(nil), payload...)
			macs[i].Apply(frame)
			p.links[i].A().Forward(frame)
		}
	}
	for i := 1; i <= 2; i++ {
		p.sim.Every(time.Duration(i), func() {
			p.note(fmt.Sprint("timer ", i), nil)
			p.sendNext(i * 3 % macPlayHosts)
		})
	}
	return p
}

// sendNext has host i send the next frame of the schedule: its number,
// then up to 60 bytes that depend on the number alone, so lengths fall
// around the MAC's block boundaries.
func (p *macPlay) sendNext(i int) {
	if p.next >= macPlayFrames {
		return
	}
	r := rand.New(rand.NewSource(p.seed*7919 + int64(p.next)))
	payload := binary.BigEndian.AppendUint32(nil, p.next)
	for range r.Intn(61) {
		payload = append(payload, byte(r.Intn(256)))
	}
	p.next++
	p.send(i, payload)
}

func (p *macPlay) note(what string, frame []byte) {
	p.log = append(p.log, fmt.Sprintf("%v %s %x", p.sim.Now(), what, frame))
}

// macPlayNode is the sink: a BatchHandler on the far end of every link.
type macPlayNode struct{ p *macPlay }

func (n *macPlayNode) HandleFrames(frames [][]byte, from []*netsim.Port) {
	for i, frame := range frames {
		n.HandleFrame(frame, from[i])
	}
}

func (n *macPlayNode) HandleFrame(frame []byte, _ *netsim.Port) {
	p := n.p
	p.note("recv", frame)
	if len(frame) < wire.HeaderSize+4 {
		p.t.Fatalf("a %d-byte frame", len(frame))
	}
	id := binary.BigEndian.Uint32(frame[wire.HeaderSize:])
	r := rand.New(rand.NewSource(p.seed*1_000_003 + int64(id)))
	for k := r.Intn(4); k > 0; k-- {
		i := r.Intn(macPlayHosts)
		switch r.Intn(4) {
		case 0:
			p.sim.Schedule(time.Duration(r.Intn(3)), func() {
				p.note("scheduled", nil)
				p.sendNext(i)
			})
		case 1:
			if p.depth < 3 {
				p.sendNext(i)
				p.depth++
				p.nested++
				p.sim.Step()
				p.depth--
				continue
			}
			fallthrough
		default:
			p.sendNext(i)
		}
	}
}
