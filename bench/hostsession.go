package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"apna"
	"apna/internal/border"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/session"
	"apna/internal/wire"
)

// hostSpec fixes a host-side workload: two ASes of hosts over one
// inter-AS link on the simulator. A slice builds a fresh internet and
// opens Conns connections pair-wise; with Waves set it then sends that
// many waves of one message on each host pair's newest connection.
// host_connect times the opening; host_send times the waves, and the
// one connection per pair it sends on is part of its set-up. They are
// two workloads so that the paper's connection-establishment figure and
// its data-path figure each carry their own bound.
type hostSpec struct {
	HostsPerAS int `json:"hosts_per_as"`
	Conns      int `json:"conns"`
	Waves      int `json:"waves"`
	MsgBytes   int `json:"msg_bytes"`
	// Slices of build-open(-send) make one repetition and a run has Reps
	// (see timedReps).
	Slices int `json:"slices"`
	Reps   int `json:"reps"`
}

var hostSpecs = map[string]hostSpec{
	"host_connect": {HostsPerAS: 32, Conns: 128, Slices: 10, Reps: 15},
	"host_send":    {HostsPerAS: 32, Conns: 32, Waves: 250, MsgBytes: 1024, Slices: 12, Reps: 8},
}

func (s hostSpec) scaled(div int) hostSpec {
	if div > 1 {
		s.Conns = max(s.HostsPerAS, s.Conns/div)
		s.Waves = min(s.Waves, max(2, s.Waves/div))
		s.Slices, s.Reps = 1, 1
	}
	return s
}

const (
	hostASA, hostASB = apna.AID(1), apna.AID(2)
	hostLinkLatency  = time.Millisecond
	hostLifetime     = 3600
)

// hostNet is one built internet with its hosts in pair order.
type hostNet struct {
	in   *apna.Internet
	a, b []*apna.Host
}

func buildHostNet(spec hostSpec, seed int64) (*hostNet, error) {
	names := func(prefix string) []string {
		out := make([]string, spec.HostsPerAS)
		for i := range out {
			out[i] = fmt.Sprintf("%s%02d", prefix, i)
		}
		return out
	}
	na, nb := names("a"), names("b")
	in, err := apna.New(seed,
		apna.WithAS(hostASA, na...), apna.WithAS(hostASB, nb...),
		apna.WithLink(hostASA, hostASB, hostLinkLatency))
	if err != nil {
		return nil, fmt.Errorf("internet: %w", err)
	}
	hn := &hostNet{in: in}
	for i := range na {
		hn.a = append(hn.a, in.Host(na[i]))
		hn.b = append(hn.b, in.Host(nb[i]))
	}
	return hn, nil
}

// hostPhase is what one phase of a slice measured.
type hostPhase struct {
	wall        time.Duration
	ops, failed uint64
	simEvents   uint64  // simulator events the phase executed
	connectVRTT float64 // open only
}

// open makes spec.Conns connections pair-wise — per connection, one
// EphID issuance round trip on each side and the handshake — and returns
// each pair's newest. rec may be nil.
func (hn *hostNet) open(spec hostSpec, rec *recorder) ([]*apna.Conn, hostPhase, error) {
	var r hostPhase
	pairs := len(hn.a)
	conns := make([]*apna.Conn, pairs)
	t0 := now()
	for i := 0; i < spec.Conns; i++ {
		a, b := hn.a[i%pairs], hn.b[i%pairs]
		req := uint64(i)
		root := rec.begin(0, req, "host.session_open")
		var idA, idB *apna.OwnedEphID
		var errA, errB, err error
		rec.layer(root.id, req, "host.new_ephid", 2, func() {
			idA, errA = a.NewEphID(apna.KindData, hostLifetime)
			idB, errB = b.NewEphID(apna.KindData, hostLifetime)
		})
		if errA != nil || errB != nil {
			return nil, r, fmt.Errorf("issuance %d: %w", i, errors.Join(errA, errB))
		}
		v0 := hn.in.Sim.Now()
		rec.layer(root.id, req, "host.connect", 1, func() {
			conns[i%pairs], err = a.Connect(idA, &idB.Cert, nil)
		})
		if i == 0 && err == nil {
			// The paper's establishment cost in round trips: virtual time
			// of the handshake over that of an echo between the same hosts.
			connect := hn.in.Sim.Now() - v0
			v0 = hn.in.Sim.Now()
			if ok, err := a.Ping(apna.Endpoint{AID: hostASB, EphID: idB.Cert.EphID}, 1); err != nil || !ok {
				return nil, r, fmt.Errorf("ping: replied %v: %w", ok, err)
			}
			r.connectVRTT = float64(connect) / float64(hn.in.Sim.Now()-v0)
		}
		rec.end(root, 1)
		r.ops++
		if err != nil {
			r.failed++
			conns[i%pairs] = nil
		}
	}
	r.wall = since(t0)
	return conns, r, nil
}

// send runs spec.Waves waves: each sends one message per pair and drains
// the simulator, and each message must reach the peer's inbox byte for
// byte. rec may be nil.
func (hn *hostNet) send(spec hostSpec, conns []*apna.Conn, seed int64, rec *recorder) (hostPhase, error) {
	var r hostPhase
	rng := rand.New(rand.NewSource(seed ^ 0x40577))
	msgs := make([][]byte, len(conns))
	for i, c := range conns {
		if c == nil {
			return r, fmt.Errorf("pair %d has no connection to send on", i)
		}
		msgs[i] = make([]byte, spec.MsgBytes)
		rng.Read(msgs[i])
		hn.b[i].Stack.Inbox() // nothing from the handshake may be mistaken for a wave's message
	}
	ops := make([]apna.Op, len(conns))
	ev0 := hn.in.Sim.Events()
	t0 := now()
	for w := 0; w < spec.Waves; w++ {
		req := uint64(w)
		root := rec.begin(0, req, "host.wave")
		rec.layer(root.id, req, "host.send", len(conns), func() {
			for i, c := range conns {
				binary.BigEndian.PutUint64(msgs[i], uint64(w))
				ops[i] = hn.a[i].SendAsync(c, msgs[i])
			}
		})
		var err error
		rec.layer(root.id, req, "netsim.run", 1, func() { err = hn.in.AwaitAll(ops...) })
		rec.end(root, len(conns))
		if err != nil {
			return r, fmt.Errorf("wave %d: %w", w, err)
		}
		for i := range conns {
			r.ops++
			in := hn.b[i].Stack.Inbox()
			if len(in) != 1 || !bytes.Equal(in[0].Payload, msgs[i]) {
				r.failed++
			}
		}
	}
	r.wall = since(t0)
	r.simEvents = hn.in.Sim.Events() - ev0
	return r, nil
}

// runHost measures host_connect or host_send, whichever spec describes.
func runHost(spec hostSpec, o opts) (*outcome, error) {
	out := &outcome{m: metrics{}}
	sends := spec.Waves > 0
	// rep is one slice: the timed phase's measurements and the heap
	// allocations it made.
	rep := func(rec *recorder) (hostPhase, uint64, error) {
		t0 := now()
		hn, err := buildHostNet(spec, o.seed)
		if err != nil {
			return hostPhase{}, 0, err
		}
		var (
			conns []*apna.Conn
			r     hostPhase
			m0    uint64
		)
		if sends {
			if conns, _, err = hn.open(spec, nil); err != nil {
				return r, 0, err
			}
			out.m.add("setup_s", "s", since(t0).Seconds())
			m0 = mallocs()
			r, err = hn.send(spec, conns, o.seed, rec)
		} else {
			out.m.add("setup_s", "s", since(t0).Seconds())
			m0 = mallocs()
			_, r, err = hn.open(spec, rec)
		}
		out.attempted += r.ops
		out.failed += r.failed
		return r, mallocs() - m0, err
	}
	if _, _, err := rep(nil); err != nil { // warm-up; its set-up sample counts, its rate does not
		return nil, err
	}
	if !o.trace {
		var vrtt float64
		_, err := out.measure(o, spec.Reps, spec.Slices, func() (slice, error) {
			r, m, err := rep(nil)
			vrtt = r.connectVRTT
			return slice{rate: float64(r.ops) / r.wall.Seconds(), ops: r.ops, mallocs: m}, err
		})
		if !sends {
			out.m.add("connect_vrtt", "RTT", vrtt)
		}
		return out, err
	}

	// The traced pass times a whole repetition's operations on one
	// internet, once without and once with spans.
	if sends {
		spec.Waves *= spec.Slices
	} else {
		spec.Conns *= spec.Slices
	}
	runtime.GC()
	plain, _, err := rep(nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, _, err := rep(rec)
	if err != nil {
		return nil, err
	}
	out.m.add("trace.overhead_frac", "ratio", 1-plain.wall.Seconds()/traced.wall.Seconds())
	if err := sharedCryptoLayers(rec, out.m); err != nil {
		return nil, err
	}
	if !sends {
		if err := connectLayers(rec); err != nil {
			return nil, err
		}
		out.m.addLayers(rec,
			lm("host.new_ephid_us", "us", 1e3, "host.new_ephid"),
			lm("host.connect_us", "us", 1e3, "host.connect"),
			lm("crypto.dh_shared_us", "us", 1e3, "crypto.dh_shared"),
			lm("session.new_us", "us", 1e3, "session.new"),
		)
		return out, rec.write(o.tracePath())
	}
	out.m.add("netsim.events_per_msg", "count", float64(plain.simEvents)/float64(plain.ops))
	out.m.add("netsim.wall_ns_per_event", "ns", rec.net("netsim.run")/float64(traced.simEvents))
	sealAllocs, err := sendLayers(rec, spec, o.seed)
	if err != nil {
		return nil, err
	}
	out.m.addLayers(rec,
		lm("host.send_us", "us", 1e3, "host.send"),
		lm("session.seal_ns_1k", "ns", 1, "session.seal_1k"),
		lm("session.open_ns_1k", "ns", 1, "session.open_1k"),
		lm("wire.mac_apply_ns", "ns", 1, "wire.mac_apply"),
		lm("wire.mac_verify_ns", "ns", 1, "wire.mac_verify"),
		lm("wire.packet_append_ns", "ns", 1, "wire.packet_append"),
		lm("wire.header_decode_ns", "ns", 1, "wire.header_decode"),
		lm("border.egress_verify_ns", "ns", 1, "border.egress_verify"),
		lm("border.ingress_verify_ns", "ns", 1, "border.ingress_verify"),
	)
	out.m.add("session.seal_allocs", "1/op", sealAllocs)
	return out, rec.write(o.tracePath())
}

// sessionKeys is the two key pairs a session is agreed between.
func sessionKeys() (ka, kb *crypto.KeyPair, err error) {
	ka, errA := crypto.GenerateKeyPair()
	kb, errB := crypto.GenerateKeyPair()
	if err := errors.Join(errA, errB); err != nil {
		return nil, nil, fmt.Errorf("dh keys: %w", err)
	}
	return ka, kb, nil
}

var sessionEphIDs = [2]ephid.EphID{{0: 1}, {0: 2}}

// connectLayers times the key agreement under a handshake.
func connectLayers(rec *recorder) error {
	ka, kb, err := sessionKeys()
	if err != nil {
		return err
	}
	var failed error
	rec.calls("crypto.dh_shared", layerCalls, func(int) {
		if _, err := ka.SharedSecret(kb.PublicKey()); err != nil {
			failed = fmt.Errorf("dh: %w", err)
		}
	})
	rec.calls("session.new", layerCalls, func(int) {
		if _, err := session.New(ka, kb.PublicKey(), sessionEphIDs[0], sessionEphIDs[1]); err != nil {
			failed = fmt.Errorf("session: %w", err)
		}
	})
	return failed
}

// sendLayers times the packages under a host's data path on this
// workload's own message size, and the routers' single-packet slow
// path on a frame one of its hosts really sent. It returns the heap
// allocations one session.Seal makes.
func sendLayers(rec *recorder, spec hostSpec, seed int64) (sealAllocs float64, err error) {
	hn, err := buildHostNet(spec, seed)
	if err != nil {
		return 0, err
	}
	a, b := hn.a[0], hn.b[0]
	idA, err := a.NewEphID(apna.KindData, hostLifetime)
	if err != nil {
		return 0, fmt.Errorf("layers issuance: %w", err)
	}
	idB, err := b.NewEphID(apna.KindData, hostLifetime)
	if err != nil {
		return 0, fmt.Errorf("layers issuance: %w", err)
	}
	conn, err := a.Connect(idA, &idB.Cert, nil)
	if err != nil {
		return 0, fmt.Errorf("layers connect: %w", err)
	}
	msg := make([]byte, spec.MsgBytes)
	if err := a.Send(conn, msg); err != nil {
		return 0, fmt.Errorf("layers send: %w", err)
	}
	inbox := b.Stack.Inbox()
	if len(inbox) != 1 {
		return 0, fmt.Errorf("layers send: %d messages delivered", len(inbox))
	}
	frame := inbox[0].Raw
	src, dst := hn.in.AS(hostASA).Router, hn.in.AS(hostASB).Router
	var failed error
	rec.calls("border.egress_verify", layerCalls, func(int) {
		if v, _ := src.EgressVerify(frame); v != border.VerdictForward {
			failed = fmt.Errorf("egress slow path: %v", v)
		}
	})
	rec.calls("border.ingress_verify", layerCalls, func(int) {
		if v, _ := dst.IngressVerify(frame); v != border.VerdictForward {
			failed = fmt.Errorf("ingress slow path: %v", v)
		}
	})
	if failed != nil {
		return 0, failed
	}

	// wire: MAC and codec at this frame's size.
	pm, err := wire.NewPacketMAC(make([]byte, crypto.SymKeySize))
	if err != nil {
		return 0, fmt.Errorf("packet mac: %w", err)
	}
	scratch := append([]byte(nil), frame...)
	rec.calls("wire.mac_apply", layerCalls, func(int) { pm.Apply(scratch) })
	rec.calls("wire.mac_verify", layerCalls, func(int) {
		if !pm.Verify(scratch) {
			failed = fmt.Errorf("wire: applied MAC did not verify")
		}
	})
	var hdr wire.Header
	rec.calls("wire.header_decode", 16*layerCalls, func(int) {
		if err := hdr.DecodeFromBytes(frame); err != nil {
			failed = fmt.Errorf("wire decode: %w", err)
		}
	})
	pkt := wire.Packet{Header: hdr, Payload: frame[wire.HeaderSize:]}
	buf := make([]byte, 0, len(frame))
	rec.calls("wire.packet_append", 16*layerCalls, func(int) {
		if buf, err = pkt.AppendTo(buf[:0]); err != nil {
			failed = fmt.Errorf("wire append: %w", err)
		}
	})
	if failed != nil {
		return 0, failed
	}

	// session: the AEAD pair on one message.
	ka, kb, err := sessionKeys()
	if err != nil {
		return 0, err
	}
	ea, eb := sessionEphIDs[0], sessionEphIDs[1]
	sa, err := session.New(ka, kb.PublicKey(), ea, eb)
	if err != nil {
		return 0, fmt.Errorf("session: %w", err)
	}
	sb, err := session.New(kb, ka.PublicKey(), eb, ea)
	if err != nil {
		return 0, fmt.Errorf("session: %w", err)
	}
	sealed := make([][]byte, layerCalls)
	rec.calls("session.seal_1k", layerCalls, func(i int) {
		if sealed[i], err = sa.Seal(msg, nil); err != nil {
			failed = fmt.Errorf("seal: %w", err)
		}
	})
	rec.calls("session.open_1k", layerCalls, func(i int) {
		if _, err := sb.Open(sealed[i], nil); err != nil {
			failed = fmt.Errorf("open: %w", err)
		}
	})
	m0 := mallocs()
	for i := 0; i < layerCalls; i++ {
		if _, err := sa.Seal(msg, nil); err != nil {
			return 0, fmt.Errorf("seal: %w", err)
		}
	}
	return float64(mallocs()-m0) / layerCalls, failed
}
