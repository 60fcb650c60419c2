package apna

// Benchmark harness: one testing.B benchmark per paper artifact plus
// micro-ablations of the hot-path primitives.
//
//	E1  -> BenchmarkEphIDIssuanceParallel (the MS table: -cpu 4),
//	       BenchmarkEphIDIssuance, BenchmarkMSHandleRequest
//	E3  -> BenchmarkEngineRun/<size> (Figure 8a/8b), and
//	       BenchmarkBorderEgress/<size> (single-frame egress alone)
//	A1  -> BenchmarkEphIDMint/Open, BenchmarkCertSign/Verify
//	A2  -> BenchmarkPacketMAC*/BenchmarkHeader*
//	A3  -> BenchmarkBaselineForward/<size>
//	A4  -> BenchmarkSessionSeal/Open, BenchmarkHostSend
//	A5  -> BenchmarkAcquire/<granularity>
//	E5' -> BenchmarkConnectionEstablishment (wall-clock cost of the
//	       full handshake machinery, complementing the virtual-time
//	       experiment)
//	E11 -> BenchmarkPopulationRamp/hosts=<n>/workers=<w> in
//	       internal/population (the 10^3..10^6-host ramp; a gate
//	       breach fails it)
//
// Run: go test -bench=. -benchmem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"apna/internal/aa"
	"apna/internal/baseline"
	"apna/internal/border"
	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/engine"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/hostdb"
	"apna/internal/ms"
	"apna/internal/pktgen"
	"apna/internal/rpki"
	"apna/internal/session"
	"apna/internal/wire"
)

// paperSizes are the five frame sizes of Figure 8.
var paperSizes = []int{128, 256, 512, 1024, 1518}

// paperCapacityGbps is the NIC capacity of the paper's testbed (6
// dual-port 10 GbE NICs), which its routers filled at every size.
const paperCapacityGbps = 120.0

// lineRatePPS returns the theoretical maximum packet rate of the
// testbed's line for a frame size — the "theoretical maximum
// performance" line the paper says its measurements match. Each frame
// costs 20 B of wire overhead beyond its bytes: 8 B preamble and 12 B
// inter-frame gap (the 4 B FCS is part of the frame size, as in
// standard Ethernet accounting).
func lineRatePPS(frameSize int) float64 {
	return paperCapacityGbps * 1e9 / (float64(frameSize+20) * 8)
}

func TestLineRatePPS(t *testing.T) {
	// 120 Gbps at 1518 B frames: 120e9 / ((1518+20)*8) = 9.75 Mpps.
	got := lineRatePPS(1518)
	want := 120e9 / ((1518 + 20) * 8)
	if math.Abs(got-want) > 1 {
		t.Errorf("line rate = %f, want %f", got, want)
	}
	// Smaller frames mean higher packet rates.
	if lineRatePPS(128) <= lineRatePPS(1518) {
		t.Error("line rate not monotone in frame size")
	}
}

// --- A1: EphID construction ------------------------------------------------

func benchSealer(b *testing.B) *ephid.Sealer {
	b.Helper()
	secret, err := crypto.NewASSecret()
	if err != nil {
		b.Fatal(err)
	}
	s, err := ephid.NewSealer(secret)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkEphIDMint(b *testing.B) {
	s := benchSealer(b)
	p := ephid.Payload{HID: 42, ExpTime: 1 << 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Mint(p)
	}
}

func BenchmarkEphIDOpen(b *testing.B) {
	s := benchSealer(b)
	e := s.Mint(ephid.Payload{HID: 42, ExpTime: 1 << 30})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Open(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCertSign(b *testing.B) {
	signer, _ := crypto.GenerateSigner()
	c := &cert.Cert{ExpTime: 1 << 30, AID: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Sign(signer)
	}
}

func BenchmarkCertVerify(b *testing.B) {
	signer, _ := crypto.GenerateSigner()
	c := &cert.Cert{ExpTime: 1 << 30, AID: 1}
	c.Sign(signer)
	pub := signer.PublicKey()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Verify(pub, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1: MS issuance ---------------------------------------------------------

func benchMS(b testing.TB) (*ms.Service, *ms.Request, crypto.HostASKeys, ephid.EphID) {
	b.Helper()
	secret, _ := crypto.NewASSecret()
	sealer, _ := ephid.NewSealer(secret)
	signer, _ := crypto.GenerateSigner()
	db := hostdb.New()
	keys := crypto.DeriveHostASKeys([]byte("bench-host"))
	db.Put(hostdb.Entry{HID: 1, Keys: keys})
	aaEphID := sealer.Mint(ephid.Payload{HID: 99, ExpTime: 1 << 30})
	svc := ms.New(1, sealer, signer, db, ms.DefaultPolicy(), aaEphID, func() int64 { return 1000 })

	dh, _ := crypto.GenerateKeyPair()
	sig, _ := crypto.GenerateSigner()
	req := &ms.Request{Kind: ephid.KindData, Lifetime: 900}
	copy(req.DHPub[:], dh.PublicKey())
	copy(req.SigPub[:], sig.PublicKey())
	ctrl := sealer.Mint(ephid.Payload{HID: 1, ExpTime: 1 << 30})
	return svc, req, keys, ctrl
}

// BenchmarkEphIDIssuance is the unit of the paper's Section V-A3 table:
// mint + certificate signature (the paper measured 13.7us on a 2012
// desktop; the dominant cost in both is one Ed25519 signature).
func BenchmarkEphIDIssuance(b *testing.B) {
	svc, req, _, _ := benchMS(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Issue(1, req); err != nil {
			b.Fatal(err)
		}
	}
}

// paperPeakDemand is the peak new-session rate of the paper's trace
// (Section V-A3), which issuance is measured against;
// TestPaperScaleTrace in internal/trace holds the synthetic trace to it.
const paperPeakDemand = 3_888

// BenchmarkEphIDIssuanceParallel is the paper's MS performance table
// (Section V-A3: 500,000 EphIDs in 6.9 s on 4 processes, 72.8 k
// EphIDs/s, over 18x the peak demand). Run it with -cpu 4 for the
// paper's 4 processes. It reports the issuance rate of all goroutines
// together as EphIDs/s, and that rate over paperPeakDemand as
// x-headroom.
func BenchmarkEphIDIssuanceParallel(b *testing.B) {
	svc, req, _, _ := benchMS(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := svc.Issue(1, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	rate := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "EphIDs/s")
	b.ReportMetric(rate/paperPeakDemand, "x-headroom")
}

// TestEphIDIssuanceOutpacesPeakDemand holds the claim of the MS table at
// a small scale: one goroutine issues EphIDs faster than the trace's
// peak demand for new sessions.
func TestEphIDIssuanceOutpacesPeakDemand(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the signing loop by an order of magnitude")
	}
	svc, req, _, _ := benchMS(t)
	const n = 2_000
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := svc.Issue(1, req); err != nil {
			t.Fatal(err)
		}
	}
	if rate := n / time.Since(start).Seconds(); rate <= paperPeakDemand {
		t.Errorf("issued %.0f EphIDs/s, not above the peak demand of %d/s", rate, paperPeakDemand)
	}
}

// BenchmarkMSHandleRequest measures the full Figure 3 request path:
// source-EphID decryption, host lookup, request AEAD, issuance, reply
// AEAD.
func BenchmarkMSHandleRequest(b *testing.B) {
	svc, req, keys, ctrl := benchMS(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ct, err := ms.EncodeRequest(keys.Enc[:], ctrl, req)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := svc.HandleRequest(ctrl, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3/A3: forwarding pipelines --------------------------------------------

// fwdLane is the first lane of a two-AS world with 64 hosts per AS:
// one clean frame of the given size per source host, addressed to the
// matching host of the other AS.
func fwdLane(b *testing.B, size int) *pktgen.Lane {
	b.Helper()
	w, err := pktgen.NewWorld(pktgen.WorldConfig{ASes: 2, HostsPerAS: 64, FrameSize: size, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return w.Lanes[0]
}

func BenchmarkBorderEgress(b *testing.B) {
	for _, size := range paperSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			lane := fwdLane(b, size)
			pipe := lane.Src.Router.NewEgressPipeline()
			verdicts := make([]border.Verdict, 0, 1)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verdicts = pipe.ProcessBatch(lane.Frames[i&63:i&63+1], verdicts[:0])
				if verdicts[0] != border.VerdictForward {
					b.Fatalf("verdict %v", verdicts[0])
				}
			}
		})
	}
}

// BenchmarkBorderEgressBatch measures the batched fast path: the
// amortized per-packet cost the parallel engine pays.
func BenchmarkBorderEgressBatch(b *testing.B) {
	lane := fwdLane(b, 256)
	pipe := lane.Src.Router.NewEgressPipeline()
	verdicts := make([]border.Verdict, 0, len(lane.Frames))
	b.SetBytes(int64(256 * len(lane.Frames)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdicts = pipe.ProcessBatch(lane.Frames, verdicts[:0])
		for _, v := range verdicts {
			if v != border.VerdictForward {
				b.Fatalf("verdict %v", v)
			}
		}
	}
}

// ingressBench returns a lane whose destination AS has a populated
// remote revocation list, so the per-packet remote-source check
// performs real lookups against a non-empty table — the steady state
// once revocation digests have been disseminated — and the alloc gate
// covers it.
func ingressBench(b *testing.B) *pktgen.Lane {
	b.Helper()
	lane := fwdLane(b, 256)
	exp := uint32(lane.Src.Now) + 3600
	for i := 0; i < 128; i++ {
		e := lane.Src.Sealer.Mint(ephid.Payload{HID: 999, ExpTime: exp})
		lane.Dst.Router.ApplyRemote(e, lane.Src.AID, exp)
	}
	return lane
}

func BenchmarkBorderIngress(b *testing.B) {
	lane := ingressBench(b)
	pipe := lane.Dst.Router.NewIngressPipeline()
	results := make([]border.IngressResult, 0, 1)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = pipe.ProcessBatch(lane.Frames[i&63:i&63+1], results[:0])
		if results[0].Verdict != border.VerdictForward {
			b.Fatalf("verdict %v", results[0].Verdict)
		}
	}
}

// BenchmarkBorderIngressBatch measures the staged ingress path a whole
// chunk at a time: what the parallel engine pays per batch.
func BenchmarkBorderIngressBatch(b *testing.B) {
	lane := ingressBench(b)
	pipe := lane.Dst.Router.NewIngressPipeline()
	results := make([]border.IngressResult, 0, len(lane.Frames))
	b.SetBytes(int64(256 * len(lane.Frames)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = pipe.ProcessBatch(lane.Frames, results[:0])
		for _, res := range results {
			if res.Verdict != border.VerdictForward {
				b.Fatalf("verdict %v", res.Verdict)
			}
		}
	}
}

func BenchmarkBaselineForward(b *testing.B) {
	for _, size := range paperSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			lane := fwdLane(b, size)
			fwd := baseline.New(map[ephid.AID]ephid.AID{lane.Dst.AID: lane.Dst.AID})
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !fwd.Process(lane.Frames[i&63]) {
					b.Fatal("dropped")
				}
			}
		})
	}
}

// --- A2: per-packet MAC and header codec --------------------------------------

func BenchmarkPacketMACVerify(b *testing.B) {
	for _, size := range paperSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			key := crypto.DeriveKey([]byte("k"), "bench", crypto.SymKeySize)
			pm, err := wire.NewPacketMAC(key)
			if err != nil {
				b.Fatal(err)
			}
			p := wire.Packet{Payload: make([]byte, size-wire.HeaderSize)}
			p.Header.HopLimit = 9
			frame, _ := p.Encode()
			pm.Apply(frame)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !pm.Verify(frame) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

// BenchmarkPacketMACVerifyBatch is BenchmarkPacketMACVerify through
// wire.MACBatch, 64 frames from 64 senders at a time as the egress
// pipeline hands them over: two uniform batches, 64 B and 1518 B frames
// alternating, and an IMIX of 64, 594 and 1518 B frames at 7:4:1 in a
// fixed shuffled order. One op is one frame.
func BenchmarkPacketMACVerifyBatch(b *testing.B) {
	const batch = 64
	imix := make([]int, batch)
	for i := range imix {
		imix[i] = [12]int{64, 64, 64, 64, 64, 64, 64, 594, 594, 594, 594, 1518}[i%12]
	}
	rand.New(rand.NewSource(1)).Shuffle(batch, func(i, j int) { imix[i], imix[j] = imix[j], imix[i] })
	for _, mix := range []struct {
		name  string
		sizes []int // frame i is sizes[i%len(sizes)] bytes
	}{
		{"128B", []int{128}},
		{"1518B", []int{1518}},
		{"64B+1518B", []int{64, 1518}},
		{"IMIX", imix},
	} {
		b.Run(mix.name, func(b *testing.B) {
			pms := make([]*wire.PacketMAC, batch)
			frames := make([][]byte, batch)
			total := 0
			for i := range frames {
				var err error
				pms[i], err = wire.NewPacketMAC(crypto.DeriveKey([]byte{byte(i)}, "bench", crypto.SymKeySize))
				if err != nil {
					b.Fatal(err)
				}
				p := wire.Packet{Payload: make([]byte, mix.sizes[i%len(mix.sizes)]-wire.HeaderSize)}
				p.Header.HopLimit = 9
				frames[i], _ = p.Encode()
				pms[i].Apply(frames[i])
				total += len(frames[i])
			}
			var mb wire.MACBatch
			b.SetBytes(int64(total / batch))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batch {
				mb.Reset(batch)
				for i, frame := range frames {
					mb.Add(pms[i], frame)
				}
				mb.Verify()
				for i := range frames {
					if !mb.OK(i) {
						b.Fatal("verify failed")
					}
				}
			}
		})
	}
}

func BenchmarkHeaderDecode(b *testing.B) {
	p := wire.Packet{Payload: []byte("x")}
	frame, _ := p.Encode()
	var h wire.Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := h.DecodeFromBytes(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeaderSerialize(b *testing.B) {
	var h wire.Header
	buf := make([]byte, wire.HeaderSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := h.SerializeTo(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeaderAppendTo measures the append-style encoder into a
// reused buffer (the zero-allocation encode path).
func BenchmarkHeaderAppendTo(b *testing.B) {
	var h wire.Header
	buf := make([]byte, 0, wire.HeaderSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = h.AppendTo(buf[:0])
	}
}

// figure8World is BenchmarkEngineRun's clean two-AS world at one frame
// size.
func figure8World(tb testing.TB, size int) *pktgen.World {
	tb.Helper()
	w, err := pktgen.NewWorld(pktgen.WorldConfig{
		ASes: 2, HostsPerAS: 32, FrameSize: size, FramesPerLane: 128, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// TestFigure8WorldDeliversEverything runs BenchmarkEngineRun's world at
// every Figure 8 size on a small budget: each worker spends its whole
// budget and every frame is delivered, so the benchmark's Mpps is a
// delivered rate, and its cores@120Gbps is finite and positive.
func TestFigure8WorldDeliversEverything(t *testing.T) {
	const workers, budget = 2, 2_000
	for _, size := range paperSizes {
		rep, err := engine.Run(figure8World(t, size), engine.Config{
			Workers: workers, BatchSize: 64, PacketsPerWorker: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Packets != workers*budget || rep.Delivered != rep.Packets {
			t.Errorf("%d B: %d packets, %d delivered, want %d of each", size, rep.Packets, rep.Delivered, workers*budget)
		}
		if cores := lineRatePPS(size) / (rep.PPS / workers); !(cores > 0) || math.IsInf(cores, 0) {
			t.Errorf("%d B: cores@120Gbps = %v at %.0f pps", size, cores, rep.PPS)
		}
	}
}

// BenchmarkEngineRun is Figure 8: the forwarding engine (egress, route
// lookup and ingress in 64-frame batches) over a clean two-AS world at
// each paper frame size, on GOMAXPROCS workers. Besides ns/op and MB/s
// it reports the engine's packet rate as Mpps, and as cores@120Gbps how
// many workers at that rate each would fill the paper's 120 Gbps line;
// the paper's testbed filled it at every size on 16 cores running a
// DPDK/AES-NI C pipeline.
func BenchmarkEngineRun(b *testing.B) {
	const budget = 10_000
	for _, size := range paperSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			w := figure8World(b, size)
			workers := runtime.GOMAXPROCS(0)
			b.SetBytes(int64(size * budget * workers))
			b.ReportAllocs()
			b.ResetTimer()
			var packets, secs float64
			for i := 0; i < b.N; i++ {
				rep, err := engine.Run(w, engine.Config{
					Workers: workers, BatchSize: 64, PacketsPerWorker: budget,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Delivered != rep.Packets {
					b.Fatalf("dropped %d clean packets", rep.Dropped)
				}
				packets += float64(rep.Packets)
				secs += float64(rep.Packets) / rep.PPS
			}
			pps := packets / secs
			b.ReportMetric(pps/1e6, "Mpps")
			b.ReportMetric(lineRatePPS(size)/(pps/float64(workers)), "cores@120Gbps")
		})
	}
}

// --- A4: session encryption ----------------------------------------------------

func benchSessionPair(b *testing.B) (*session.Session, *session.Session) {
	b.Helper()
	aKey, _ := crypto.GenerateKeyPair()
	bKey, _ := crypto.GenerateKeyPair()
	var aID, bID ephid.EphID
	aID[0], bID[0] = 1, 2
	sa, err := session.New(aKey, bKey.PublicKey(), aID, bID)
	if err != nil {
		b.Fatal(err)
	}
	sb, err := session.New(bKey, aKey.PublicKey(), bID, aID)
	if err != nil {
		b.Fatal(err)
	}
	return sa, sb
}

// BenchmarkSessionSeal seals the way a host does: appended behind what
// the frame buffer already holds, into capacity reserved up front. CI
// holds it to 0 allocs/op.
func BenchmarkSessionSeal(b *testing.B) {
	for _, size := range []int{64, 256, 1400} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			sa, _ := benchSessionPair(b)
			pt := make([]byte, size)
			buf := make([]byte, 0, size+sa.Overhead())
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sa.AppendSeal(buf, pt, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSessionOpen(b *testing.B) {
	sa, sb := benchSessionPair(b)
	ct, _ := sa.Seal(make([]byte, 256), nil)
	b.SetBytes(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sb.Open(ct, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A5: EphID granularity -------------------------------------------------------

func BenchmarkAcquire(b *testing.B) {
	newHost := func(b *testing.B, n int) *host.Host {
		h, err := host.New(host.Config{
			AID: 1, Trust: rpki.NewTrustStore(nil), Now: func() int64 { return 0 },
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			o := &host.OwnedEphID{}
			o.Cert.ExpTime = 1 << 30
			o.Cert.EphID[0], o.Cert.EphID[1] = byte(i), byte(i>>8)
			h.AddEphID(o)
		}
		return h
	}
	b.Run("per-host", func(b *testing.B) {
		h := newHost(b, 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := h.Acquire(host.PerHost, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-application", func(b *testing.B) {
		h := newHost(b, 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := h.Acquire(host.PerApplication, "browser"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-flow", func(b *testing.B) {
		// Per-flow consumes identifiers: each op is acquire+release,
		// modeling a flow's lifecycle.
		h := newHost(b, 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o, err := h.Acquire(host.PerFlow, "")
			if err != nil {
				b.Fatal(err)
			}
			o.InUse = false
		}
	})
}

// --- Shutoff and establishment ------------------------------------------------------

func BenchmarkShutoffHandleRequest(b *testing.B) {
	now := int64(1_000_000)
	srcSecret, _ := crypto.NewASSecret()
	srcSealer, _ := ephid.NewSealer(srcSecret)
	db := hostdb.New()
	keys := crypto.DeriveHostASKeys([]byte("att"))
	db.Put(hostdb.Entry{HID: 9, Keys: keys})

	dstSigner, _ := crypto.GenerateSigner()
	auth, _ := rpki.NewAuthority()
	dh, _ := crypto.GenerateKeyPair()
	rec, _ := auth.Certify(200, dstSigner.PublicKey(), dh.PublicKey(), now+86400)
	trust := rpki.NewTrustStore(auth.PublicKey())
	if err := trust.Add(rec); err != nil {
		b.Fatal(err)
	}

	dstKeys, _ := crypto.GenerateSigner()
	dstDH, _ := crypto.GenerateKeyPair()
	var dstEphID ephid.EphID
	dstEphID[0] = 7
	dstCert := cert.Cert{Kind: ephid.KindData, EphID: dstEphID, ExpTime: uint32(now) + 600, AID: 200}
	copy(dstCert.DHPub[:], dstDH.PublicKey())
	copy(dstCert.SigPub[:], dstKeys.PublicKey())
	dstCert.Sign(dstSigner)

	srcEphID := srcSealer.Mint(ephid.Payload{HID: 9, ExpTime: uint32(now) + 600})
	p := wire.Packet{
		Header: wire.Header{
			HopLimit: 9, Nonce: 1, SrcAID: 100, DstAID: 200,
			SrcEphID: srcEphID, DstEphID: dstEphID,
		},
		Payload: []byte("flood"),
	}
	frame, _ := p.Encode()
	pm, _ := wire.NewPacketMAC(keys.MAC[:])
	pm.Apply(frame)
	req := aa.BuildRequest(frame, &dstCert, dstKeys)

	agent := aa.New(aa.Config{AID: 100}, srcSealer, db, srcSecret, trust,
		func() int64 { return now })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.HandleShutoff(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnectionEstablishment measures the wall-clock cost of a
// full handshake across the simulated internet (two X25519 exchanges,
// two certificate verifications, the handshake round trip).
func BenchmarkConnectionEstablishment(b *testing.B) {
	in, err := New(1, WithAS(1, "alice"), WithAS(2, "bob"), WithLink(1, 2, time.Microsecond))
	if err != nil {
		b.Fatal(err)
	}
	alice, bob := in.Host("alice"), in.Host("bob")
	idA, err := alice.NewEphID(ephid.KindData, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	idB, err := bob.NewEphID(ephid.KindData, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alice.Connect(idA, &idB.Cert, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostSend is the host data path end to end, shaped like
// bench/'s host_send: 32 host pairs across two ASes, one open connection
// each, and per iteration one wave of 1 KiB messages sent through the
// facade and run to delivery. It stands beside the border benchmarks
// until the two measurement surfaces are folded together (ROADMAP
// item 1); allocs/op is per wave, 32 messages.
func BenchmarkHostSend(b *testing.B) {
	const pairs, msgBytes = 32, 1024
	names := func(prefix string) []string {
		out := make([]string, pairs)
		for i := range out {
			out[i] = fmt.Sprintf("%s%02d", prefix, i)
		}
		return out
	}
	na, nb := names("a"), names("b")
	in, err := New(1, WithAS(1, na...), WithAS(2, nb...), WithLink(1, 2, time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	senders, receivers := make([]*Host, pairs), make([]*Host, pairs)
	conns := make([]*host.Conn, pairs)
	for i := range conns {
		senders[i], receivers[i] = in.Host(na[i]), in.Host(nb[i])
		idA, err := senders[i].NewEphID(ephid.KindData, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		idB, err := receivers[i].NewEphID(ephid.KindData, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		if conns[i], err = senders[i].Connect(idA, &idB.Cert, nil); err != nil {
			b.Fatal(err)
		}
	}
	msg := make([]byte, msgBytes)
	ops := make([]Op, pairs)
	b.SetBytes(pairs * msgBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range conns {
			ops[j] = senders[j].SendAsync(c, msg)
		}
		if err := in.AwaitAll(ops...); err != nil {
			b.Fatal(err)
		}
		for j, r := range receivers {
			if got := r.Stack.Inbox(); len(got) != 1 {
				b.Fatalf("pair %d: %d messages delivered", j, len(got))
			}
		}
	}
}

// BenchmarkRevocationListLookup sizes the per-packet revocation check
// under a large list (Section VIII-G2's scaling concern).
func BenchmarkRevocationListLookup(b *testing.B) {
	var l border.RevocationList
	var probe ephid.EphID
	for i := 0; i < 100_000; i++ {
		var e ephid.EphID
		e[0], e[1], e[2] = byte(i), byte(i>>8), byte(i>>16)
		l.Insert(e, 1<<30)
		if i == 0 {
			probe = e
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !l.Contains(probe) {
			b.Fatal("missing")
		}
	}
}

// residentSizes are the table populations the write benchmarks start
// from: what an insert costs must not depend on them.
var residentSizes = []int{1_000, 100_000}

// benchEphID is the i-th of a family of distinct EphIDs.
func benchEphID(family byte, i int) ephid.EphID {
	e := ephid.EphID{0: family}
	binary.BigEndian.PutUint32(e[4:], uint32(i))
	return e
}

// BenchmarkRevocationInsert prices one revocation order against lists of
// two sizes (Section VIII-G2: the lists grow under a shutoff flood). The
// list is rebuilt at its resident size every 10^4 inserts, outside the
// timer, so the inserts measured are all into a list of about that size.
func BenchmarkRevocationInsert(b *testing.B) {
	for _, resident := range residentSizes {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			b.ReportAllocs()
			var l *border.RevocationList
			for i := 0; i < b.N; i++ {
				if i%10_000 == 0 {
					b.StopTimer()
					l = new(border.RevocationList)
					for j := 0; j < resident; j++ {
						l.Insert(benchEphID('r', j), 1<<30)
					}
					b.StartTimer()
				}
				l.Insert(benchEphID('n', i), 1<<30)
			}
		})
	}
}

// BenchmarkHostDBPut prices registering one host in databases of two
// sizes, rebuilt as in BenchmarkRevocationInsert.
func BenchmarkHostDBPut(b *testing.B) {
	for _, resident := range residentSizes {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			b.ReportAllocs()
			residents := make([]hostdb.Entry, resident)
			for j := range residents {
				residents[j].HID = ephid.HID(1 + j)
			}
			var db *hostdb.DB
			for i := 0; i < b.N; i++ {
				if i%10_000 == 0 {
					b.StopTimer()
					db = hostdb.New()
					db.PutBatch(residents)
					b.StartTimer()
				}
				db.Put(hostdb.Entry{HID: ephid.HID(1<<24 + i)})
			}
		})
	}
}
