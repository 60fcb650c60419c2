package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"apna/internal/aa"
	"apna/internal/accountability"
	"apna/internal/border"
	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/ms"
	"apna/internal/population"
	"apna/internal/rpki"
	"apna/internal/wire"
)

// ctlSpec fixes the control-plane workload: one population.Run per
// repetition, one worker.
type ctlSpec struct {
	Hosts int `json:"hosts"`
	Ticks int `json:"ticks"`
	// Slices population.Run calls make one repetition and a run has
	// Reps (see timedReps).
	Slices int `json:"slices"`
	Reps   int `json:"reps"`
}

var ctlFull = ctlSpec{Hosts: 50_000, Ticks: 60, Slices: 2, Reps: 6}

func (s ctlSpec) scaled(div int) ctlSpec {
	if div > 1 {
		s.Hosts, s.Slices, s.Reps = max(100, s.Hosts/div), 1, 1
	}
	return s
}

func (s ctlSpec) config(seed int64) population.Config {
	cfg := population.DefaultConfig()
	cfg.Hosts, cfg.Ticks, cfg.Workers, cfg.Seed = s.Hosts, s.Ticks, 1, seed
	return cfg
}

// runCtl measures ctl_population. population.Run builds its world
// inside the call, so every repetition yields one set-up sample (the
// call's wall time less the tick loop's) and one throughput sample.
func runCtl(spec ctlSpec, o opts) (*outcome, error) {
	out := &outcome{m: metrics{}}
	cfg := spec.config(o.seed)
	var events uint64
	rep := func() (*population.Result, error) {
		t0 := now()
		res, err := population.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("population: %w", err)
		}
		out.m.add("setup_s", "s", since(t0).Seconds()-res.ElapsedMs/1e3)
		out.attempted += res.Events
		out.failed += res.ErrNoEphID
		if events == 0 {
			events = res.Events
		}
		if res.Events != events {
			// The event count is a function of the seed alone.
			out.failed += max(res.Events, events) - min(res.Events, events)
		}
		var receipts uint64
		for status, n := range res.ReceiptStatus {
			if status != "error" {
				receipts += n
			}
		}
		out.failed += res.Complaints - receipts // complaints left without a receipt status
		return res, nil
	}

	warm := spec.scaled(10).config(o.seed)
	if _, err := population.Run(warm); err != nil { // warm-up, discarded
		return nil, fmt.Errorf("population warm-up: %w", err)
	}
	if !o.trace {
		_, err := out.measure(o, spec.Reps, spec.Slices, func() (slice, error) {
			// population.Run offers no seam between its world build and its
			// tick loop, so the allocation count includes the build's.
			m0 := mallocs()
			res, err := rep()
			if err != nil {
				return slice{}, err
			}
			return slice{rate: res.EventsPerSec, ops: res.Events, mallocs: mallocs() - m0}, nil
		})
		return out, err
	}

	runtime.GC()
	plain, err := rep()
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	var res *population.Result
	root := rec.begin(0, 0, "population.run")
	res, err = rep()
	rec.end(root, 1)
	if err != nil {
		return nil, err
	}
	out.m.add("trace.overhead_frac", "ratio", 1-res.EventsPerSec/plain.EventsPerSec)
	for _, p := range []struct {
		name, unit string
		v          float64
	}{
		{"population.issue_p50_us", "us", res.IssueLatency.P50us},
		{"population.issue_p99_us", "us", res.IssueLatency.P99us},
		{"population.renew_p50_us", "us", res.RenewLatency.P50us},
		{"population.renew_p99_us", "us", res.RenewLatency.P99us},
		{"population.complaint_p50_us", "us", res.ComplaintLatency.P50us},
		{"population.gc_max_pause_us", "us", res.GCMaxPauseUs},
		{"population.pool_hit_rate", "ratio", float64(res.PoolHits) / float64(max(res.Arrivals, 1))},
		{"population.renew_denial_rate", "ratio", res.RenewDenialRate},
		{"population.events", "count", float64(res.Events)},
		{"population.issued", "count", float64(res.Issued)},
		{"population.renewals", "count", float64(res.Renewals)},
	} {
		out.m.add(p.name, p.unit, p.v)
	}

	n, err := ctlLayers(rec, spec, o.seed)
	out.attempted += n
	if err != nil {
		return nil, err
	}
	if err := sharedCryptoLayers(rec, out.m); err != nil {
		return nil, err
	}
	out.m.addLayers(rec,
		lm("ms.encode_request_us", "us", 1e3, "ms.encode_request"),
		lm("ms.handle_request_us", "us", 1e3, "ms.handle_request"),
		lm("ms.handle_renew_us", "us", 1e3, "ms.handle_renew"),
		lm("ms.decode_reply_us", "us", 1e3, "ms.decode_reply"),
		lm("ms.issue_us", "us", 1e3, "ms.issue"),
		lm("cert.sign_us", "us", 1e3, "cert.sign"),
		lm("cert.verify_us", "us", 1e3, "cert.verify"),
		lm("ephid.mint_ns", "ns", 1, "ephid.mint"),
		lm("hostdb.put_batch_ns_per_entry", "ns", 1, "hostdb.put_batch"),
		lm("hostdb.put_us", "us", 1e3, "hostdb.put"),
		lm("hostdb.revoke_us", "us", 1e3, "hostdb.revoke"),
		lm("hostdb.gc_ms", "ms", 1e6, "hostdb.gc"),
		lm("border.revocation_insert_us", "us", 1e3, "border.revocation_insert"),
		lm("aa.handle_shutoff_us", "us", 1e3, "aa.handle_shutoff"),
		lm("accountability.handle_shutoff_request_us", "us", 1e3, "accountability.handle_shutoff_request"),
		lm("accountability.flush_digest_us", "us", 1e3, "accountability.flush_digest"),
	)
	return out, rec.write(o.tracePath())
}

// layerCalls is how many calls each control-plane micro-span series
// makes: four batches' worth.
const layerCalls = 4 * batchSize

const (
	ctlLocalAID  ephid.AID = 100
	ctlVictimAID ephid.AID = 200
	ctlEpoch     int64     = 1_000_000
)

// ctlLayers stands up one AS's control plane from public constructors,
// wired the way population's world is and holding as many hosts, and
// times each engine's entry point in micro-spans. It returns the number
// of operations whose results it checked.
func ctlLayers(rec *recorder, spec ctlSpec, seed int64) (uint64, error) {
	nowFn := func() int64 { return ctlEpoch }
	horizon := uint32(ctlEpoch + 365*24*3600)
	rng := rand.New(rand.NewSource(seed ^ 0xc71))

	secret, err := crypto.NewASSecret()
	if err != nil {
		return 0, fmt.Errorf("as secret: %w", err)
	}
	sealer, err := ephid.NewSealer(secret)
	if err != nil {
		return 0, fmt.Errorf("sealer: %w", err)
	}
	signer, err := crypto.GenerateSigner()
	if err != nil {
		return 0, fmt.Errorf("as signer: %w", err)
	}
	victimAS, err := crypto.GenerateSigner()
	if err != nil {
		return 0, fmt.Errorf("victim as signer: %w", err)
	}
	victimHost, err := crypto.GenerateSigner()
	if err != nil {
		return 0, fmt.Errorf("victim host signer: %w", err)
	}
	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		return 0, fmt.Errorf("dh key: %w", err)
	}
	authority, err := rpki.NewAuthority()
	if err != nil {
		return 0, fmt.Errorf("rpki authority: %w", err)
	}
	trust := rpki.NewTrustStore(authority.PublicKey())
	for aid, s := range map[ephid.AID]*crypto.Signer{ctlLocalAID: signer, ctlVictimAID: victimAS} {
		r, err := authority.Certify(aid, s.PublicKey(), dh.PublicKey(), int64(horizon))
		if err != nil {
			return 0, fmt.Errorf("certify %v: %w", aid, err)
		}
		if err := trust.Add(r); err != nil {
			return 0, fmt.Errorf("trust %v: %w", aid, err)
		}
	}

	// The host table, loaded in one batch as population does.
	hostKeys := func(hid ephid.HID) crypto.HostASKeys {
		var b [12]byte
		binary.BigEndian.PutUint64(b[:8], uint64(seed))
		binary.BigEndian.PutUint32(b[8:], uint32(hid))
		return crypto.DeriveHostASKeys(b[:])
	}
	db := hostdb.New()
	entries := make([]hostdb.Entry, spec.Hosts)
	for i := range entries {
		hid := ephid.HID(i + 1)
		entries[i] = hostdb.Entry{HID: hid, Keys: hostKeys(hid), RegisteredAt: ctlEpoch}
	}
	rec.layer(0, 0, "hostdb.put_batch", len(entries), func() { db.PutBatch(entries) })

	aaEphID := sealer.Mint(ephid.Payload{HID: 1, ExpTime: horizon})
	svc := ms.New(ctlLocalAID, sealer, signer, db, ms.DefaultPolicy(), aaEphID, nowFn)
	router, err := border.New(ctlLocalAID, sealer, db, secret, nowFn)
	if err != nil {
		return 0, fmt.Errorf("router: %w", err)
	}
	agent := aa.New(aa.Config{AID: ctlLocalAID, StrikeLimit: 3}, sealer, db, secret, trust, nowFn)
	agent.AddRouter(router)
	acct := accountability.New(accountability.Config{
		AID: ctlLocalAID, Signer: signer, Trust: trust, Agent: agent, Now: nowFn,
	})
	acct.AddRouter(router)
	agent.SetRevocationHook(acct.NoteRevoked)
	acct.SetSend(func(wire.Endpoint, []byte) error { return nil })

	victimCert := &cert.Cert{
		Kind: ephid.KindData, ExpTime: horizon, AID: ctlVictimAID,
		EphID:   ephid.EphID{0: 0xb1},
		AAEphID: ephid.EphID{0: 0xb2},
	}
	copy(victimCert.SigPub[:], victimHost.PublicKey())
	victimCert.Sign(victimAS)
	acct.RegisterPeer(ctlVictimAID, victimCert.AAEphID)

	// firstErr keeps the first failure of any timed call; the series
	// run on regardless, and the error surfaces at the end.
	var firstErr error
	var checked uint64
	note := func(layer string, err error) {
		checked++
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", layer, err)
		}
	}

	// MS: the host→service round trip of Figure 3, stage by stage, on
	// layerCalls distinct hosts.
	type msHost struct {
		hid   ephid.HID
		keys  crypto.HostASKeys
		ctrl  ephid.EphID
		ct    []byte
		reply []byte
		cert  *cert.Cert
	}
	hosts := make([]msHost, min(layerCalls, spec.Hosts))
	for i := range hosts {
		hid := ephid.HID(i + 1)
		hosts[i] = msHost{hid: hid, keys: hostKeys(hid),
			ctrl: sealer.Mint(ephid.Payload{HID: hid, ExpTime: horizon})}
	}
	req := ms.Request{Kind: ephid.KindData, Lifetime: 600}
	roundTrip := func(suffix string) {
		rec.calls("ms.encode_request"+suffix, len(hosts), func(i int) {
			h := &hosts[i]
			r := req
			if h.cert != nil {
				r.Flags, r.Prev = ms.ReqFlagRenew, h.cert.EphID
			}
			var err error
			h.ct, err = ms.EncodeRequest(h.keys.Enc[:], h.ctrl, &r)
			note("ms.EncodeRequest", err)
		})
		handle := "ms.handle_request"
		if suffix != "" {
			handle = "ms.handle_renew"
		}
		rec.calls(handle, len(hosts), func(i int) {
			var err error
			hosts[i].reply, err = svc.HandleRequest(hosts[i].ctrl, hosts[i].ct)
			note("ms.HandleRequest", err)
		})
		rec.calls("ms.decode_reply"+suffix, len(hosts), func(i int) {
			h := &hosts[i]
			var err error
			h.cert, err = ms.DecodeReply(h.keys.Enc[:], h.ctrl, h.reply)
			note("ms.DecodeReply", err)
		})
	}
	roundTrip("")
	if firstErr != nil {
		return checked, firstErr
	}
	issued := make([]*cert.Cert, len(hosts)) // first-round certificates: shutoff evidence for the AA
	for i := range hosts {
		issued[i] = hosts[i].cert
	}
	roundTrip("/renew") // second round renews the first's EphIDs
	if firstErr != nil {
		return checked, firstErr
	}
	rec.calls("ms.issue", layerCalls, func(i int) {
		_, err := svc.Issue(hosts[i%len(hosts)].hid, &req)
		note("ms.Issue", err)
	})

	c := *hosts[0].cert
	rec.calls("cert.sign", layerCalls, func(int) { c.Sign(signer) })
	rec.calls("cert.verify", layerCalls, func(int) {
		note("cert.Verify", c.Verify(signer.PublicKey(), ctlEpoch))
	})
	rec.calls("ephid.mint", 16*layerCalls, func(i int) {
		sealer.Mint(ephid.Payload{HID: ephid.HID(i), ExpTime: horizon})
	})

	// hostdb writes: single copy-on-write operations into the loaded
	// table, then the sweep that reaps them.
	fresh := ephid.HID(spec.Hosts + 1)
	rec.calls("hostdb.put", layerCalls, func(i int) {
		hid := fresh + ephid.HID(i)
		db.Put(hostdb.Entry{HID: hid, Keys: hostKeys(hid), RegisteredAt: ctlEpoch})
	})
	rec.calls("hostdb.revoke", layerCalls, func(i int) { db.RevokeAt(fresh+ephid.HID(i), ctlEpoch) })
	rec.layer(0, 0, "hostdb.gc", 1, func() {
		if reaped := db.GC(ctlEpoch+1, 0); reaped != layerCalls {
			note("hostdb.GC", fmt.Errorf("reaped %d of %d revoked hosts", reaped, layerCalls))
		}
	})
	rec.calls("border.revocation_insert", 16*layerCalls, func(int) {
		var e ephid.EphID
		rng.Read(e[:])
		router.Revoked().Insert(e, horizon)
	})

	// Shutoffs: evidence frames the offending hosts really sent, first
	// straight to the intra-AS agent, then over the inter-domain path.
	evidence := func(h *msHost, offender *cert.Cert, nonce uint64) ([]byte, error) {
		p := wire.Packet{
			Header: wire.Header{
				NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit, Nonce: nonce,
				SrcAID: ctlLocalAID, DstAID: ctlVictimAID,
				SrcEphID: offender.EphID, DstEphID: victimCert.EphID,
			},
			Payload: make([]byte, 64),
		}
		frame, err := p.Encode()
		if err != nil {
			return nil, fmt.Errorf("evidence frame: %w", err)
		}
		pm, err := wire.NewPacketMAC(h.keys.MAC[:])
		if err != nil {
			return nil, fmt.Errorf("evidence mac: %w", err)
		}
		pm.Apply(frame)
		return frame, nil
	}
	shutoffs := make([]*aa.Request, len(hosts))
	raws := make([][]byte, len(hosts))
	for i := range hosts {
		h := &hosts[i]
		frame, err := evidence(h, issued[i], uint64(2*i+1))
		if err != nil {
			return checked, err
		}
		shutoffs[i] = aa.BuildRequest(frame, victimCert, victimHost)
		if frame, err = evidence(h, h.cert, uint64(2*i+2)); err != nil {
			return checked, err
		}
		enc, err := accountability.NewComplaint(frame, victimCert, h.cert, victimHost).Encode()
		if err != nil {
			return checked, fmt.Errorf("complaint: %w", err)
		}
		sr := &accountability.ShutoffRequest{Origin: ctlVictimAID, Seq: uint64(i + 1), IssuedAt: ctlEpoch, Complaint: enc}
		sr.Sign(victimAS)
		raws[i] = sr.Encode()
	}
	rec.calls("aa.handle_shutoff", len(hosts), func(i int) {
		_, err := agent.HandleShutoff(shutoffs[i])
		note("aa.HandleShutoff", err)
	})
	rec.calls("accountability.handle_shutoff_request", len(hosts), func(i int) {
		r, err := acct.HandleShutoffRequest(raws[i])
		if err == nil && r.Status != accountability.StatusRevoked {
			err = fmt.Errorf("receipt status %v", r.Status)
		}
		note("accountability.HandleShutoffRequest", err)
	})
	for i := 0; i < 8; i++ {
		var e ephid.EphID
		rng.Read(e[:])
		acct.NoteRevoked(e, horizon) // a changed set, so the flush is not skipped
		rec.layer(0, uint64(i), "accountability.flush_digest", 1, func() { acct.FlushDigest() })
	}
	return checked, firstErr
}

// sharedCryptoLayers times the primitives both the control plane and
// the host path lean on.
func sharedCryptoLayers(rec *recorder, m metrics) error {
	aead, err := crypto.NewAEAD(make([]byte, crypto.SymKeySize), 0)
	if err != nil {
		return fmt.Errorf("aead: %w", err)
	}
	signer, err := crypto.GenerateSigner()
	if err != nil {
		return fmt.Errorf("signer: %w", err)
	}
	msg, aad := make([]byte, 1024), make([]byte, 16)
	sealed := make([][]byte, layerCalls)
	rec.calls("crypto.aead_seal_1k", layerCalls, func(i int) {
		if sealed[i], err = aead.Seal(nil, msg, aad); err != nil {
			err = fmt.Errorf("aead seal: %w", err)
		}
	})
	if err != nil {
		return err
	}
	rec.calls("crypto.aead_open_1k", layerCalls, func(i int) {
		if _, e := aead.Open(nil, sealed[i], aad); e != nil {
			err = fmt.Errorf("aead open: %w", e)
		}
	})
	sigs := make([][]byte, layerCalls)
	rec.calls("crypto.sign", layerCalls, func(i int) { sigs[i] = signer.Sign("bench", msg[:128]) })
	rec.calls("crypto.verify", layerCalls, func(i int) {
		if !crypto.Verify(signer.PublicKey(), "bench", msg[:128], sigs[i]) {
			err = errors.New("fresh signature did not verify")
		}
	})
	m.addLayers(rec,
		lm("crypto.aead_seal_ns_1k", "ns", 1, "crypto.aead_seal_1k"),
		lm("crypto.aead_open_ns_1k", "ns", 1, "crypto.aead_open_1k"),
		lm("crypto.sign_us", "us", 1e3, "crypto.sign"),
		lm("crypto.verify_us", "us", 1e3, "crypto.verify"),
	)
	return err
}
