package host

import (
	"bytes"
	"fmt"

	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/ms"
	"apna/internal/wire"
)

// EphID pool management and the network side of the issuance protocol
// (Figure 3): the host generates the key pair, encrypts the request
// under kHA, sends it from its control EphID to the MS, and installs
// the certified EphID from the encrypted reply.

// pendingIssue remembers the keys bound by an outstanding request;
// replies are matched FIFO, which is sound because the request channel
// to the MS is ordered in the simulator.
type pendingIssue struct {
	dhPub, sigPub []byte
	deliver       func(*cert.Cert, error)
}

// RequestEphID asks the AS's MS for a fresh EphID of the given kind and
// lifetime, generating the key pair locally (Figure 3: the host
// generates the keys because they protect data the AS must not read).
// cb fires when the reply arrives.
func (h *Host) RequestEphID(kind ephid.Kind, lifetime uint32, cb func(*OwnedEphID, error)) error {
	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		return err
	}
	sig, err := crypto.GenerateSigner()
	if err != nil {
		return err
	}
	return h.RequestEphIDFor(kind, lifetime, dh.PublicKey(), sig.PublicKey(),
		func(c *cert.Cert, err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			owned := &OwnedEphID{Cert: *c, DH: dh, Sig: sig}
			h.AddEphID(owned)
			h.stats.EphIDsIssued++
			cb(owned, nil)
		})
}

// RequestRenewal asks the MS for a successor to an EphID nearing
// expiry: a fresh identifier of the same kind, bound to freshly
// generated keys, issued through the renewal path so the MS can
// rate-limit identifier churn per host (a compromised host must not be
// able to cycle EphIDs faster than shutoff strikes accumulate,
// Section VIII-G2). The old EphID stays valid until its own expiry;
// callers migrate live flows to the successor and then Release or
// Retire the predecessor.
func (h *Host) RequestRenewal(old *OwnedEphID, lifetime uint32, cb func(*OwnedEphID, error)) error {
	if old == nil {
		return ErrNoEphID
	}
	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		return err
	}
	sig, err := crypto.GenerateSigner()
	if err != nil {
		return err
	}
	req := &ms.Request{Kind: old.Cert.Kind, Lifetime: lifetime, Flags: ms.ReqFlagRenew, Prev: old.Cert.EphID}
	copy(req.DHPub[:], dh.PublicKey())
	copy(req.SigPub[:], sig.PublicKey())
	return h.requestEphID(req, func(c *cert.Cert, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		owned := &OwnedEphID{Cert: *c, DH: dh, Sig: sig}
		h.AddEphID(owned)
		h.stats.EphIDsIssued++
		h.stats.EphIDsRenewed++
		cb(owned, nil)
	})
}

// RequestEphIDFor asks the MS for an EphID bound to externally supplied
// public keys. This is the relay path a NAT-mode access point uses:
// "the AP uses an ephemeral public key that is supplied by its host"
// (Section VII-B) — the private halves never leave the client.
func (h *Host) RequestEphIDFor(kind ephid.Kind, lifetime uint32, dhPub, sigPub []byte,
	deliver func(*cert.Cert, error)) error {
	req := &ms.Request{Kind: kind, Lifetime: lifetime}
	copy(req.DHPub[:], dhPub)
	copy(req.SigPub[:], sigPub)
	return h.requestEphID(req, deliver)
}

// requestEphID encrypts and sends an issuance (or renewal) request to
// the MS and registers the FIFO reply continuation.
func (h *Host) requestEphID(req *ms.Request, deliver func(*cert.Cert, error)) error {
	ct, err := ms.EncodeRequest(h.cfg.Keys.Enc[:], h.cfg.CtrlEphID, req)
	if err != nil {
		return err
	}
	msEndpoint := wire.Endpoint{AID: h.cfg.MSCert.AID, EphID: h.cfg.MSCert.EphID}
	if err := h.send(wire.ProtoControl, wire.FlagControl, h.cfg.CtrlEphID, msEndpoint, ct, nil); err != nil {
		return err
	}
	h.pendingEphID = append(h.pendingEphID, &pendingIssue{
		dhPub:   append([]byte(nil), req.DHPub[:]...),
		sigPub:  append([]byte(nil), req.SigPub[:]...),
		deliver: deliver,
	})
	return nil
}

// handleControlReply processes an MS reply: decrypt the certificate,
// check it binds the requested keys, and hand it to the requester.
func (h *Host) handleControlReply(hdr *wire.Header, payload []byte) {
	if len(h.pendingEphID) == 0 {
		return
	}
	p := h.pendingEphID[0]
	h.pendingEphID = h.pendingEphID[1:]

	c, err := ms.DecodeReply(h.cfg.Keys.Enc[:], hdr.DstEphID, payload)
	if err != nil {
		p.deliver(nil, err)
		return
	}
	if !bytes.Equal(c.DHPub[:], p.dhPub) || !bytes.Equal(c.SigPub[:], p.sigPub) {
		p.deliver(nil, fmt.Errorf("%w: reply binds foreign keys", ErrBadPeerCert))
		return
	}
	p.deliver(c, nil)
}

// AddEphID installs an EphID into the pool (used by the issuance path
// and by tests that mint out-of-band).
func (h *Host) AddEphID(o *OwnedEphID) {
	h.pool[o.Cert.EphID] = o
	h.poolList = append(h.poolList, o)
}

// Lookup returns the owned EphID record, if any.
func (h *Host) Lookup(e ephid.EphID) (*OwnedEphID, bool) {
	o, ok := h.pool[e]
	return o, ok
}

// PoolSize reports how many EphIDs the host currently holds.
func (h *Host) PoolSize() int { return len(h.poolList) }

// Granularity selects how a host assigns EphIDs to traffic
// (Section VIII-A).
type Granularity uint8

const (
	// PerHost: one EphID for everything. Cheapest, fully linkable,
	// one shutoff kills all flows.
	PerHost Granularity = iota
	// PerFlow: a fresh EphID per connection. Unlinkable flows,
	// shutoffs only hit one flow.
	PerFlow
	// PerApplication: one EphID per application label.
	PerApplication
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case PerHost:
		return "per-host"
	case PerFlow:
		return "per-flow"
	case PerApplication:
		return "per-application"
	default:
		return fmt.Sprintf("granularity(%d)", uint8(g))
	}
}

// Acquire picks an EphID from the pool under the given granularity
// policy. app is only used by PerApplication. It returns ErrNoEphID if
// the policy needs an identifier the pool cannot supply (callers then
// RequestEphID and retry).
func (h *Host) Acquire(g Granularity, app string) (*OwnedEphID, error) {
	switch g {
	case PerHost:
		for _, o := range h.poolList {
			if h.claim(o, PerHost, "") {
				return o, nil
			}
		}
	case PerFlow:
		for _, o := range h.poolList {
			if h.claim(o, PerFlow, "") {
				return o, nil
			}
		}
	case PerApplication:
		// An EphID already labeled for this app wins; otherwise claim an
		// unlabeled one. Both paths run through claim, which re-validates
		// under the current clock at the moment of mutation.
		for _, o := range h.poolList {
			if o.App == app && h.claim(o, PerApplication, app) {
				return o, nil
			}
		}
		for _, o := range h.poolList {
			if o.App == "" && h.claim(o, PerApplication, app) {
				return o, nil
			}
		}
	}
	return nil, ErrNoEphID
}

// claim is the single pool-mutation helper every acquisition path —
// granularity policies, serving-EphID selection and the renewal loop —
// funnels through. It re-validates usability under the current clock
// immediately before mutating, closing the window where an EphID
// selected earlier expires (or is reaped by renewal) and would
// otherwise be relabeled or marked in-use while dead. It reports
// whether the claim succeeded; on false the pool is unchanged.
func (h *Host) claim(o *OwnedEphID, g Granularity, app string) bool {
	if !usable(o, h.cfg.Now()) {
		return false
	}
	switch g {
	case PerFlow:
		if o.InUse {
			return false
		}
		o.InUse = true
	case PerApplication:
		if o.InUse || (o.App != "" && o.App != app) {
			return false
		}
		o.App = app
	}
	return true
}

// Release returns an EphID to the pool: the per-flow InUse mark clears
// so the identifier can source a later flow. Idempotent; identifiers
// that were never claimed are unaffected. Per-application labels
// persist — the label is the policy, not a lease. Callers who need
// strict cross-peer unlinkability should Retire instead of re-dialing a
// released identifier toward a different peer.
func (h *Host) Release(o *OwnedEphID) {
	if o == nil || !o.InUse {
		return
	}
	o.InUse = false
	h.stats.EphIDsReleased++
}

// Retire removes an EphID from the pool entirely — the teardown for
// identifiers that must never source another flow (strict per-flow
// unlinkability) and for superseded EphIDs after renewal migration.
func (h *Host) Retire(o *OwnedEphID) {
	if o == nil {
		return
	}
	if _, ok := h.pool[o.Cert.EphID]; !ok {
		return
	}
	delete(h.pool, o.Cert.EphID)
	for i, p := range h.poolList {
		if p == o {
			h.poolList = append(h.poolList[:i], h.poolList[i+1:]...)
			break
		}
	}
	h.forgetHandshakes()
}

// forgetHandshakes drops the completed-handshake records whose
// addressed EphID has left the pool. The responder path looks the
// addressed EphID up in the pool before it consults hsCompleted, so
// such a record can never be read again; replay protection for pooled
// EphIDs is untouched.
func (h *Host) forgetHandshakes() {
	for fk := range h.hsCompleted {
		if _, ok := h.pool[fk.dst]; !ok {
			delete(h.hsCompleted, fk)
		}
	}
}

// ReapExpired drops expired EphIDs from the pool, returning how many
// were removed. Expired identifiers cannot pass any border-router
// check; keeping them only masks starvation (PoolSize looks healthy
// while every Acquire fails). The lifecycle timer calls this on its
// cadence; tests may call it directly.
func (h *Host) ReapExpired() int {
	now := h.cfg.Now()
	kept := h.poolList[:0]
	reaped := 0
	for _, o := range h.poolList {
		if o.Cert.Expired(now) {
			delete(h.pool, o.Cert.EphID)
			reaped++
			continue
		}
		kept = append(kept, o)
	}
	for i := len(kept); i < len(h.poolList); i++ {
		h.poolList[i] = nil
	}
	h.poolList = kept
	h.stats.EphIDsReaped += uint64(reaped)
	if reaped > 0 {
		h.forgetHandshakes()
	}
	return reaped
}

// ExpiringBefore returns the pooled EphIDs whose certificates expire at
// or before the deadline (Unix seconds), in pool order — the renewal
// loop's watch list. Receive-only identifiers are included: their
// renewal is republication, which the caller owns.
func (h *Host) ExpiringBefore(deadline int64) []*OwnedEphID {
	var out []*OwnedEphID
	for _, o := range h.poolList {
		if int64(o.Cert.ExpTime) <= deadline {
			out = append(out, o)
		}
	}
	return out
}

// usable reports whether an EphID can source traffic: unexpired and not
// receive-only.
func usable(o *OwnedEphID, now int64) bool {
	return !o.Cert.Expired(now) && o.Cert.Kind != ephid.KindReceiveOnly
}

// pickServing returns a sendable EphID for answering connections made
// to a receive-only identifier (Section VII-A: the server responds with
// the certificate of a serving EphID, never the receive-only one).
// EphIDs claimed by the per-flow policy are skipped: answering from an
// identifier bound to another flow would let an observer link the two
// flows, breaking the unlinkability that per-flow granularity buys
// (Section VIII-A).
func (h *Host) pickServing() *OwnedEphID {
	now := h.cfg.Now()
	for _, o := range h.poolList {
		if usable(o, now) && !o.InUse {
			return o
		}
	}
	return nil
}
