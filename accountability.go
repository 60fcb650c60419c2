package apna

import (
	"encoding/binary"
	"errors"
	"time"

	"apna/internal/accountability"
	"apna/internal/host"
	"apna/internal/wire"
)

// The inter-domain accountability plane, at the facade level. Every AS
// built by this package carries an accountability engine
// (internal/accountability) next to its agent: victims complain to
// their *own* AS, which verifies the complaint and carries the shutoff
// across the border to the offender's AS; the offender's AS answers
// with a signed receipt and floods revocation digests so every border
// in the internet drops the revoked sender's frames. Host.Complain /
// ComplainAsync file complaints; the WithDissemination option turns on
// periodic digest dissemination; OnAccountability observes the whole
// plane.

// Re-exported inter-domain accountability types.
type (
	// ShutoffReceipt is the source AS's signed answer to a cross-AS
	// shutoff request, verified end-to-end against its RPKI key.
	ShutoffReceipt = accountability.Receipt
	// ShutoffStatus classifies a receipt's outcome.
	ShutoffStatus = accountability.Status
	// AcctEvent is one accountability-plane action (complaint, forward,
	// shutoff, receipt, digest flush/install).
	AcctEvent = accountability.Event
	// AcctStats counts one AS engine's accountability-plane activity.
	AcctStats = accountability.Stats
	// DisseminationMode selects how digests travel between ASes.
	DisseminationMode = accountability.Mode
)

// Re-exported dissemination modes.
const (
	// DisseminateMesh floods every digest directly to every peer AS —
	// the paper-literal O(N²) conformance reference, and the default.
	DisseminateMesh = accountability.ModeMesh
	// DisseminateRelay forwards origin-signed digests along the overlay
	// of physically linked ASes only (one batch per neighbor per
	// interval) — O(N·degree) messages with latency bounded by overlay
	// depth × interval.
	DisseminateRelay = accountability.ModeRelay
)

// Re-exported receipt statuses.
const (
	// ShutoffRevoked: the EphID was revoked by this request.
	ShutoffRevoked = accountability.StatusRevoked
	// ShutoffAlreadyRevoked: the EphID (or its host) was already
	// revoked — a no-op receipt.
	ShutoffAlreadyRevoked = accountability.StatusAlreadyRevoked
	// ShutoffExpiredNoOp: the EphID had already expired — a no-op
	// receipt.
	ShutoffExpiredNoOp = accountability.StatusExpiredNoOp
	// ShutoffRejected: the complaint failed verification.
	ShutoffRejected = accountability.StatusRejected
)

// ErrComplaintRejected means the accountability plane closed a
// complaint without a receipt: the victim-side agent refused to forward
// it (invalid proof), or the source agent dropped it as inauthentic.
var ErrComplaintRejected = errors.New("apna: complaint rejected by the accountability plane")

// DefaultDigestInterval is the revocation-digest dissemination cadence
// WithDissemination uses when given a non-positive interval.
const DefaultDigestInterval = 30 * time.Second

// DefaultSnapshotEvery is the facade's anti-entropy cadence: every 2nd
// digest flush carries the full announced set instead of a delta. It is
// deliberately tighter than the engine's own default because facade
// internets typically run under chaos with little churn — a receiver
// that lost the one delta carrying a revocation sees no later delta to
// reveal the gap, so the snapshot round is what repairs it, and its
// cadence bounds dissemination latency under loss.
const DefaultSnapshotEvery = 2

// Dissemination configures the revocation-digest plane: the flush
// cadence, the transport shape, and the anti-entropy snapshot period.
// Zero values select DefaultDigestInterval, DisseminateMesh and
// DefaultSnapshotEvery.
type Dissemination struct {
	// Interval is the digest flush cadence in virtual time.
	Interval time.Duration
	// Mode routes digests: DisseminateMesh floods every peer directly,
	// DisseminateRelay forwards along physical links only.
	Mode DisseminationMode
	// SnapshotEvery makes every k-th flush a full snapshot (anti-entropy
	// repair of lost or reordered deltas).
	SnapshotEvery int
}

// startDissemination applies the configuration a WithDissemination
// option asked for to every AS engine and starts the digest timer.
func (in *Internet) startDissemination(d Dissemination) {
	snap := d.SnapshotEvery
	if snap <= 0 {
		snap = DefaultSnapshotEvery
	}
	interval := d.Interval
	if interval <= 0 {
		interval = DefaultDigestInterval
	}
	for _, as := range in.ASes() {
		as.Acct.SetDissemination(d.Mode, snap)
	}
	in.Sim.Every(interval, func() {
		for _, as := range in.ASes() {
			as.Acct.FlushDigest()
		}
	})
}

// OnAccountability installs an observer for every accountability-plane
// event across all ASes (Event.AID identifies the engine). Scenario
// referees use it to timestamp revocations and digest installations.
func (in *Internet) OnAccountability(fn func(AcctEvent)) { in.acctObserver = fn }

// ComplainAsync files a complaint about the flow that delivered m with
// this host's own accountability agent, without driving the simulator.
// The future resolves with the offending AS's signed receipt — verified
// end-to-end against that AS's RPKI key — once the cross-AS exchange
// completes, or with ErrComplaintRejected if the plane refused the
// complaint.
func (h *Host) ComplainAsync(m host.Message) *Pending[*ShutoffReceipt] {
	agent, seq, err := h.Stack.RequestComplaint(m)
	if err != nil {
		return failedPending[*ShutoffReceipt](err)
	}
	p := newPending[*ShutoffReceipt]()
	key := complaintKey{agent: agent, seq: seq}
	h.complaints[key] = p
	// A complaint whose ack the chaos ate must not linger once the
	// timeline drains.
	p.onIdleAbandon = func() { delete(h.complaints, key) }
	h.as.in.registerLive(p)
	return p
}

// Complain synchronously files a complaint and returns the offending
// AS's verified receipt.
func (h *Host) Complain(m host.Message) (*ShutoffReceipt, error) {
	return AwaitResult(h.as.in, h.ComplainAsync(m))
}

// handleComplaintAck resolves complaint futures from MsgComplaintAck
// frames by the sequence number the agent echoes — receipts from
// different offenders' ASes arrive in arbitrary order, so concurrent
// complaints must not be matched FIFO. The receipt signature is
// verified here — end to end, at the complaining host — before the
// future resolves.
func (h *Host) handleComplaintAck(hdr *wire.Header, payload []byte) {
	if len(payload) < 10 || payload[0] != accountability.MsgComplaintAck {
		return
	}
	key := complaintKey{
		agent: Endpoint{AID: hdr.SrcAID, EphID: hdr.SrcEphID},
		seq:   binary.BigEndian.Uint64(payload[1:9]),
	}
	p, ok := h.complaints[key]
	if !ok {
		return // late duplicate, or the future was abandoned at idle
	}
	delete(h.complaints, key)
	if payload[9] == 0 {
		p.complete(nil, ErrComplaintRejected)
		return
	}
	rcpt, err := accountability.DecodeReceipt(payload[10:])
	if err != nil {
		p.complete(nil, err)
		return
	}
	if err := rcpt.Verify(h.as.in.Trust, h.as.in.Sim.NowUnix()); err != nil {
		p.complete(nil, err)
		return
	}
	p.complete(rcpt, nil)
}
