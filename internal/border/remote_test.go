package border

import (
	"testing"

	"apna/internal/ephid"
	"apna/internal/wire"
)

// Remote revocations — EphIDs revoked by *other* ASes, learned through
// the inter-domain accountability plane — are enforced at ingress
// against the frame's source, so a remotely-shutoff sender cannot
// reach local hosts by injecting past its own AS's egress checks.

func TestIngressDropsRemotelyRevokedSource(t *testing.T) {
	f := newFixture(t)
	frame := ingressFrame(t, f)
	if v, hid := f.router.IngressVerify(frame); v != VerdictForward || hid != f.hid {
		t.Fatalf("clean frame: verdict %v hid %v", v, hid)
	}

	f.router.ApplyRemote(wire.FrameSrcEphID(frame), localAID, uint32(f.now)+600)

	if v, _ := f.router.IngressVerify(frame); v != VerdictDropRevokedRemote {
		t.Fatalf("verdict %v, want drop-revoked-remote", v)
	}
	pipe := f.router.NewIngressPipeline()
	if v, _ := ingressOne(pipe, frame); v != VerdictDropRevokedRemote {
		t.Fatalf("pipeline verdict %v, want drop-revoked-remote", v)
	}
	// The local list is untouched: remote and local revocations are
	// separate authorities.
	if f.router.Revoked().Contains(wire.FrameSrcEphID(frame)) {
		t.Fatal("remote install leaked into the local revocation list")
	}
}

func TestRemoteRevocationIsOriginScoped(t *testing.T) {
	f := newFixture(t)
	frame := ingressFrame(t, f)
	// An announcement by an AS that is NOT the frame's claimed source
	// carries no authority over the identifier: only the issuing AS may
	// kill its own EphIDs, so a rogue peer cannot blackhole another
	// AS's senders (or overwrite its announcements).
	f.router.ApplyRemote(wire.FrameSrcEphID(frame), remoteAID, uint32(f.now)+600)
	if v, _ := f.router.IngressVerify(frame); v != VerdictForward {
		t.Fatalf("verdict %v: a foreign announcement blocked another AS's sender", v)
	}
	// The genuine origin's announcement still applies alongside it.
	f.router.ApplyRemote(wire.FrameSrcEphID(frame), localAID, uint32(f.now)+600)
	if v, _ := f.router.IngressVerify(frame); v != VerdictDropRevokedRemote {
		t.Fatalf("verdict %v, want drop-revoked-remote from the true origin", v)
	}
}

func TestRemoteRevocationDoesNotAffectEgress(t *testing.T) {
	f := newFixture(t)
	frame := egressFrame(t, f)
	// A remote revocation of some other AS's EphID must not block local
	// hosts' egress (their EphIDs are judged by the local list).
	f.router.ApplyRemote(wire.FrameSrcEphID(frame), localAID, uint32(f.now)+600)
	if v, _ := f.router.EgressVerify(frame); v != VerdictForward {
		t.Fatalf("egress verdict %v, want forward", v)
	}
}

func TestRemoteRevocationListGC(t *testing.T) {
	f := newFixture(t)
	var live, dead ephid.EphID
	live[0], dead[0] = 1, 2
	f.router.ApplyRemote(live, remoteAID, uint32(f.now)+600)
	f.router.ApplyRemote(dead, remoteAID, uint32(f.now)-1)
	if n := f.router.RemoteRevoked().GC(f.now); n != 1 {
		t.Fatalf("GC reaped %d, want 1", n)
	}
	if !f.router.RemoteRevoked().Contains(live) || f.router.RemoteRevoked().Contains(dead) {
		t.Fatal("GC reaped the wrong remote entry")
	}
}

func TestIngressRemoteRevokedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	f := newFixture(t)
	frame := ingressFrame(t, f)
	f.router.ApplyRemote(wire.FrameSrcEphID(frame), localAID, uint32(f.now)+600)
	pipe := f.router.NewIngressPipeline()
	if v, _ := ingressOne(pipe, frame); v != VerdictDropRevokedRemote { // warm caches
		t.Fatalf("warm-up verdict %v", v)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if v, _ := ingressOne(pipe, frame); v != VerdictDropRevokedRemote {
			t.Fatalf("verdict %v", v)
		}
	})
	if allocs != 0 {
		t.Fatalf("remote-revocation drop allocates %.1f times per packet", allocs)
	}
}
