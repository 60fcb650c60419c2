package asnode

import (
	"testing"

	"apna/internal/aa"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/ms"
	"apna/internal/rpki"
	"apna/internal/wire"
)

const start int64 = 1_000_000

// pair is two ASes with control planes, certified into one trust store.
func pair(t *testing.T) (src, dst *Node) {
	t.Helper()
	authority, err := rpki.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	trust := rpki.NewTrustStore(authority.PublicKey())
	now := func() int64 { return start }
	var nodes [2]*Node
	for i, aid := range []ephid.AID{100, 200} {
		secret, err := crypto.NewASSecret()
		if err != nil {
			t.Fatal(err)
		}
		signer, err := crypto.GenerateSigner()
		if err != nil {
			t.Fatal(err)
		}
		dh, err := crypto.GenerateKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := authority.Certify(aid, signer.PublicKey(), dh.PublicKey(), start+3600)
		if err != nil {
			t.Fatal(err)
		}
		if err := trust.Add(rec); err != nil {
			t.Fatal(err)
		}
		n, err := New(aid, secret, 0, now)
		if err != nil {
			t.Fatal(err)
		}
		n.AddControl(Control{
			Signer: signer, Trust: trust, Policy: ms.DefaultPolicy(),
			AAEphID: n.Sealer.Mint(ephid.Payload{HID: 1, ExpTime: uint32(start) + 3600}),
		})
		nodes[i] = n
	}
	return nodes[0], nodes[1]
}

// TestNodeWiring checks the connections AddControl makes: a shutoff the
// agent orders reaches the node's router and the engine's next digest,
// and that digest, applied by the peer's engine, reaches the peer's
// router. A bare node has no control plane, and the host database is
// sized from the expected host count.
func TestNodeWiring(t *testing.T) {
	src, dst := pair(t)

	// An offending host at src sends one packet to a victim at dst.
	offender := hostdb.Entry{HID: 7, Keys: crypto.DeriveHostASKeys([]byte("offender")), RegisteredAt: start}
	src.DB.Put(offender)
	victimSigner, err := crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	req := &ms.Request{Kind: ephid.KindData, Lifetime: 900}
	copy(req.SigPub[:], victimSigner.PublicKey())
	victim, err := dst.MS.Issue(3, req)
	if err != nil {
		t.Fatal(err)
	}
	bad := src.Sealer.Mint(ephid.Payload{HID: offender.HID, ExpTime: uint32(start) + 600})
	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit, Nonce: 1,
			SrcAID: src.AID, DstAID: dst.AID, SrcEphID: bad, DstEphID: victim.EphID,
		},
		Payload: []byte("unwanted"),
	}
	frame, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pm, err := wire.NewPacketMAC(offender.Keys.MAC[:])
	if err != nil {
		t.Fatal(err)
	}
	pm.Apply(frame)

	// The victim's complaint, handled by the offender's agent.
	if _, err := src.Agent.HandleShutoff(aa.BuildRequest(frame, victim, victimSigner)); err != nil {
		t.Fatalf("shutoff: %v", err)
	}
	if !src.Router.Revoked().Contains(bad) {
		t.Error("agent shutoff did not reach the router's revocation list")
	}
	var sent [][]byte
	src.Acct.SetSend(func(_ wire.Endpoint, payload []byte) error {
		sent = append(sent, payload)
		return nil
	})
	src.Acct.RegisterPeer(dst.AID, victim.AAEphID)
	if n := src.Acct.FlushDigest(); n != 1 || len(sent) != 1 {
		t.Fatalf("digest announced %d entries in %d messages, want the shutoff in 1", n, len(sent))
	}

	// The peer's engine applies the digest to its own router.
	dst.Acct.HandleMessage(wire.Endpoint{AID: src.AID}, sent[0])
	if !dst.Router.RemoteRevoked().Matches(bad, src.AID) {
		t.Error("remote revocation applied by the engine did not reach the router's remote list")
	}

	bare, err := New(300, src.Secret, 0, func() int64 { return start })
	if err != nil {
		t.Fatal(err)
	}
	if bare.MS != nil || bare.Agent != nil || bare.Acct != nil {
		t.Errorf("node without control has MS %v, Agent %v, Acct %v", bare.MS, bare.Agent, bare.Acct)
	}

	for _, c := range []struct{ hosts, shards int }{
		{0, 64}, {262_144, 64}, {262_145, 128}, {1 << 24, 4096},
	} {
		n, err := New(300, src.Secret, c.hosts, func() int64 { return start })
		if err != nil {
			t.Fatal(err)
		}
		if got := n.DB.ShardCount(); got != c.shards {
			t.Errorf("%d hosts: %d shards, want %d", c.hosts, got, c.shards)
		}
	}
}
