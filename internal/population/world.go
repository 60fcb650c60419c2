package population

import (
	"crypto/sha256"
	"encoding/binary"
	"sync/atomic"

	"apna/internal/asnode"
	"apna/internal/cert"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/ms"
	"apna/internal/rpki"
	"apna/internal/wire"
)

// AS identifiers of the modeled world: localAID is the AS under test
// (its MS, hostdb, AA and accountability engine take the load); victim
// AID is a minimal second AS that exists so complaints arrive over the
// inter-domain path, signed by a foreign AS key, the way they would at
// an internet border.
const (
	localAID  ephid.AID = 100
	victimAID ephid.AID = 200
)

// startTime is the virtual epoch, matching the rest of the repo's
// fixtures.
const startTime int64 = 1_000_000

// world is the control-plane instance the population drives: the AS
// under test as asnode builds it, but without simulated hosts or a
// network — workers call the engines directly, which is what lets
// 10^6–10^7 modeled hosts fit in one process.
type world struct {
	*asnode.Node
	clock atomic.Int64
	// horizon is the control-EphID expiry: safely past the run, so
	// control identifiers never lapse mid-measurement.
	horizon uint32

	// Victim-AS materials for building complaints: the victim AS's
	// RPKI-certified signer (signs ShutoffRequests), one victim host
	// with a certificate issued by that AS, and the signer holding the
	// certificate's key.
	victimASSigner   *crypto.Signer
	victimCert       *cert.Cert
	victimHostSigner *crypto.Signer

	// digestBytes accumulates the wire size of every flushed digest
	// (the engine's SetSend hook feeds it) — the digest-size metric.
	digestBytes atomic.Uint64
}

// seedBytes derives a 32-byte deterministic secret from the run seed
// and a domain label, so every key in the world is a pure function of
// the configuration.
func seedBytes(seed int64, label string) []byte {
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(label))
	return h.Sum(nil)
}

// newWorld builds the AS under test and the victim AS from the seed.
func newWorld(cfg Config) (*world, error) {
	w := &world{}
	w.clock.Store(startTime)
	now := func() int64 { return w.clock.Load() }

	secret, err := crypto.ASSecretFromBytes(seedBytes(cfg.Seed, "as/secret")[:crypto.SymKeySize])
	if err != nil {
		return nil, err
	}
	w.Node, err = asnode.New(localAID, secret, cfg.Hosts, now)
	if err != nil {
		return nil, err
	}
	signer, err := crypto.SignerFromSeed(seedBytes(cfg.Seed, "as/signer"))
	if err != nil {
		return nil, err
	}
	dh, err := crypto.KeyPairFromSeed(seedBytes(cfg.Seed, "as/dh"))
	if err != nil {
		return nil, err
	}

	// Victim AS: its own secret, sealer, RPKI-certified signer, and an
	// agent EphID for the digest peer registration.
	vSecret, err := crypto.ASSecretFromBytes(seedBytes(cfg.Seed, "victim/secret")[:crypto.SymKeySize])
	if err != nil {
		return nil, err
	}
	vSealer, err := ephid.NewSealer(vSecret)
	if err != nil {
		return nil, err
	}
	w.victimASSigner, err = crypto.SignerFromSeed(seedBytes(cfg.Seed, "victim/signer"))
	if err != nil {
		return nil, err
	}
	vDH, err := crypto.KeyPairFromSeed(seedBytes(cfg.Seed, "victim/dh"))
	if err != nil {
		return nil, err
	}

	// One RPKI authority certifies both ASes into a shared trust store.
	authority, err := rpki.NewAuthority()
	if err != nil {
		return nil, err
	}
	trust := rpki.NewTrustStore(authority.PublicKey())
	horizon := startTime + int64(cfg.Ticks) + 365*24*3600
	w.horizon = uint32(horizon)
	for _, as := range []struct {
		aid    ephid.AID
		sigPub []byte
		dhPub  []byte
	}{
		{localAID, signer.PublicKey(), dh.PublicKey()},
		{victimAID, w.victimASSigner.PublicKey(), vDH.PublicKey()},
	} {
		rec, err := authority.Certify(as.aid, as.sigPub, as.dhPub, horizon)
		if err != nil {
			return nil, err
		}
		if err := trust.Add(rec); err != nil {
			return nil, err
		}
	}

	// Control-plane engines of the AS under test. The AA's control
	// EphID is minted directly (the RS bootstrap analogue) with an
	// expiry past the run.
	policy := ms.DefaultPolicy()
	if cfg.RenewBurst > 0 {
		policy.RenewBurst = cfg.RenewBurst
	}
	w.AddControl(asnode.Control{
		Signer: signer, Trust: trust, Policy: policy, StrikeLimit: strikeLimit,
		AAEphID: w.Sealer.Mint(ephid.Payload{HID: 1, ExpTime: uint32(horizon)}),
	})
	// The transport only has to account bytes: digests leave for the
	// victim AS's agent, and the population measures how big they got.
	w.Acct.SetSend(func(_ wire.Endpoint, payload []byte) error {
		w.digestBytes.Add(uint64(len(payload)))
		return nil
	})

	// The victim host: a certificate issued by the victim AS, with a
	// signing key we hold so complaints carry a valid victim signature.
	w.victimHostSigner, err = crypto.SignerFromSeed(seedBytes(cfg.Seed, "victim/host/signer"))
	if err != nil {
		return nil, err
	}
	vHostDH, err := crypto.KeyPairFromSeed(seedBytes(cfg.Seed, "victim/host/dh"))
	if err != nil {
		return nil, err
	}
	victimEphID := vSealer.Mint(ephid.Payload{HID: 1, ExpTime: uint32(horizon)})
	vAgentEphID := vSealer.Mint(ephid.Payload{HID: 2, ExpTime: uint32(horizon)})
	w.victimCert = &cert.Cert{
		Kind: ephid.KindData, EphID: victimEphID, ExpTime: uint32(horizon),
		AID: victimAID, AAEphID: vAgentEphID,
	}
	copy(w.victimCert.DHPub[:], vHostDH.PublicKey())
	copy(w.victimCert.SigPub[:], w.victimHostSigner.PublicKey())
	w.victimCert.Sign(w.victimASSigner)

	w.Acct.RegisterPeer(victimAID, vAgentEphID)
	return w, nil
}

// hostKeys derives one modeled host's kHA key pair deterministically
// from the run seed and its HID.
func hostKeys(seed int64, hid ephid.HID) crypto.HostASKeys {
	var b [12]byte
	binary.BigEndian.PutUint64(b[:8], uint64(seed))
	binary.BigEndian.PutUint32(b[8:], uint32(hid))
	return crypto.DeriveHostASKeys(b[:])
}
