package pktgen

import (
	"fmt"
	"math/rand"
	"time"

	"apna/internal/asnode"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/netsim"
	"apna/internal/wire"
)

// BadKind enumerates the adversarial frame variants a World can mix
// into its traffic, exercising every data-plane drop verdict.
type BadKind int

const (
	// BadForgedSrc carries a source EphID that no AS minted.
	BadForgedSrc BadKind = iota
	// BadExpiredSrc carries a source EphID whose lifetime has passed.
	BadExpiredSrc
	// BadRevokedSrc carries a source EphID on the revocation list.
	BadRevokedSrc
	// BadMAC carries a corrupted per-packet MAC (spoofed source).
	BadMAC
	// BadForgedDst carries a forged destination EphID (dropped at
	// ingress).
	BadForgedDst
	// BadRemoteRevokedSrc carries a genuine, validly-MACed source EphID
	// that the *destination* AS has learned is revoked through the
	// inter-domain accountability plane — the frame passes the source
	// AS's egress checks and is dropped only by the remote revocation
	// list at ingress.
	BadRemoteRevokedSrc

	badKinds
)

// Lane is one directed stream of traffic between two ASes of a World:
// frames minted by Src's hosts, addressed to Dst's hosts, routed via
// Src's next-hop table.
type Lane struct {
	Src, Dst *Fixture
	// Frames holds the lane's traffic, good and bad mixed, all of
	// equal size.
	Frames [][]byte
	// Bad counts the adversarial frames per kind.
	Bad [badKinds]int
}

// World is a multi-AS data plane: one Fixture per AS (router, sealer,
// host population), ring adjacency with computed next-hop tables, and
// one traffic lane per AS toward its ring successor. It is what the
// parallel forwarding engine saturates in experiment E8.
type World struct {
	ASes  []*Fixture
	Lanes []*Lane
	// Now is the fixed clock every router checks expiry against.
	Now int64
}

// WorldConfig sizes a World.
type WorldConfig struct {
	// ASes is the number of autonomous systems (>= 2).
	ASes int
	// HostsPerAS is each AS's registered host population.
	HostsPerAS int
	// FrameSize is the total APNA frame size in bytes.
	FrameSize int
	// FramesPerLane is the number of frames minted per lane; 0 means
	// one per source host.
	FramesPerLane int
	// BadFrac in [0,1] is the fraction of frames replaced with
	// adversarial variants (cycling through every BadKind).
	BadFrac float64
	// Seed drives the deterministic placement of bad frames.
	Seed int64
}

// NewWorld builds the multi-AS data plane.
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.ASes < 2 {
		return nil, fmt.Errorf("pktgen: world needs >= 2 ASes, got %d", cfg.ASes)
	}
	if cfg.HostsPerAS < 1 {
		return nil, fmt.Errorf("pktgen: world needs >= 1 host per AS, got %d", cfg.HostsPerAS)
	}
	if cfg.BadFrac < 0 || cfg.BadFrac > 1 {
		return nil, fmt.Errorf("pktgen: bad fraction %v outside [0,1]", cfg.BadFrac)
	}
	if cfg.FrameSize < wire.HeaderSize {
		return nil, fmt.Errorf("pktgen: frame size %d below header size %d", cfg.FrameSize, wire.HeaderSize)
	}
	framesPerLane := cfg.FramesPerLane
	if framesPerLane <= 0 {
		framesPerLane = cfg.HostsPerAS
	}

	w := &World{Now: 1_000_000}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Stand up the per-AS data planes. AIDs are 100, 101, ...
	for i := 0; i < cfg.ASes; i++ {
		f, err := newFixture(ephid.AID(100+i), cfg.HostsPerAS, i, w.Now)
		if err != nil {
			return nil, err
		}
		w.ASes = append(w.ASes, f)
	}

	// Ring adjacency with computed next-hop tables, and real ports so
	// route lookups resolve: the engine never sends on them, but the
	// tables must contain them (as they would in deployment).
	sim := netsim.New(cfg.Seed)
	adj := make(map[ephid.AID][]ephid.AID, cfg.ASes)
	for i, f := range w.ASes {
		next := w.ASes[(i+1)%cfg.ASes]
		link := sim.NewLink(fmt.Sprintf("%v-%v", f.AID, next.AID), time.Millisecond, 0)
		f.Router.AttachNeighbor(next.AID, link.A())
		next.Router.AttachNeighbor(f.AID, link.B())
		adj[f.AID] = append(adj[f.AID], next.AID)
		adj[next.AID] = append(adj[next.AID], f.AID)
	}
	tables := netsim.ComputeAllRoutes(adj)
	for _, f := range w.ASes {
		f.Router.SetRoutes(tables[f.AID])
	}

	// One lane per AS toward its ring successor, with bad frames mixed
	// in deterministically.
	for i, src := range w.ASes {
		dst := w.ASes[(i+1)%cfg.ASes]
		lane := &Lane{Src: src, Dst: dst}
		payload := make([]byte, cfg.FrameSize-wire.HeaderSize)
		for j := 0; j < framesPerLane; j++ {
			hostIdx := j % cfg.HostsPerAS
			kind := BadKind(-1)
			if cfg.BadFrac > 0 && rng.Float64() < cfg.BadFrac {
				kind = BadKind(rng.Intn(int(badKinds)))
				lane.Bad[kind]++
			}
			frame, err := mintLaneFrame(src, dst, hostIdx, uint64(j)+1, payload, kind, rng)
			if err != nil {
				return nil, err
			}
			lane.Frames = append(lane.Frames, frame)
		}
		w.Lanes = append(w.Lanes, lane)
	}
	return w, nil
}

// newFixture builds one AS with fresh keys and registers its hosts in
// one batched snapshot swap.
func newFixture(aid ephid.AID, hosts, asIndex int, now int64) (*Fixture, error) {
	secret, err := crypto.NewASSecret()
	if err != nil {
		return nil, err
	}
	f := &Fixture{Now: now}
	f.Node, err = asnode.New(aid, secret, hosts, func() int64 { return f.Now })
	if err != nil {
		return nil, err
	}
	entries := make([]hostdb.Entry, 0, hosts)
	for i := 0; i < hosts; i++ {
		entries = append(entries, hostdb.Entry{
			HID: ephid.HID(i + 1),
			Keys: crypto.DeriveHostASKeys([]byte{
				byte(i), byte(i >> 8), byte(i >> 16), byte(asIndex), 0x7}),
			RegisteredAt: f.Now,
		})
	}
	f.DB.PutBatch(entries)
	return f, nil
}

// mintLaneFrame builds one frame from src host hostIdx toward the
// matching dst host, optionally sabotaged per kind.
func mintLaneFrame(src, dst *Fixture, hostIdx int, nonce uint64, payload []byte, kind BadKind, rng *rand.Rand) ([]byte, error) {
	srcHID := ephid.HID(hostIdx + 1)
	dstHID := ephid.HID(hostIdx + 1)
	exp := uint32(src.Now) + 3600

	srcEphID := src.Sealer.Mint(ephid.Payload{HID: srcHID, ExpTime: exp})
	dstEphID := dst.Sealer.Mint(ephid.Payload{HID: dstHID, ExpTime: uint32(dst.Now) + 3600})

	switch kind {
	case BadForgedSrc:
		rng.Read(srcEphID[:])
	case BadExpiredSrc:
		srcEphID = src.Sealer.Mint(ephid.Payload{HID: srcHID, ExpTime: uint32(src.Now) - 10})
	case BadRevokedSrc:
		src.Router.Revoked().Insert(srcEphID, exp)
	case BadForgedDst:
		rng.Read(dstEphID[:])
	case BadRemoteRevokedSrc:
		dst.Router.ApplyRemote(srcEphID, src.AID, exp)
	}

	p := wire.Packet{
		Header: wire.Header{
			NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit,
			Nonce:  nonce,
			SrcAID: src.AID, DstAID: dst.AID,
			SrcEphID: srcEphID, DstEphID: dstEphID,
		},
		Payload: payload,
	}
	frame, err := p.Encode()
	if err != nil {
		return nil, err
	}
	keys, err := src.DB.Get(srcHID)
	if err != nil {
		return nil, err
	}
	pm, err := wire.NewPacketMAC(keys.Keys.MAC[:])
	if err != nil {
		return nil, err
	}
	pm.Apply(frame)
	if kind == BadMAC {
		// Flip the frame's last byte: the final payload byte when there
		// is a payload, otherwise the last MAC byte — either way the
		// MAC check fails.
		frame[len(frame)-1] ^= 0xff
	}
	return frame, nil
}

// Shard splits frames into `workers` stripes by round-robin, so every
// worker sees every sender (the paper's RSS-style flow spraying).
func Shard(frames [][]byte, workers int) [][][]byte {
	if workers < 1 {
		workers = 1
	}
	out := make([][][]byte, workers)
	for i := range out {
		out[i] = make([][]byte, 0, (len(frames)+workers-1)/workers)
	}
	for i, f := range frames {
		out[i%workers] = append(out[i%workers], f)
	}
	return out
}
