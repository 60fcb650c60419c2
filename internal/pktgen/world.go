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
	"apna/internal/spare"
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

// NewWorld builds the multi-AS data plane. Its seeded output — every
// lane's bad-frame placement, kinds and forged EphIDs — is drawn first,
// in order, from one rng; the work that follows, the AS fixtures and
// then the lanes, runs on the caller and on the spare cores
// internal/spare lends it (spare.Each), and reads nothing of the rng.
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

	// Place every lane's bad frames, lane by lane and frame by frame, so
	// the rng is read in one fixed order whichever core mints the lane.
	w.Lanes = make([]*Lane, cfg.ASes)
	plans := make([][]badFrame, cfg.ASes)
	for i := range w.Lanes {
		w.Lanes[i] = &Lane{}
		plans[i] = placeBad(w.Lanes[i], framesPerLane, cfg.BadFrac, rng)
	}

	// Stand up the per-AS data planes. AIDs are 100, 101, ...
	w.ASes = make([]*Fixture, cfg.ASes)
	err := spare.Each(cfg.ASes, func(i int) (err error) {
		w.ASes[i], err = newFixture(ephid.AID(100+i), cfg.HostsPerAS, i, w.Now)
		return err
	})
	if err != nil {
		return nil, err
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

	// One lane per AS toward its ring successor. A lane writes its
	// source's local revocation list and its destination's remote one;
	// in the ring no two lanes write one list, so each list gets its
	// entries in the order one core would give them.
	err = spare.Each(cfg.ASes, func(i int) error {
		lane := w.Lanes[i]
		lane.Src, lane.Dst = w.ASes[i], w.ASes[(i+1)%cfg.ASes]
		return mintLane(lane, plans[i], framesPerLane, cfg.HostsPerAS, cfg.FrameSize)
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// badFrame is one adversarial frame of a lane: its index, its kind and,
// for a forged kind, the EphID bytes that replace the genuine one.
type badFrame struct {
	at     int
	kind   BadKind
	forged ephid.EphID
}

// placeBad draws lane's bad frames from rng in the order NewWorld has
// always drawn them — per frame a Float64, for a bad frame an Intn, and
// for a forged kind a Read — counts them in lane.Bad and returns them in
// frame order.
func placeBad(lane *Lane, frames int, frac float64, rng *rand.Rand) []badFrame {
	if frac == 0 {
		return nil
	}
	var plan []badFrame
	for j := 0; j < frames; j++ {
		if rng.Float64() >= frac {
			continue
		}
		b := badFrame{at: j, kind: BadKind(rng.Intn(int(badKinds)))}
		if b.kind == BadForgedSrc || b.kind == BadForgedDst {
			rng.Read(b.forged[:])
		}
		lane.Bad[b.kind]++
		plan = append(plan, b)
	}
	return plan
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

// macChunk is how many frames one wire.MACBatch pass MACs.
const macChunk = 64

// mintLane mints lane's n frames, from source host j mod hosts to the
// same destination host, sabotaging those plan names, in one pass. The
// frames are carved from one slab, each capped at its own bytes; each
// source host's packet-MAC schedule is built once; and the MACs are
// applied macChunk frames at a time through one wire.MACBatch.
func mintLane(lane *Lane, plan []badFrame, n, hosts, frameSize int) error {
	payload := make([]byte, frameSize-wire.HeaderSize)
	slab := make([]byte, n*frameSize)
	lane.Frames = make([][]byte, n)
	// One schedule per source host, keyed at the host's first frame.
	// When no host sends twice, a schedule is dead once its chunk is
	// MACed, so one chunk's worth is rekeyed chunk after chunk.
	schedules := hosts
	if n <= hosts {
		schedules = min(n, macChunk)
	}
	macs := make([]wire.PacketMAC, schedules)
	var (
		batch wire.MACBatch
		flips []int
	)
	for c := 0; c < n; c += macChunk {
		end := min(c+macChunk, n)
		batch.Reset(end - c)
		flips = flips[:0]
		for j := c; j < end; j++ {
			bad := badFrame{kind: -1}
			if len(plan) > 0 && plan[0].at == j {
				bad, plan = plan[0], plan[1:]
			}
			hid := ephid.HID(j%hosts + 1)
			m := &macs[j%hosts%len(macs)]
			if j < hosts {
				e, err := lane.Src.DB.Get(hid)
				if err != nil {
					return err
				}
				if err := m.Init(e.Keys.MAC[:]); err != nil {
					return err
				}
			}
			at := j * frameSize
			frame, err := mintFrame(lane.Src, lane.Dst, hid, uint64(j)+1, payload, bad, slab[at:at:at+frameSize])
			if err != nil {
				return err
			}
			lane.Frames[j] = frame
			batch.Add(m, frame)
			if bad.kind == BadMAC {
				flips = append(flips, j)
			}
		}
		batch.Apply()
		for _, j := range flips {
			// Flip the frame's last byte: the final payload byte when
			// there is a payload, otherwise the last MAC byte — either
			// way the MAC check fails.
			lane.Frames[j][frameSize-1] ^= 0xff
		}
	}
	return nil
}

// mintFrame encodes into buf, without its MAC, one frame from src host
// hid toward dst host hid, sabotaged as bad says: a forged EphID, an
// expired source, or a source EphID the source AS (BadRevokedSrc) or
// the destination AS (BadRemoteRevokedSrc) lists as revoked.
func mintFrame(src, dst *Fixture, hid ephid.HID, nonce uint64, payload []byte, bad badFrame, buf []byte) ([]byte, error) {
	exp := uint32(src.Now) + 3600
	var srcEphID ephid.EphID
	switch bad.kind {
	case BadForgedSrc:
		srcEphID = bad.forged
	case BadExpiredSrc:
		srcEphID = src.Sealer.Mint(ephid.Payload{HID: hid, ExpTime: uint32(src.Now) - 10})
	default:
		srcEphID = src.Sealer.Mint(ephid.Payload{HID: hid, ExpTime: exp})
	}
	dstEphID := bad.forged
	if bad.kind != BadForgedDst {
		dstEphID = dst.Sealer.Mint(ephid.Payload{HID: hid, ExpTime: uint32(dst.Now) + 3600})
	}
	switch bad.kind {
	case BadRevokedSrc:
		src.Router.Revoked().Insert(srcEphID, exp)
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
	return p.AppendTo(buf)
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
