// Package asnode builds one AS in the shape Figure 1 gives it: a
// sealer and a host database shared by the border router and, once the
// control plane is added, by the MS, the accountability agent and the
// inter-domain accountability engine. It is the one place that
// constructs those engines and connects them; the facade, the
// population engine, the traffic generator and E1 all build their ASes
// here.
package asnode

import (
	"apna/internal/aa"
	"apna/internal/accountability"
	"apna/internal/border"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/ms"
	"apna/internal/rpki"
)

// Node is one AS's engines. The data plane (Sealer, DB, Router) exists
// from New on; MS, Agent and Acct stay nil until AddControl.
type Node struct {
	AID    ephid.AID
	Secret *crypto.ASSecret
	Sealer *ephid.Sealer
	DB     *hostdb.DB
	Router *border.Router

	MS    *ms.Service
	Agent *aa.Agent
	Acct  *accountability.Engine

	now func() int64
}

// New builds an AS's data plane from its master secret. hosts is the
// expected host population, which sizes the host database; now supplies
// Unix seconds to every engine of the node.
func New(aid ephid.AID, secret *crypto.ASSecret, hosts int, now func() int64) (*Node, error) {
	sealer, err := ephid.NewSealer(secret)
	if err != nil {
		return nil, err
	}
	db, err := hostdb.NewSharded(shardCountFor(hosts))
	if err != nil {
		return nil, err
	}
	router, err := border.New(aid, sealer, db, secret, now)
	if err != nil {
		return nil, err
	}
	return &Node{AID: aid, Secret: secret, Sealer: sealer, DB: db, Router: router, now: now}, nil
}

// shardCountFor sizes the host database for a population: one shard per
// ~4k hosts so writer contention under churn stays flat as the host
// count grows, clamped to [DefaultShardCount, 4096] and rounded up to a
// power of two (NewSharded's contract).
func shardCountFor(hosts int) int {
	n := hostdb.DefaultShardCount
	for n < 4096 && n*4096 < hosts {
		n <<= 1
	}
	return n
}

// Control is what the control plane needs beyond the data plane: the
// AS's RPKI-certified signer, the trust store peers' keys come from, the
// MS issuance policy, the AA's control EphID (embedded in every
// certificate the MS issues) and the agent's strike limit.
type Control struct {
	Signer      *crypto.Signer
	Trust       *rpki.TrustStore
	Policy      ms.Policy
	AAEphID     ephid.EphID
	StrikeLimit int
}

// AddControl adds the MS, the accountability agent and the inter-domain
// accountability engine, and connects them: both order revocations on
// the node's router, and every revocation the agent makes feeds the
// engine's dissemination digests.
func (n *Node) AddControl(c Control) {
	n.MS = ms.New(n.AID, n.Sealer, c.Signer, n.DB, c.Policy, c.AAEphID, n.now)
	n.Agent = aa.New(aa.Config{AID: n.AID, StrikeLimit: c.StrikeLimit},
		n.Sealer, n.DB, n.Secret, c.Trust, n.now)
	n.Agent.AddRouter(n.Router)
	n.Acct = accountability.New(accountability.Config{
		AID: n.AID, Signer: c.Signer, Trust: c.Trust, Agent: n.Agent, Now: n.now,
	})
	n.Acct.AddRouter(n.Router)
	n.Agent.SetRevocationHook(n.Acct.NoteRevoked)
}
