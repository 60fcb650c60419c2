package apna

import (
	"fmt"

	"apna/internal/adversary"
	"apna/internal/ephid"
	"apna/internal/netsim"
)

// Adversarial facade: attackers from internal/adversary attached to the
// simulated internet, and chaos conditions on its links. Together with
// the invariant checker they form the adversarial conformance harness
// the scenario layer (E7) drives.

// Re-exported chaos types so a topology description can name them.
type (
	// ChaosConfig describes chaotic link behaviour (jitter,
	// duplication, reordering, loss, timed partitions).
	ChaosConfig = netsim.ChaosConfig
	// ChaosInterval is a virtual-time window, used for partitions.
	ChaosInterval = netsim.Interval
)

// Re-exported attack kinds.
const (
	AttackReplay      = adversary.KindReplay
	AttackPostShutoff = adversary.KindPostShutoff
)

// attackerHIDBase keeps rogue-device port registrations clear of the
// HID space the registry allocates to authenticated hosts. The router
// never routes *to* these HIDs; the attacker only injects through the
// port, and its frames face the same egress checks as anyone else's.
const attackerHIDBase ephid.HID = 0xFFFF0000

// Attacker is an adversary attached to an AS of the simulated internet
// like a rogue device: it injects through the AS's border router (and
// faces its egress pipeline), can inject at the router's external
// interface (the on-path position), and can wiretap inter-AS links.
type Attacker struct {
	*adversary.Attacker
	in *Internet
	as *AS
}

// addAttacker attaches the attacker a WithAttacker option declared;
// validation has already placed it on a declared AS under a fresh name.
func (in *Internet) addAttacker(aid AID, name string) {
	as := in.ases[aid]
	core := adversary.New(name, in.Sim)
	link := in.Sim.NewLink("attacker-"+name, in.opts.HostLinkLatency, 0)
	as.Router.AttachHost(attackerHIDBase+ephid.HID(len(in.attackers)), link.A())
	core.AttachPort(link.B())
	core.SetExternalInjector(as.Router.HandleExternalFrame)
	in.attackers[name] = &Attacker{Attacker: core, in: in, as: as}
}

// Attacker returns the attacker with the given name, or nil.
func (in *Internet) Attacker(name string) *Attacker { return in.attackers[name] }

// AS returns the AS the attacker is attached to.
func (a *Attacker) AS() *AS { return a.as }

// TapInterAS splices the attacker into the link between two ASes as a
// passive wiretap. The ASes must be directly connected.
func (a *Attacker) TapInterAS(x, y AID) error {
	l := a.in.InterASLink(x, y)
	if l == nil {
		return fmt.Errorf("%w: no link %v-%v", ErrUnknownAS, x, y)
	}
	a.TapLink(l)
	return nil
}
