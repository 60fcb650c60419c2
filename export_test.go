package apna

import "apna/internal/host"

// RenewAsync requests a successor for an EphID this host owns, through
// the MS's rate-limited renewal path, without driving the simulator.
// The future resolves with the installed successor; live flows on the
// old identifier are not migrated. Production renews only through the
// lifecycle engine (WithLifetimes), which calls Stack.RequestRenewal
// itself; the tests of this package and of apna_test renew by hand.
func (h *Host) RenewAsync(old *host.OwnedEphID, lifetime uint32) *Pending[*host.OwnedEphID] {
	p := newPending[*host.OwnedEphID]()
	err := h.Stack.RequestRenewal(old, lifetime, func(o *host.OwnedEphID, err error) {
		p.complete(o, err)
	})
	if err != nil {
		return failedPending[*host.OwnedEphID](err)
	}
	return p
}
