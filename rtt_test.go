package apna

import (
	"fmt"
	"testing"
	"time"

	"apna/internal/ephid"
	"apna/internal/host"
)

// TestConnectionRTTs is the connection-establishment latency analysis of
// Section VII-C, measured on the simulator's virtual clock over a
// two-AS path. The paper's accounting, in round trips between the two
// hosts:
//
//   - host-to-host, certificates known in advance: 1 RTT before data can
//     flow, or 0 RTT with data on the first packet;
//   - client-server through a receive-only EphID: 1.5 RTT until the
//     server holds the client's first data ("a 0.5 RTT penalty"), or
//     0 RTT with data on the first packet, at the cost of first-packet
//     PFS.
//
// Each mode is held to its wait before the initiator sends and to the
// time its first data byte reaches the responder, both counted in
// one-way latencies, at two path latencies.
func TestConnectionRTTs(t *testing.T) {
	modes := []struct {
		name         string
		clientServer bool
		zeroRTT      bool
		wait, atPeer int // one-way latencies
	}{
		{"host-host", false, false, 2, 3},
		{"host-host-0rtt", false, true, 0, 1},
		{"client-server", true, false, 2, 3},
		{"client-server-0rtt", true, true, 0, 1},
	}
	for _, oneWay := range []time.Duration{10 * time.Millisecond, 25 * time.Millisecond} {
		for _, m := range modes {
			t.Run(fmt.Sprintf("%s/%v", m.name, oneWay), func(t *testing.T) {
				wait, atPeer := connectionTimes(t, oneWay, m.clientServer, m.zeroRTT)
				if want := time.Duration(m.wait) * oneWay; wait != want {
					t.Errorf("initiator waited %v (%.1f RTT), want %v", wait, rtts(wait, oneWay), want)
				}
				if want := time.Duration(m.atPeer) * oneWay; atPeer != want {
					t.Errorf("first data reached the peer after %v (%.1f RTT), want %v", atPeer, rtts(atPeer, oneWay), want)
				}
			})
		}
	}
}

func rtts(d, oneWay time.Duration) float64 { return float64(d) / float64(2*oneWay) }

// connectionTimes dials from an initiator in one AS to a responder in
// another and returns how long the initiator waited before its first
// data left and how long that data took to reach the responder's
// application, both from the dial. Access links have zero latency, so
// only the inter-domain link counts, as in the paper's accounting.
func connectionTimes(t *testing.T, oneWay time.Duration, clientServer, zeroRTT bool) (wait, atPeer time.Duration) {
	t.Helper()
	opts := DefaultOptions()
	opts.HostLinkLatency = 0
	opts.ServiceLinkLatency = 0
	in, err := New(1,
		WithOptions(opts),
		WithAS(1, "initiator"),
		WithAS(2, "responder"),
		WithLink(1, 2, oneWay))
	if err != nil {
		t.Fatal(err)
	}
	a, b := in.Host("initiator"), in.Host("responder")
	local, err := a.NewEphID(ephid.KindData, 3600)
	if err != nil {
		t.Fatal(err)
	}
	peerKind := ephid.KindData
	if clientServer {
		peerKind = ephid.KindReceiveOnly
	}
	peer, err := b.NewEphID(peerKind, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if clientServer {
		// The server answers from a serving EphID of its own.
		if _, err := b.NewEphID(ephid.KindData, 3600); err != nil {
			t.Fatal(err)
		}
	}

	arrived := time.Duration(-1)
	b.Stack.OnMessage(func(host.Message) {
		if arrived < 0 {
			arrived = in.Sim.Now()
		}
	})
	start := in.Sim.Now()
	var data0 []byte
	if zeroRTT {
		data0 = []byte("first flight data")
	}
	if _, err := a.Stack.Dial(local, &peer.Cert, host.DialOptions{
		Data0RTT: data0,
		OnEstablish: func(c *host.Conn) {
			if zeroRTT {
				return // the data left with the first packet
			}
			wait = in.Sim.Now() - start
			if err := c.Send([]byte("post-establishment data")); err != nil {
				t.Error(err)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	in.RunUntilIdle()
	if arrived < 0 {
		t.Fatal("no data reached the responder")
	}
	return wait, arrived - start
}
