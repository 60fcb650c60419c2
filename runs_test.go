package apna

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"apna/internal/border"
	"apna/internal/ephid"
	"apna/internal/host"
	"apna/internal/netsim"
)

// netsim hands a router the frames of one instant together and the
// router verifies them together (netsim.BatchHandler, border's
// handlers.go). The claim is that nothing outside the routers can tell:
// this test plays one timeline on two internets built alike, one as
// built and one with every router port behind netsim.HandlerFunc, which
// hides HandleFrames so that the routers get their frames one by one,
// and compares all that the timeline leaves behind. The MSes answer in
// runs in both (msRuns): a frame-by-frame MS would sign each certificate
// alone, and the certificates' length would show in every byte count.

// frameByFrame re-attaches every router port of in behind HandlerFunc.
func frameByFrame(in *Internet) {
	wrap := func(p *netsim.Port) { p.Attach(netsim.HandlerFunc(p.Owner().HandleFrame), "one-frame") }
	for _, l := range in.links {
		wrap(l.A())
		wrap(l.B())
	}
	for _, h := range in.hosts {
		wrap(h.link.A())
	}
	// An AS does not keep its services' access links: each service moves
	// to a link like the one it was built with, which the test holds, and
	// the MS keeps answering in runs.
	for _, as := range in.ases {
		for _, svc := range []*host.Host{as.msHost, as.dnsHost, as.aaHost, as.rtrHost} {
			hid := svc.Config().HID
			link := in.Sim.NewLink(fmt.Sprintf("%v-svc%v", as.AID, hid), in.opts.ServiceLinkLatency, 0)
			as.Router.AttachHost(hid, link.A())
			attach := (*host.Host).Attach
			if svc == as.msHost {
				attach = as.serveMS
			}
			attach(svc, link.B())
			wrap(link.A())
		}
	}
}

// runsTimeline plays the timeline and returns what it left behind, line
// by line, with the most events one Step executed at a router (router)
// and at an MS (msRun). Only those two take runs, and a step that handed
// an MS its frames is told apart by the MS stacks' receive counters.
func runsTimeline(t *testing.T, prepare func(*Internet)) (trace []string, router, msRun uint64) {
	t.Helper()
	const perAS = 6
	topo := []TopologyOption{
		WithLine(100, 4, 5*time.Millisecond),
		// No jitter: what a link does not hold back or duplicate stays in
		// its instant, so runs reach the routers downstream too.
		WithChaos(ChaosConfig{DupProb: 0.15, ReorderProb: 0.2, ReorderDelay: 2 * time.Millisecond}),
	}
	for as := 0; as < 4; as++ {
		names := make([]string, perAS)
		for i := range names {
			names[i] = fmt.Sprintf("h%d-%d", as, i)
		}
		topo = append(topo, WithHosts(AID(100+as), names...))
	}
	in, err := New(11, topo...)
	if err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(in)
	}
	faults := in.Sim.CaptureFaults()
	msReceived := func() (n uint64) {
		for _, as := range in.ases {
			n += as.msHost.Stats().Received
		}
		return n
	}
	// await drives the timeline step by step until it drains, then lets
	// the facade settle the operations against the idle queue.
	await := func(what string, ops ...Op) {
		t.Helper()
		for before, ms := in.Sim.Events(), msReceived(); in.Sim.Step(); before, ms = in.Sim.Events(), msReceived() {
			if n := in.Sim.Events() - before; msReceived() > ms {
				msRun = max(msRun, n)
			} else {
				router = max(router, n)
			}
		}
		if err := in.AwaitAll(ops...); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	hosts := in.Hosts()
	var ops []Op
	issues := make([]*Pending[*host.OwnedEphID], len(hosts))
	for i, h := range hosts {
		issues[i] = h.NewEphIDAsync(ephid.KindData, 3600)
		ops = append(ops, issues[i])
	}
	await("issuance", ops...)
	// Every host dials the host five places on: mostly into the next AS,
	// some within its own, the last AS's around to the first.
	ops = ops[:0]
	dials := make([]*Pending[*host.Conn], len(hosts))
	for i, h := range hosts {
		id, _ := issues[i].Result()
		peer, _ := issues[(i+5)%len(hosts)].Result()
		dials[i] = h.ConnectAsync(id, &peer.Cert, nil)
		ops = append(ops, dials[i])
	}
	await("handshakes", ops...)
	wave := func(w int) {
		t.Helper()
		ops = ops[:0]
		for i, h := range hosts {
			conn, _ := dials[i].Result()
			ops = append(ops, h.SendAsync(conn, fmt.Appendf(nil, "wave %d from %s", w, h.Name)))
		}
		// Pings to a live host, and to an AS no route leads to: the router
		// answers that one itself, through the drop hook.
		peer, _ := issues[(w*7)%len(hosts)].Result()
		ops = append(ops, hosts[w].PingAsync(Endpoint{AID: peer.Cert.AID, EphID: peer.Cert.EphID}, uint16(w)))
		hosts[w+1].PingAsync(Endpoint{AID: 999, EphID: peer.Cert.EphID}, uint16(w))
		await(fmt.Sprint("wave ", w), ops[:len(hosts)]...)
	}
	for w := 0; w < 3; w++ {
		wave(w)
	}
	// Three receivers have their senders shut off; the senders keep
	// sending, into their own routers' revocation lists and ICMP errors.
	ops = ops[:0]
	for _, i := range []int{2, 9, 20} {
		if inbox := hosts[i].Stack.Inbox(); len(inbox) > 0 {
			ops = append(ops, hosts[i].ShutoffAsync(inbox[len(inbox)-1]))
		}
	}
	if len(ops) != 3 {
		t.Fatalf("%d of 3 receivers had evidence to file", len(ops))
	}
	await("shutoffs", ops...)
	for w := 3; w < 6; w++ {
		wave(w)
	}

	trace = append(trace, fmt.Sprintf("events %d now %v", in.Sim.Events(), in.Sim.Now()))
	for _, ev := range faults.Events {
		trace = append(trace, fmt.Sprintf("fault %+v", ev))
	}
	for _, as := range in.ASes() {
		st := as.Router.Stats()
		line := fmt.Sprintf("%v delivered %d transited %d egressed %d", as.AID, st.Delivered.Load(), st.Transited.Load(), st.Egressed.Load())
		for _, v := range border.DropVerdicts() {
			line += fmt.Sprintf(" %v %d", v, st.Get(v))
		}
		trace = append(trace, line)
	}
	for a := AID(100); a < 103; a++ {
		trace = append(trace, fmt.Sprintf("link %v-%v %+v", a, a+1, in.InterASLink(a, a+1).Stats()))
	}
	for _, h := range hosts {
		trace = append(trace, fmt.Sprintf("%s %+v", h.Name, h.Stack.Stats()))
		for _, m := range h.Stack.Inbox() {
			trace = append(trace, fmt.Sprintf("%s got %q", h.Name, m.Payload))
		}
	}
	return trace, router, msRun
}

func TestRunsChangeNothingEndToEnd(t *testing.T) {
	runs, longest, msRuns := runsTimeline(t, nil)
	single, one, msOne := runsTimeline(t, frameByFrame)
	if longest < 6 || one != 1 {
		t.Fatalf("the longest router step ran %d events as built and %d frame by frame: want runs in the one and none in the other", longest, one)
	}
	if msRuns < 2 || msOne != msRuns {
		t.Fatalf("the longest MS step ran %d events as built and %d frame by frame: want the same runs in both", msRuns, msOne)
	}
	if len(runs) != len(single) {
		t.Errorf("%d trace lines as built, %d frame by frame", len(runs), len(single))
	}
	for i := range min(len(runs), len(single)) {
		if runs[i] != single[i] {
			t.Fatalf("trace line %d:\n as built       %s\n frame by frame %s", i, runs[i], single[i])
		}
	}
	var dropped, dups bool
	for _, line := range runs {
		dropped = dropped || strings.Contains(line, "drop-revoked ") && !strings.Contains(line, "drop-revoked 0")
		dups = dups || strings.Contains(line, "Kind:dup Hit:true")
	}
	if !dropped || !dups {
		t.Errorf("the timeline revoked a sender: %v, duplicated a frame: %v; want both", dropped, dups)
	}
}
