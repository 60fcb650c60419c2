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

// countedRuns is an MS's msRuns that counts the frames it is handed.
type countedRuns struct {
	*msRuns
	n *uint64
}

func (c countedRuns) HandleFrame(frame []byte, from *netsim.Port) {
	*c.n++
	c.msRuns.HandleFrame(frame, from)
}

func (c countedRuns) HandleFrames(frames [][]byte, from []*netsim.Port) {
	*c.n += uint64(len(frames))
	c.msRuns.HandleFrames(frames, from)
}

// countMS moves every MS of in onto a fresh stack of the same identity,
// on a service link like the one it was built with, behind an msRuns
// that counts into n. It returns the stacks by AS.
func countMS(t *testing.T, in *Internet, n *uint64) map[AID]*host.Host {
	t.Helper()
	stacks := make(map[AID]*host.Host)
	for _, as := range in.ases {
		h, err := as.serviceHost(as.msID, "ms", countedMS(as, n))
		if err != nil {
			t.Fatal(err)
		}
		stacks[as.AID] = h
	}
	return stacks
}

// countedMS serves as's MS behind a countedRuns.
func countedMS(as *AS, n *uint64) func(*host.Host, *netsim.Port) {
	return func(h *host.Host, p *netsim.Port) {
		as.serveMS(h, p)
		p.Attach(countedRuns{p.Owner().(*msRuns), n})
	}
}

// frameByFrame re-attaches every router port of in behind HandlerFunc;
// ms holds the MS stacks and n their frame count (countMS).
func frameByFrame(in *Internet, ms map[AID]*host.Host, n *uint64) {
	wrap := func(p *netsim.Port) { p.Attach(netsim.HandlerFunc(p.Owner().HandleFrame)) }
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
		for _, svc := range []struct {
			*host.Host
			hid ephid.HID
		}{{ms[as.AID], as.msID.HID}, {as.dnsHost, as.dnsID.HID}, {as.aaHost, as.aaID.HID}, {as.rtrHost, as.rtrID.HID}} {
			hid := svc.hid
			link := in.Sim.NewLink(fmt.Sprintf("%v-svc%v", as.AID, hid), in.opts.ServiceLinkLatency, 0)
			as.Router.AttachHost(hid, link.A())
			attach := (*host.Host).Attach
			if svc.Host == ms[as.AID] {
				attach = countedMS(as, n)
			}
			attach(svc.Host, link.B())
			wrap(link.A())
		}
	}
}

// runsTimeline plays the timeline and returns what it left behind, line
// by line, with the most events one Step executed at a router (router)
// and at an MS (msRun). Only those two take runs, and a step that handed
// an MS its frames is told apart by the MSes' frame count (countMS).
// With oneByOne the routers take their frames one by one (frameByFrame).
func runsTimeline(t *testing.T, oneByOne bool) (trace []string, router, msRun uint64) {
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
	var msFrames uint64
	ms := countMS(t, in, &msFrames)
	if oneByOne {
		frameByFrame(in, ms, &msFrames)
	}
	faults := in.Sim.CaptureFaults()
	// What crossed each inter-AS link, counted where an on-path observer
	// sees it; the fault lines below add what the links dropped,
	// duplicated and held back.
	type carried struct{ frames, bytes int }
	var links [3]carried
	for a := range links {
		c := &links[a]
		in.InterASLink(AID(100+a), AID(101+a)).AddTap(func(frame []byte, _ *netsim.Port) {
			c.frames++
			c.bytes += len(frame)
		})
	}
	// await drives the timeline step by step until it drains, then lets
	// the facade settle the operations against the idle queue.
	await := func(what string, ops ...Op) {
		t.Helper()
		for before, handed := in.Sim.Events(), msFrames; in.Sim.Step(); before, handed = in.Sim.Events(), msFrames {
			if n := in.Sim.Events() - before; msFrames > handed {
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
	// What each host sent and was sent, on its access link: the host
	// sends from its end (B), the router hands it frames from A.
	type access struct{ sent, got carried }
	onLink := make(map[*Host]*access)
	for _, h := range hosts {
		c := &access{}
		onLink[h] = c
		h.link.AddTap(func(frame []byte, from *netsim.Port) {
			d := &c.got
			if from == h.link.B() {
				d = &c.sent
			}
			d.frames++
			d.bytes += len(frame)
		})
	}
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
	for a, c := range links {
		trace = append(trace, fmt.Sprintf("link %v-%v %+v", 100+a, 101+a, c))
	}
	for _, h := range hosts {
		trace = append(trace, fmt.Sprintf("%s %+v %+v", h.Name, h.Stack.Stats(), *onLink[h]))
		for _, m := range h.Stack.Inbox() {
			trace = append(trace, fmt.Sprintf("%s got %q", h.Name, m.Payload))
		}
	}
	return trace, router, msRun
}

func TestRunsChangeNothingEndToEnd(t *testing.T) {
	runs, longest, msRuns := runsTimeline(t, false)
	single, one, msOne := runsTimeline(t, true)
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
