package apna

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"apna/internal/ephid"
	"apna/internal/host"
)

// TestFirstMessagesWaitForTheirKeys: both ends of a handshake derive the
// session key on a spare core (session.Start), so 64 connections opened
// back to back leave derivations running — more than the process runs
// at once — when their first messages are sealed and opened. Each pair
// sends one message queued before the ack, one the moment the dial
// resolves and one reply the moment the first arrives; every one must
// arrive on its own flow, byte for byte.
func TestFirstMessagesWaitForTheirKeys(t *testing.T) {
	const pairs = 64
	in, err := New(1, WithAS(100, "alice"), WithAS(200, "carol"), WithLink(100, 200, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	alice, carol := in.Host("alice"), in.Host("carol")
	issues := make([]*Pending[*host.OwnedEphID], 0, 2*pairs)
	for range pairs {
		issues = append(issues, alice.NewEphIDAsync(ephid.KindData, 900), carol.NewEphIDAsync(ephid.KindData, 900))
	}
	if err := in.AwaitAll(Ops(issues...)...); err != nil {
		t.Fatal(err)
	}
	ids := make([]*host.OwnedEphID, len(issues))
	for i, p := range issues {
		if ids[i], err = p.Result(); err != nil {
			t.Fatal(err)
		}
	}
	payload := func(i int, what string) []byte {
		return append([]byte(fmt.Sprintf("pair %02d %s:", i, what)), bytes.Repeat([]byte{byte(i)}, 512)...)
	}
	pair := make(map[ephid.EphID]int, pairs) // alice's EphID -> pair index

	dials := make([]*Pending[*host.Conn], pairs)
	var sends []*Pending[struct{}]
	for i := range pairs {
		a, c := ids[2*i], ids[2*i+1]
		pair[a.Cert.EphID] = i
		dials[i] = alice.ConnectAsync(a, &c.Cert, nil)
		conns := alice.Stack.Conns()
		sends = append(sends, alice.SendAsync(conns[len(conns)-1], payload(i, "queued")))
	}
	if err := in.AwaitAll(Ops(dials...)...); err != nil {
		t.Fatal(err)
	}
	for i, p := range dials {
		conn, err := p.Result()
		if err != nil {
			t.Fatal(err)
		}
		sends = append(sends, alice.SendAsync(conn, payload(i, "first")))
	}
	if err := in.AwaitAll(Ops(sends...)...); err != nil {
		t.Fatal(err)
	}

	// check records one intact message of pair i, one of whats, in got.
	check := func(got map[string]bool, i int, m host.Message, whats ...string) string {
		for _, what := range whats {
			if bytes.Equal(m.Payload, payload(i, what)) && !got[fmt.Sprint(i, what)] {
				got[fmt.Sprint(i, what)] = true
				return what
			}
		}
		t.Fatalf("pair %d: unexpected payload %q", i, m.Payload)
		return ""
	}
	got := make(map[string]bool)
	for _, m := range carol.Stack.Inbox() {
		i, ok := pair[m.Flow.Src.EphID]
		if !ok || m.Flow.Dst.EphID != ids[2*i+1].Cert.EphID {
			t.Fatalf("message on an unknown flow %+v", m.Flow)
		}
		what := check(got, i, m, "queued", "first")
		if err := carol.Stack.Respond(m, payload(i, "reply to "+what)); err != nil {
			t.Fatal(err)
		}
	}
	in.RunUntilIdle()
	if len(got) != 2*pairs {
		t.Fatalf("carol received %d of %d messages", len(got), 2*pairs)
	}
	replies := make(map[string]bool)
	for _, m := range alice.Stack.Inbox() {
		i, ok := pair[m.Flow.Dst.EphID]
		if !ok || m.Flow.Src.EphID != ids[2*i+1].Cert.EphID {
			t.Fatalf("reply on an unknown flow %+v", m.Flow)
		}
		check(replies, i, m, "reply to queued", "reply to first")
	}
	if len(replies) != 2*pairs {
		t.Fatalf("alice received %d of %d replies", len(replies), 2*pairs)
	}
}
