package apna

import (
	"errors"
	"testing"
	"time"

	"apna/internal/crypto"
	"apna/internal/registry"
)

// addHost adds one host to a running internet: a batch of one.
func addHost(t *testing.T, in *Internet, aid AID, name string) *Host {
	t.Helper()
	hosts, err := in.AddHosts(aid, name)
	if err != nil {
		t.Fatal(err)
	}
	return hosts[0]
}

// TestAddHostsBatch: one AddHosts call returns its hosts in the order
// the names are given, with the HIDs one call per name gives; each
// host's stack holds the kHA its AS wrote under its HID; and a name
// given twice, or already taken, fails the call before any host
// registers. CI runs it at one P and two.
func TestAddHostsBatch(t *testing.T) {
	names := []string{"h3", "h1", "h7", "h0", "h5", "h2", "h6", "h4"}
	in, err := New(1, WithAS(100, "alice"), WithAS(200, "bob"), WithLink(100, 200, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := New(1, WithAS(100, "alice"), WithAS(200, "bob"), WithLink(100, 200, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := in.AddHosts(100, names...)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != len(names) {
		t.Fatalf("%d hosts for %d names", len(hosts), len(names))
	}
	as := in.AS(100)
	for i, h := range hosts {
		if h.Name != names[i] || in.Host(names[i]) != h {
			t.Errorf("host %d is %q, want %q", i, h.Name, names[i])
		}
		if want := addHost(t, serial, 100, names[i]).HID(); h.HID() != want {
			t.Errorf("%s: HID %v, one call per name gives %v", h.Name, h.HID(), want)
		}
		entry, err := as.DB.Get(h.HID())
		if err != nil {
			t.Fatal(err)
		}
		if h.Stack.Config().Keys != entry.Keys {
			t.Errorf("%s: the stack's kHA is not its hostdb record's", h.Name)
		}
	}

	// The new hosts work end to end.
	id, err := hosts[0].NewEphID(KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Host("bob").Connect(mustEphID(t, in.Host("bob")), &id.Cert, nil); err != nil {
		t.Fatal(err)
	}

	records, count := as.DB.Len(), len(in.Hosts())
	for _, batch := range [][]string{
		{"n0", "n1", "n0"},    // repeated inside the call
		{"n0", "n1", "h5"},    // already taken
		{"alice", "n0", "n1"}, // already taken, first
	} {
		if _, err := in.AddHosts(100, batch...); !errors.Is(err, ErrDuplicateHost) {
			t.Errorf("AddHosts%q: err %v, want ErrDuplicateHost", batch, err)
		}
		if in.Host("n0") != nil || in.Host("n1") != nil || len(in.Hosts()) != count {
			t.Errorf("AddHosts%q added a host", batch)
		}
		if n := as.DB.Len(); n != records {
			t.Errorf("AddHosts%q: hostdb holds %d records, %d before", batch, n, records)
		}
	}
	if next := addHost(t, in, 100, "n0"); next.HID() != hosts[len(hosts)-1].HID()+1 {
		t.Errorf("next HID %v after refused batches, want %v", next.HID(), hosts[len(hosts)-1].HID()+1)
	}
}

// TestAddHostsVerifiesIDInfo: each host checks its id_info against the
// AS key in the trust store (Figure 2). With the trust store holding
// another key for the AS, AddHosts fails with ErrBadIDInfo and attaches
// no host.
func TestAddHostsVerifiesIDInfo(t *testing.T) {
	in, err := New(1, WithAS(100, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	other, err := crypto.GenerateSigner()
	if err != nil {
		t.Fatal(err)
	}
	dh, err := crypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := in.authority.Certify(100, other.PublicKey(), dh.PublicKey(), in.Now()+3600)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Trust.Add(rec); err != nil {
		t.Fatal(err)
	}
	hosts, err := in.AddHosts(100, "h0", "h1", "h2")
	if !errors.Is(err, registry.ErrBadIDInfo) || hosts != nil {
		t.Errorf("AddHosts with a foreign AS key: %d hosts, err %v, want ErrBadIDInfo", len(hosts), err)
	}
	if len(in.Hosts()) != 1 {
		t.Errorf("%d hosts attached, want alice alone", len(in.Hosts()))
	}
}

func mustEphID(t *testing.T, h *Host) *OwnedEphID {
	t.Helper()
	id, err := h.NewEphID(KindData, 900)
	if err != nil {
		t.Fatal(err)
	}
	return id
}
