package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// validBase returns a minimal spec every validator case mutates.
func validBase() string {
	return `{
		"name": "t",
		"seed": 1,
		"topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
		"phases": [{"name": "p", "actions": [{"op": "issue", "per_host": 1, "lifetime_s": 60}]}]
	}`
}

func TestParseValid(t *testing.T) {
	s, err := Parse([]byte(validBase()))
	if err != nil {
		t.Fatalf("valid base rejected: %v", err)
	}
	if s.Name != "t" || s.Topology.LinkLatency.D().String() != "1ms" {
		t.Fatalf("mis-parsed: %+v", s)
	}
}

// asGraph is a two-core, two-mid, two-stub hierarchy with one provider
// per AS: cores 100-101, mids 102 (homed to 100) and 103 (to 101),
// stubs 104 (to 102) and 105 (to 103).
const asGraph = `{"kind": "as-graph", "core": 2, "mid": 2, "stubs": 2, "providers_per_as": 1,
	"hosts_per_as": 1, "link_latency": "1ms"}`

// TestValidatorAcceptsASGraphLinks: taps and partitions on an as-graph
// are checked against the links the facade lays out, provider links
// included, not against the core mesh alone.
func TestValidatorAcceptsASGraphLinks(t *testing.T) {
	cases := []struct{ name, json string }{
		{"tap on a mid-core link", `{"name": "t", "topology": ` + asGraph + `,
			"attackers": [{"name": "m", "as": 102, "tap": [102, 100]}],
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`},
		{"partition on a stub-mid link", `{"name": "t", "topology": ` + asGraph + `,
			"phases": [{"name": "p", "actions": [{"op": "partition", "a": 104, "b": 102, "duration": "1ms"}]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse([]byte(tc.json)); err != nil {
				t.Fatalf("valid spec rejected: %v", err)
			}
		})
	}
}

// theft is a role spec whose bad hosts dial the server one AS over and
// whose attacker then steals a bad host's identity steal_from places
// away: %d is the offset.
const theft = `{"name": "t", "topology": {"kind": "full-mesh", "ases": 4, "roles": ["srv", "bad"], "link_latency": "1ms"},
	"attackers": [{"name": "m", "as": 100}],
	"phases": [{"name": "p", "actions": [
		{"op": "issue", "per_host": 1, "lifetime_s": 60},
		{"op": "dial", "to": {"bad": {"role": "srv", "as_offset": 1}}},
		{"op": "attack", "steal_from": {"role": "bad", "as_offset": %d}}]}]}`

// pooled is a role spec with two clients per AS and one server: %s
// is the action list of its one phase.
const pooled = `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "roles": ["srv", "cli"], "role_hosts": {"cli": 2}, "link_latency": "1ms"},
	"phases": [{"name": "p", "actions": [%s]}]}`

const (
	issueAll  = `{"op": "issue", "per_host": 4, "lifetime_s": 60}`
	toServers = `"to": {"cli": {"role": "srv", "as_offset": 1}}`
)

func TestValidatorRejections(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"missing name", `{"topology": {"kind": "line", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "missing name"},
		{"unknown topology", `{"name": "t", "topology": {"kind": "torus", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "unknown topology"},
		{"zero ases", `{"name": "t", "topology": {"kind": "full-mesh", "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "ases >= 1"},
		{"ases over cap", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 100000, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "exceeds cap"},
		{"full mesh over cap", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 300, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "exceeds cap"},
		{"providers over cap", `{"name": "t", "topology": {"kind": "as-graph", "core": 2, "mid": 4000, "stubs": 4000, "providers_per_as": 4000, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "exceeds cap"},
		{"as-graph stubs without mid", `{"name": "t", "topology": {"kind": "as-graph", "core": 2, "stubs": 3, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "mid tier"},
		{"chaos loss out of range", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"chaos": {"loss": 1.5},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "outside [0,1]"},
		{"empty partition window", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"chaos": {"partitions": [{"from": "5ms", "until": "5ms"}]},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "empty or negative"},
		{"attacker on unknown AS", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"attackers": [{"name": "m", "as": 999}],
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "undeclared AS"},
		{"attacker taps missing link", `{"name": "t", "topology": {"kind": "line", "ases": 3, "hosts_per_as": 1, "link_latency": "1ms"},
			"attackers": [{"name": "m", "as": 100, "tap": [100, 102]}],
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "missing link"},
		{"attacker taps non-adjacent mids", `{"name": "t", "topology": ` + asGraph + `,
			"attackers": [{"name": "m", "as": 102, "tap": [102, 103]}],
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "missing link"},
		{"unknown dissemination mode", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"dissemination": {"interval": "1s", "mode": "rellay"},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "dissemination mode"},
		{"duplicate attacker", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"attackers": [{"name": "m", "as": 100}, {"name": "m", "as": 101}],
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "declared twice"},
		{"unknown invariant", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"invariants": ["no-such-property"],
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "unknown invariant"},
		{"no phases", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"}}`, "no phases"},
		{"dial before issue", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "dial", "flows_per_host": 1}]}]}`, "before any issue"},
		{"send before dial", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "send"}]}]}`, "before any dial"},
		{"shutoff zero count", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [
				{"op": "issue", "per_host": 2, "lifetime_s": 60},
				{"op": "dial", "flows_per_host": 1},
				{"op": "shutoff"}]}]}`, "count >= 1"},
		{"steal without attackers", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [
				{"op": "issue", "per_host": 2, "lifetime_s": 60},
				{"op": "dial", "flows_per_host": 1},
				{"op": "shutoff", "count": 1, "steal": true}]}]}`, "without attackers"},
		{"attack without attackers", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "attack", "surfaces": ["forged"]}]}]}`, "without attackers"},
		{"unknown surface", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"attackers": [{"name": "m", "as": 100}],
			"phases": [{"name": "p", "actions": [{"op": "attack", "surfaces": ["quantum"]}]}]}`, "unknown surface"},
		{"partition needs duration", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "partition", "a": 100, "b": 101}]}]}`, "positive duration"},
		{"partition missing link", `{"name": "t", "topology": {"kind": "line", "ases": 3, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "partition", "a": 100, "b": 102, "duration": "1ms"}]}]}`, "missing link"},
		{"publish unknown host", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "publish", "host": "h09-00", "name": "x.as100"}]}]}`, "unknown host"},
		{"resolve bad expectation", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "resolve", "from": "h00-00", "name": "x.as100", "expect": "maybe"}]}]}`, "expect must be"},
		{"resolve unpublished ok", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "resolve", "from": "h00-00", "name": "x.as100", "expect": "ok"}]}]}`, "nothing published"},
		{"dial a denied name", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "resolve", "from": "h00-00", "name": "x.as100", "expect": "nxdomain", "dial": true}]}]}`, "expected to be denied"},
		{"flashcrowd without population", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "flashcrowd"}]}]}`, "hosts and ticks"},
		{"flashcrowd without workers", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "flashcrowd", "population": {"hosts": 10, "ticks": 5}}]}]}`, "worker count"},
		{"flashcrowd bad flash window", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "flashcrowd", "population": {"hosts": 10, "ticks": 5, "workers": 1, "flash_mult": 4}}]}]}`, "flash"},
		{"run needs duration", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "run"}]}]}`, "positive duration"},
		{"unknown op", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "teleport"}]}]}`, "not a known op"},
		{"roles beside hosts_per_as", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "roles": ["srv"], "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "roles replace hosts_per_as"},
		{"role declared twice", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "roles": ["srv", "srv"], "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [{"op": "run", "duration": "1ms"}]}]}`, "declared twice"},
		{"unknown role", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "roles": ["srv", "bad"], "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [
				{"op": "issue", "per_host": 1, "lifetime_s": 60},
				{"op": "dial", "to": {"bad": {"role": "server"}}}]}]}`, "unknown role"},
		{"dial with a spread and targets", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "roles": ["srv", "bad"], "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [
				{"op": "issue", "per_host": 1, "lifetime_s": 60},
				{"op": "dial", "flows_per_host": 1, "to": {"bad": {"role": "srv"}}}]}]}`, "exactly one of"},
		{"negative retries", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [
				{"op": "issue", "per_host": 2, "lifetime_s": 60},
				{"op": "dial", "flows_per_host": 1, "retries": -1}]}]}`, "retries -1"},
		{"retried shutoff", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"phases": [{"name": "p", "actions": [
				{"op": "issue", "per_host": 2, "lifetime_s": 60},
				{"op": "dial", "flows_per_host": 1},
				{"op": "shutoff", "count": 1, "retries": 2}]}]}`, "complaints retry up to"},
		{"complaint without a digest interval", `{"name": "t", "topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
			"dissemination": {"interval": "0s"},
			"phases": [{"name": "p", "actions": [
				{"op": "issue", "per_host": 2, "lifetime_s": 60},
				{"op": "dial", "flows_per_host": 1},
				{"op": "shutoff", "count": 1, "complain": true}]}]}`, "positive interval"},
		{"steal offset onto the attacker's AS", fmt.Sprintf(theft, 4), "collapses onto the attacker's or the victim's AS"},
		{"steal offset onto the victim's AS", fmt.Sprintf(theft, 3), "collapses onto the attacker's or the victim's AS"},
		{"steal from a role that dials nothing", strings.Replace(fmt.Sprintf(theft, 2), `"role": "bad", "as_offset": 2`, `"role": "srv", "as_offset": 2`, 1), "dials nothing"},
		{"pooled dial before any issue", fmt.Sprintf(pooled, `{"op": "dial", `+toServers+`, "from_pool": 2}`), "before any issue"},
		{"pooled dial toward a role never issued", fmt.Sprintf(pooled,
			`{"op": "issue", "roles": ["cli"], "per_host": 4, "lifetime_s": 60}, {"op": "dial", `+toServers+`, "from_pool": 2}`), "before any issue"},
		{"negative from_pool", fmt.Sprintf(pooled, issueAll+`, {"op": "dial", `+toServers+`, "from_pool": -1}`), "from_pool -1"},
		{"from_pool without targets", fmt.Sprintf(pooled, issueAll+`, {"op": "dial", "flows_per_host": 1, "from_pool": 2}`), "from_pool 2"},
		{"churn without a target", fmt.Sprintf(pooled, issueAll+`, {"op": "churn"}`), "needs a to target"},
		{"churn before any issue", fmt.Sprintf(pooled, `{"op": "churn", `+toServers+`}`), "before any issue"},
		{"negative revoke count", fmt.Sprintf(pooled, issueAll+`, {"op": "churn", `+toServers+`, "revoke": -1}`), "revoke -1"},
		{"revoke outside churn", fmt.Sprintf(pooled, issueAll+`, {"op": "dial", `+toServers+`, "revoke": 1}`), "revoke 1"},
		{"issue to an unknown role", fmt.Sprintf(pooled, `{"op": "issue", "roles": ["bot"], "per_host": 1, "lifetime_s": 60}`), "unknown role"},
		{"role_hosts for an undeclared role", strings.Replace(fmt.Sprintf(pooled, issueAll), `{"cli": 2}`, `{"bot": 2}`, 1), "role_hosts"},
		{"role_hosts of one", strings.Replace(fmt.Sprintf(pooled, issueAll), `{"cli": 2}`, `{"cli": 1}`, 1), "role_hosts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("accepted invalid spec")
			}
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("error %v does not wrap ErrBadSpec", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q missing %q", err, tc.want)
			}
		})
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	bad := strings.Replace(validBase(), `"seed": 1,`, `"seed": 1, "sede": 2,`, 1)
	if _, err := Parse([]byte(bad)); err == nil {
		t.Fatalf("typo'd field accepted")
	}
}

func TestDurationForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"1h2m"`), &d); err != nil || d.D().String() != "1h2m0s" {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1500000`), &d); err != nil || d.D().String() != "1.5ms" {
		t.Fatalf("integer form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"fast"`), &d); err == nil {
		t.Fatalf("garbage duration accepted")
	}
	raw, err := json.Marshal(Duration(1500000))
	if err != nil || string(raw) != `"1.5ms"` {
		t.Fatalf("marshal: %s %v", raw, err)
	}
}

// TestDeterminism is the DSL's core property: one spec and seed is one
// run — bit-identical trace hash on every execution — and the seed is
// live, so sweeping it explores genuinely different chaos.
func TestDeterminism(t *testing.T) {
	s := loadSpec(t, "e7.json")
	a := runSpec(t, s, RunOptions{})
	b := runSpec(t, s, RunOptions{})
	if a.Verdict.TraceHash != b.Verdict.TraceHash {
		t.Errorf("same spec and seed produced different traces:\n%s\n%s",
			a.Verdict.TraceHash, b.Verdict.TraceHash)
	}
	if len(a.Schedule.Events) != len(b.Schedule.Events) {
		t.Errorf("fault schedules differ: %d vs %d events", len(a.Schedule.Events), len(b.Schedule.Events))
	}

	s2 := *s
	s2.Seed = s.Seed + 1
	c := runSpec(t, &s2, RunOptions{})
	if c.Verdict.TraceHash == a.Verdict.TraceHash {
		t.Errorf("different seeds produced identical traces (%s)", a.Verdict.TraceHash)
	}
}

// FuzzScenarioSpec hardens the parser: arbitrary bytes must never
// panic, and anything accepted must survive a marshal/parse round trip
// with an unchanged canonical hash.
func FuzzScenarioSpec(f *testing.F) {
	f.Add([]byte(validBase()))
	f.Add([]byte(`{"name": "x"}`))
	f.Add([]byte(`{"topology": {"kind": "full-mesh", "ases": 99999999999}}`))
	f.Add([]byte(`{"name": "x", "phases": [{"actions": [{"op": "run", "duration": -5}]}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(fmt.Sprintf(theft, 2)))
	f.Add([]byte(fmt.Sprintf(pooled, issueAll+`, {"op": "dial", `+toServers+`, "from_pool": 2}, {"op": "churn", `+toServers+`, "revoke": 1}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		h1, err := s.SpecHash()
		if err != nil {
			t.Fatalf("hash of accepted spec: %v", err)
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal of accepted spec: %v", err)
		}
		s2, err := Parse(raw)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, raw)
		}
		h2, err := s2.SpecHash()
		if err != nil {
			t.Fatalf("hash of round-tripped spec: %v", err)
		}
		if h1 != h2 {
			t.Fatalf("round trip changed the canonical hash:\n%s\n%s", h1, h2)
		}
	})
}
