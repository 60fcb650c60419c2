package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"apna/internal/invariant"
	"apna/internal/netsim"
)

// Verdict is a scenario run's deterministic report: every field is a
// pure function of (spec, seed) — no wall-clock measurements — so a
// replayed run must reproduce it byte for byte.
type Verdict struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	SpecHash string `json:"spec_hash"`
	// OK means every selected invariant held and every bound was met.
	OK bool `json:"ok"`

	Hosts            int `json:"hosts"`
	Flows            int `json:"flows"`
	FlowsFailed      int `json:"flows_failed"`
	MessagesSent     int `json:"messages_sent"`
	Delivered        int `json:"delivered"`
	ShutoffsFiled    int `json:"shutoffs_filed"`
	ShutoffsAccepted int `json:"shutoffs_accepted"`
	Revoked          int `json:"revoked"`
	Resolved         int `json:"resolved"`
	Denied           int `json:"denied"`
	ResolvedDials    int `json:"resolved_dials,omitempty"`

	// Complaints count in ShutoffsFiled per attempt, in ShutoffsAccepted
	// when answered and in Revoked once the receipt verifies; then the
	// source ASes' revocations and the other flows' deliveries.
	Revocations     uint64 `json:"revocations,omitempty"`
	HonestDelivered int    `json:"honest_delivered,omitempty"`
	// Dissemination: digests flushed, entries installed, and the slowest
	// first install of an AS's revocations elsewhere (virtual ms).
	DigestsSent            uint64  `json:"digests_sent,omitempty"`
	DigestEntriesInstalled uint64  `json:"digest_entries_installed,omitempty"`
	DisseminationMaxMs     float64 `json:"dissemination_max_ms,omitempty"`
	// Lifecycle: the engine's renewals, migrations and GC-reaped
	// revocation entries; pooled dials that found no EphID; deliveries
	// from an EphID past its expiry or after its voluntary revocation.
	Renewals          uint64 `json:"renewals,omitempty"`
	RenewalsFailed    uint64 `json:"renewals_failed,omitempty"`
	Migrations        uint64 `json:"migrations,omitempty"`
	RevocationsReaped uint64 `json:"revocations_reaped,omitempty"`
	NoEphIDErrors     int    `json:"no_ephid_errors,omitempty"`
	ExpiredAccepted   int    `json:"expired_accepted,omitempty"`
	RevokedAccepted   int    `json:"revoked_accepted,omitempty"`

	Attacks  map[string]uint64 `json:"attacks,omitempty"`
	Defenses map[string]uint64 `json:"defenses,omitempty"`

	PopArrivals   uint64 `json:"pop_arrivals,omitempty"`
	FlashArrivals uint64 `json:"flash_arrivals,omitempty"`
	PopTraceHash  string `json:"pop_trace_hash,omitempty"`

	Invariants *invariant.Report `json:"invariants,omitempty"`

	// Events is the simulator event count; VirtualNs the virtual time
	// the scenario consumed after build; Faults the number of chaos
	// decisions made (= the fault schedule's length).
	Events    uint64 `json:"events"`
	VirtualNs int64  `json:"virtual_ns"`
	Faults    int    `json:"faults"`

	// TraceHash digests the run: the full fault schedule plus every
	// deterministic counter above. Equal hashes mean equal runs.
	TraceHash string `json:"trace_hash"`

	// Failures lists bound violations (empty on a pass).
	Failures []string `json:"failures,omitempty"`
}

// JSON renders the canonical verdict artifact: indented, stable field
// order, trailing newline.
func (v *Verdict) JSON() ([]byte, error) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// computeTraceHash digests the verdict body (TraceHash cleared) plus
// the run's fault schedule.
func (v *Verdict) computeTraceHash(events []netsim.FaultEvent) error {
	cp := *v
	cp.TraceHash = ""
	body, err := json.Marshal(&cp)
	if err != nil {
		return err
	}
	evs, err := json.Marshal(events)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(append(body, evs...))
	v.TraceHash = hex.EncodeToString(sum[:])
	return nil
}

// SpecHash digests the canonical (re-marshaled) form of the spec, so
// formatting and key order in the source file do not matter.
func (s *Spec) SpecHash() (string, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// ScheduleVersion is the fault-schedule file format version.
const ScheduleVersion = 1

// Schedule is a recorded fault schedule: every chaos decision of one
// run, bound to the spec and seed that produced it.
type Schedule struct {
	Version  int                 `json:"version"`
	Seed     int64               `json:"seed"`
	SpecHash string              `json:"spec_hash"`
	Events   []netsim.FaultEvent `json:"events"`
}

// LoadSchedule reads a schedule file.
func LoadSchedule(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sc Schedule
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sc.Version != ScheduleVersion {
		return nil, fmt.Errorf("%s: schedule version %d, want %d", path, sc.Version, ScheduleVersion)
	}
	return &sc, nil
}

// Save writes the schedule as indented JSON.
func (sc *Schedule) Save(path string) error {
	raw, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
