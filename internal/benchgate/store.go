package benchgate

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ErrNoBaseline reports that the store holds no baseline for an
// experiment + config hash pair. The gate treats it as a skip.
var ErrNoBaseline = errors.New("benchgate: no comparable baseline")

// Store is the on-disk baseline store. One file per (experiment,
// config hash) pair holds the raw artifact bytes of the last accepted
// run set; keeping the raw bytes (not parsed metrics) means a later
// parser can re-extract richer series from old baselines.
type Store struct {
	// Dir is the store root; CI restores and saves it via the actions
	// cache.
	Dir string
}

// storedBaseline is the baseline file shape.
type storedBaseline struct {
	Experiment string `json:"experiment"`
	ConfigHash string `json:"config_hash"`
	Commit     string `json:"commit"`
	SavedAt    string `json:"saved_at"`
	// Artifacts holds each rerun's raw artifact bytes.
	Artifacts []string `json:"artifacts"`
}

// path keys the baseline file by experiment and truncated config hash.
func (s Store) path(exp, configHash string) string {
	hash := configHash
	if len(hash) > 16 {
		hash = hash[:16]
	}
	return filepath.Join(s.Dir, fmt.Sprintf("%s-%s.json", exp, hash))
}

// Save parses and stores raws as the baseline for their shared
// experiment + config hash, replacing any previous one.
func (s Store) Save(raws [][]byte) error {
	if len(raws) == 0 {
		return fmt.Errorf("benchgate: nothing to save")
	}
	arts := make([]*Artifact, 0, len(raws))
	stored := storedBaseline{SavedAt: time.Now().UTC().Format(time.RFC3339)} //apna:wallclock
	for i, raw := range raws {
		art, err := ParseArtifact(raw)
		if err != nil {
			return fmt.Errorf("benchgate: baseline artifact %d: %w", i+1, err)
		}
		arts = append(arts, art)
		stored.Artifacts = append(stored.Artifacts, string(raw))
	}
	exp, hash, err := sideKey(arts)
	if err != nil {
		return fmt.Errorf("benchgate: baseline set: %w", err)
	}
	stored.Experiment, stored.ConfigHash = exp, hash
	stored.Commit = arts[0].Provenance.Commit
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("benchgate: store dir: %w", err)
	}
	data, err := json.MarshalIndent(&stored, "", "  ")
	if err != nil {
		return err
	}
	// Write-then-rename so a crashed save never leaves a torn baseline
	// for the next CI run to choke on.
	tmp := s.path(exp, hash) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("benchgate: store write: %w", err)
	}
	return os.Rename(tmp, s.path(exp, hash))
}

// Load returns the parsed baseline artifacts for an experiment +
// config hash, or ErrNoBaseline.
func (s Store) Load(exp, configHash string) ([]*Artifact, error) {
	data, err := os.ReadFile(s.path(exp, configHash))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w for %s config %.12s", ErrNoBaseline, exp, configHash)
	}
	if err != nil {
		return nil, fmt.Errorf("benchgate: store read: %w", err)
	}
	var stored storedBaseline
	if err := json.Unmarshal(data, &stored); err != nil {
		return nil, fmt.Errorf("benchgate: corrupt baseline %s: %w", s.path(exp, configHash), err)
	}
	if stored.ConfigHash != configHash || stored.Experiment != exp {
		// A truncated-hash filename collision or a hand-edited file:
		// refuse rather than compare unlike runs.
		return nil, fmt.Errorf("%w: stored baseline is %s config %.12s", ErrNoBaseline,
			stored.Experiment, stored.ConfigHash)
	}
	arts := make([]*Artifact, 0, len(stored.Artifacts))
	for i, raw := range stored.Artifacts {
		art, err := ParseArtifact([]byte(raw))
		if err != nil {
			return nil, fmt.Errorf("benchgate: corrupt baseline artifact %d in %s: %w",
				i+1, s.path(exp, configHash), err)
		}
		arts = append(arts, art)
	}
	if len(arts) == 0 {
		return nil, fmt.Errorf("%w: baseline file holds no artifacts", ErrNoBaseline)
	}
	return arts, nil
}
