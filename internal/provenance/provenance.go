// Package provenance stamps benchmark artifacts with where they came
// from: commit hash, configuration digest, seed, toolchain and
// timestamp. The benchmark's results file (go run ./bench) embeds one
// Block, so the trend gate (internal/benchgate) has stable,
// self-describing inputs; apna-lint's findings file (-out) embeds one
// too, so its run conditions need no reconstructing from CI metadata.
package provenance

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Block is the provenance record embedded in benchmark artifacts.
type Block struct {
	// Commit is the VCS revision the binary was built from ("unknown"
	// when the build carries no VCS stamp and no CI environment names
	// one).
	Commit string `json:"commit"`
	// Dirty reports uncommitted modifications at build time (only
	// meaningful when the commit came from the build info).
	Dirty bool `json:"dirty,omitempty"`
	// Seed is the experiment's base seed.
	Seed int64 `json:"seed"`
	// ConfigHash is the SHA-256 of the experiment configuration's JSON
	// encoding: two artifacts compare like-for-like only if it matches.
	ConfigHash string `json:"config_hash"`
	// GoVersion, OS, Arch and CPUs describe the toolchain and machine.
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	// Timestamp is the collection time in RFC 3339 UTC.
	Timestamp string `json:"timestamp"`
}

// Comparable reports whether two blocks describe like-for-like runs:
// both carry a configuration digest and the digests match. It is the
// trend gate's admission rule — artifacts from different
// configurations must never be compared, only skipped.
func (b Block) Comparable(o Block) bool {
	return b.ConfigHash != "" && b.ConfigHash == o.ConfigHash
}

// ShortConfigHash returns the first 12 hex digits of the config hash
// for logs and reports ("" stays "").
func (b Block) ShortConfigHash() string {
	if len(b.ConfigHash) <= 12 {
		return b.ConfigHash
	}
	return b.ConfigHash[:12]
}

// Collect builds the provenance block for one experiment run. config
// is the experiment's configuration struct; its JSON encoding is
// hashed, never embedded, so the block stays one line regardless of
// config size.
func Collect(seed int64, config any) Block {
	b := Block{
		Seed:      seed,
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339), //apna:wallclock
	}
	b.Commit, b.Dirty = commit()
	if raw, err := json.Marshal(config); err == nil {
		sum := sha256.Sum256(raw)
		b.ConfigHash = hex.EncodeToString(sum[:])
	}
	return b
}

// commit resolves the build's VCS revision: the Go build info when the
// binary was built inside a checkout, else the revision CI advertises
// (GITHUB_SHA), else "unknown". `go run` from a work tree carries the
// VCS stamp, so CI's bench jobs get real hashes either way.
func commit() (rev string, dirty bool) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		rev = os.Getenv("GITHUB_SHA")
	}
	if rev == "" {
		rev = "unknown"
	}
	return rev, dirty
}
