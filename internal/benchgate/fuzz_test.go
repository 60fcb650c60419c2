package benchgate

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseArtifact drives the artifact parser with arbitrary bytes:
// it must never panic, and whatever it accepts must honor the parsed
// contract — a provenance config hash, and metric series that exist
// where the gate will dereference them. Seeds include the golden
// results file, whole, truncated and followed by trailing data, plus
// the malformed and foreign shapes the rejection tests pin (missing
// provenance, a missing end-to-end metric, a failed operation, a
// mistyped median, the E9 and E10 JSON lines, the E11 and E12
// objects).
func FuzzParseArtifact(f *testing.F) {
	if data, err := os.ReadFile(filepath.Join("testdata", "BENCH_bench.json")); err == nil {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(append(data, `{"extra":true}`...))
	}
	f.Add([]byte(`{"provenance":{"config_hash":"ab"},"workloads":{"w":{"metrics":{"ops_per_s":{"median":1},"setup_s":{"median":1}}}}}`))
	f.Add([]byte(`{"workloads":{"w":{"metrics":{"ops_per_s":{"median":1}}}}}`))
	f.Add([]byte(`{"provenance":{"config_hash":"ab"},"workloads":{"w":{"metrics":{"ops_per_s":{"median":1}}}}}`))
	f.Add([]byte(`{"provenance":{"config_hash":"ab"},"workloads":{"w":{"failed":1,"metrics":{"ops_per_s":{"median":1},"setup_s":{"median":1}}}}}`))
	f.Add([]byte(`{"provenance":{"config_hash":"ab"},"workloads":{"w":{"metrics":{"ops_per_s":{"median":"fast"}}}}}`))
	f.Add([]byte(`{"experiment":"e9","provenance":{"config_hash":"ab"}}` + "\n" + `{"seed":1}`))
	f.Add([]byte(`{"experiment":"e11","provenance":{"config_hash":"ab"},"tiers":[{"hosts":10,"result":{}}]}`))
	f.Add([]byte(`{"experiment":"e10","provenance":{"config_hash":"ab"}}` + "\n" + `{"seed":1}`))
	f.Add([]byte(`{"experiment":"e12","provenance":{"config_hash":"ab"},"relay":{}}`))
	f.Add([]byte("null"))
	f.Add([]byte("[1,2,3]"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := ParseArtifact(data)
		if err != nil {
			return
		}
		if art.Provenance.ConfigHash == "" {
			t.Fatal("accepted artifact without a provenance config hash")
		}
		for _, m := range art.Metrics {
			if m.Name == "" {
				t.Fatal("accepted artifact with an unnamed metric")
			}
		}
		// Whatever parses must survive the rest of the pipeline: a
		// self-comparison can only pass or skip, never fail or error.
		res, err := Compare([]*Artifact{art}, []*Artifact{art})
		if err != nil {
			t.Fatalf("self-comparison errored: %v", err)
		}
		if res.Status == StatusFail {
			t.Fatalf("self-comparison regressed: %+v", res.Metrics)
		}
	})
}
