// Command apna-lint runs the repo's custom static-analysis suite
// (internal/analysis): detwall, hotpath, verifyfirst, wrapcheck,
// nilness, deadexport and directive-placement validation, over the
// packages named by go list patterns. deadexport reports only when the
// patterns cover the whole module (./...), since a narrower load cannot
// see every caller; on such a run it also holds every //apna:only mark,
// which keeps a declaration to the packages it lists, so the
// architecture's single paths (one verifier, one AS constructor, one
// issuance path) fail here and in go test alike.
//
// Exit status: 0 clean, 1 findings, 2 load or internal error — so CI
// can distinguish "invariant violated" from "lint broken".
//
//	apna-lint ./...
//	apna-lint -json -out LINT.json ./...
//	apna-lint -analyzers detwall,wrapcheck ./internal/...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"apna/internal/analysis"
	"apna/internal/provenance"
)

// artifact is the -json output shape: findings carry the same
// provenance trail as the BENCH_* files, so a lint report is
// attributable to a commit and toolchain like any bench verdict.
type artifact struct {
	Provenance provenance.Block      `json:"provenance"`
	Analyzers  []string              `json:"analyzers"`
	Patterns   []string              `json:"patterns"`
	Findings   []analysis.Diagnostic `json:"findings"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit the findings as a provenance-stamped JSON artifact on stdout")
	outFile := flag.String("out", "", "also write the JSON artifact to this file")
	only := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := analysis.All()
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "apna-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	loader := analysis.NewLoader("")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apna-lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(loader.Fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apna-lint: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut || *outFile != "" {
		names := make([]string, len(analyzers))
		for i, a := range analyzers {
			names[i] = a.Name
		}
		art := artifact{
			Provenance: provenance.Collect(0, patterns),
			Analyzers:  names,
			Patterns:   patterns,
			Findings:   diags,
		}
		if art.Findings == nil {
			art.Findings = []analysis.Diagnostic{}
		}
		raw, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "apna-lint: encoding artifact: %v\n", err)
			os.Exit(2)
		}
		raw = append(raw, '\n')
		if *jsonOut {
			os.Stdout.Write(raw)
		}
		if *outFile != "" {
			if err := os.WriteFile(*outFile, raw, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "apna-lint: %v\n", err)
				os.Exit(2)
			}
		}
	}
	if !*jsonOut {
		for _, d := range diags {
			fmt.Println(d)
		}
		fmt.Fprintf(os.Stderr, "apna-lint: %d packages, %d findings\n", len(pkgs), len(diags))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
