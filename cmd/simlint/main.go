// Command simlint runs the repository's static-analysis suite
// (internal/lint): the determinism, RNG-discipline (seeding and
// cross-goroutine stream sharing), zero-alloc (per function and closed
// over the static call graph), kernel-synchronization, goroutine-spawn,
// and directive-hygiene / stale-suppression contracts that back the
// ROADMAP standing invariants.
//
// Usage:
//
//	simlint [-C dir] [-checks list] [-json]
//
// simlint exits 0 when the tree is clean, 1 when findings exist, and 2 when
// the analysis itself could not run (e.g. the tree does not build). It is a
// tier-1 gate: scripts/verify.sh and CI run it on every change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"e2clab/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "module root to analyze")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array for tooling")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all of "+knownChecks()+")")
	flag.Parse()

	cfg := lint.Config{Dir: *dir}
	if *checks != "" {
		cfg.Checks = map[string]bool{}
		for _, c := range strings.Split(*checks, ",") {
			c = strings.TrimSpace(c)
			if !lint.KnownChecks[c] {
				fmt.Fprintf(os.Stderr, "simlint: unknown check %q (known: %s)\n", c, knownChecks())
				os.Exit(2)
			}
			cfg.Checks[c] = true
		}
	}

	diags, err := lint.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func knownChecks() string {
	names := make([]string, 0, len(lint.KnownChecks))
	for c := range lint.KnownChecks {
		names = append(names, c)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
