package lint

import "go/ast"

// checkStaleSuppress reports directives that no longer suppress or prove
// anything. Every surviving //simlint: directive is a standing claim about
// the code next to it; when the code changes and the claim goes dead, the
// directive becomes misdirection — it reads as "there is a finding here
// being consciously accepted" when there is nothing. Keeping the
// suppression inventory honest means it can only shrink: a dead directive
// is itself a finding, and (like directive hygiene) it can never be
// suppressed — the remedy is deleting it.
//
// Staleness is judged only against checks that actually ran for this
// package under this configuration (Config.ran): an //simlint:allow
// maprange in a non-deterministic package, or any allow during a -checks
// subset run that excludes its check, is not reported — the directive may
// well be load-bearing under the full configuration.
func checkStaleSuppress(prog *Program, pkg *Package, dirs *directives, cfg *Config) []Diagnostic {
	var diags []Diagnostic

	// Allow directives that matched no finding.
	for _, byLine := range dirs.allow {
		for _, list := range byLine {
			for _, a := range list {
				if a.used || !cfg.ran(a.check, pkg) {
					continue
				}
				diags = append(diags, diag(prog, a.pos, "stalesuppress",
					"//simlint:allow %s suppresses nothing on this line or the line below; delete it (a suppression that outlives its finding reads as an accepted violation that does not exist)", a.check))
			}
		}
	}

	// Ordered annotations on functions that spawn nothing (neither a go
	// statement nor a par.For call).
	if cfg.ran("goroutine", pkg) {
		for _, o := range dirs.orderedList {
			if o.fn.Body == nil || spawnsGoroutine(pkg, o.fn.Body) {
				continue
			}
			diags = append(diags, diag(prog, o.pos, "stalesuppress",
				"//simlint:ordered on %s, which spawns no goroutine: the ordered-aggregation attestation proves nothing here; delete it", o.fn.Name.Name))
		}
	}

	// Dead noalloc annotations: bodyless functions prove nothing (the
	// escape check compiles bodies), and duplicates restate an existing
	// proof.
	if cfg.enabled("noalloc") {
		seen := map[*ast.FuncDecl]bool{}
		for _, a := range dirs.noalloc {
			switch {
			case a.fn.Body == nil:
				diags = append(diags, diag(prog, a.pos, "stalesuppress",
					"//simlint:noalloc on bodyless declaration %s: escape analysis has no body to prove; annotate the implementation instead", a.fn.Name.Name))
			case seen[a.fn]:
				diags = append(diags, diag(prog, a.pos, "stalesuppress",
					"duplicate //simlint:noalloc on %s: one annotation per function carries the proof; delete the extras", a.fn.Name.Name))
			default:
				seen[a.fn] = true
			}
		}
	}
	return diags
}

// spawnsGoroutine reports whether body contains a go statement or a call
// to par.For.
func spawnsGoroutine(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		found = found || spawns(pkg, n)
		return !found
	})
	return found
}
