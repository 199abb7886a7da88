// Package lint implements simlint, the repository's custom static-analysis
// suite. It machine-enforces the two standing invariants of ROADMAP.md that
// runtime tests can only sample:
//
//   - determinism: fixed-seed simulation outputs are bit-identical at any
//     parallelism. A stray time.Now(), a draw from the global math/rand
//     source, an aggregation loop ranging over a map, or an unmanaged
//     goroutine can each break that silently on paths the golden tests do
//     not happen to execute.
//   - zero allocation: the steady-state kernel paths of PR 3 (ladder
//     calendar, freelists) and PR 5 (pooled links/resets) allocate nothing.
//     sim/alloc_test.go samples specific churn loops; the noalloc check
//     proves the property for every annotated function via the compiler's
//     own escape analysis.
//
// The suite is built entirely on the standard library (go/parser, go/ast,
// go/types, go/importer): the module is stdlib-only and must stay buildable
// offline. Package discovery and type-checking are driven by `go list
// -deps -export -json` — module packages are type-checked from source
// bottom-up with an importer backed by the already-checked package map,
// while standard-library imports are satisfied from compiler export data.
//
// # Checks
//
//   - wallclock:  time.Now / time.Since anywhere outside _test.go files.
//   - globalrand: package-level math/rand draws (rand.Int, rand.Float64,
//     rand.Perm, rand.Shuffle, ...) that consume the shared global source.
//   - maprange:   `range` over a map whose body feeds output or an
//     aggregate declared outside the loop, in the deterministic packages.
//     Collect-then-sort key loops are recognized and allowed.
//   - rngseed:    rand.NewSource / rand.New seeds that are hard-coded
//     literals or derived from the wall clock instead of tracing to a
//     parameter, field, or rngutil derivation.
//   - goroutine:  bare `go` statements, and calls to par.For (the one
//     sanctioned fan-out), in the deterministic packages outside functions
//     blessed with //simlint:ordered.
//   - noalloc:    functions annotated //simlint:noalloc are cross-checked
//     against `go tool compile -m` escape analysis; any "escapes to heap"
//     or "moved to heap" diagnostic inside the function body fails.
//   - noallocclosure: the //simlint:noalloc proof is closed over the static
//     call graph — a proven function directly calling a module function
//     that is neither proven itself nor inlined at the call site is a
//     finding, so the contract cannot be hollowed out one helper at a time.
//   - rngshare:   a *rand.Rand (or rngutil stream) captured by more than
//     one spawned goroutine, spawned repeatedly from a loop (a par.For
//     body counts as one), or drawn on by both the spawner and a
//     goroutine, in the deterministic packages — the nondeterminism class
//     -race only catches when draws collide.
//   - kernelsync: wall-clock and scheduler blocking primitives
//     (sync.Mutex, sync/atomic, channel operations, select, time.Sleep)
//     inside the kernel packages (KernelPackages): virtual time must never
//     block on the Go runtime.
//   - stalesuppress: a //simlint:allow that suppresses nothing, a
//     //simlint:ordered on a function that spawns nothing (no go statement,
//     no par.For call), or a dead
//     //simlint:noalloc (no body, or duplicated) is itself a finding —
//     the suppression inventory can only shrink honestly.
//   - directive:  hygiene of the //simlint: comments themselves (unknown
//     checks, missing reasons, misplaced annotations).
//
// # Directives
//
//   - //simlint:allow <check> <reason>   suppresses findings of <check> on
//     the same line and the line below; the reason is mandatory.
//   - //simlint:noalloc <reason>         (function doc comment) declares a
//     zero-allocation contract checked against escape analysis.
//   - //simlint:ordered <reason>         (function doc comment) marks an
//     ordered-aggregation helper whose goroutines are deterministic by
//     construction (index-ordered writes, parallel == sequential).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Diagnostic is a single finding, addressed by position within the module.
type Diagnostic struct {
	File    string `json:"file"` // path relative to the module root
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// KnownChecks is the vocabulary accepted by //simlint:allow and -checks.
// (Findings of the always-on directive hygiene check and of stalesuppress
// are never suppressible: the remedy for a stale directive is deleting it.)
var KnownChecks = map[string]bool{
	"wallclock":      true,
	"globalrand":     true,
	"maprange":       true,
	"rngseed":        true,
	"goroutine":      true,
	"noalloc":        true,
	"noallocclosure": true,
	"rngshare":       true,
	"kernelsync":     true,
	"stalesuppress":  true,
}

// DeterministicPackages lists the import paths whose code must be a pure
// function of inputs and seed: everything the simulation, workload,
// sampling, surrogate, and optimization layers execute between reading a
// config and emitting a result. maprange and goroutine findings are scoped
// to these; wallclock, globalrand, and rngseed apply module-wide.
var DeterministicPackages = []string{
	"e2clab/internal/sim",
	// The sharded coordinator is deterministic BY design despite its
	// goroutines (worker count never affects output; see the package doc),
	// so it takes the full deterministic-package checks — its parallel
	// sites carry per-site //simlint:ordered attestations. It is NOT in
	// KernelPackages: kernelsync keeps the single-threaded kernel free of
	// synchronization, and this one blessed package holds all of it.
	"e2clab/internal/sim/shard",
	// par.For holds the only other go statement in these packages: every
	// repeated-run, suite, trial and surrogate fan-out goes through it, and
	// the goroutine check treats each call as a go statement.
	"e2clab/internal/par",
	"e2clab/internal/fault",
	"e2clab/internal/resilience",
	"e2clab/internal/plantnet",
	"e2clab/internal/scenario",
	"e2clab/internal/surrogate",
	"e2clab/internal/bo",
	"e2clab/internal/workload",
	"e2clab/internal/sample",
	"e2clab/internal/tune",
	"e2clab/internal/metaheur",
}

// KernelPackages lists the import paths whose code runs inside the
// discrete-event kernel: virtual time there must never block on wall-clock
// or scheduler primitives, which is what the kernelsync check bans
// (sync.Mutex, sync/atomic, channel operations, select, time.Sleep).
var KernelPackages = []string{
	"e2clab/internal/sim",
}

// Config controls a Run.
type Config struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Deterministic lists import paths subject to the deterministic-package
	// checks. Nil means DeterministicPackages.
	Deterministic []string
	// Kernel lists import paths subject to the kernelsync check. Nil means
	// KernelPackages.
	Kernel []string
	// Checks enables a subset of checks by name; nil enables all. The
	// directive check is always on.
	Checks map[string]bool
	// SkipNoAlloc disables the escape-analysis cross-check (it shells out
	// to the compiler, which pure-AST callers may want to avoid).
	SkipNoAlloc bool
}

func (c *Config) enabled(check string) bool {
	return c.Checks == nil || c.Checks[check]
}

func (c *Config) deterministic(importPath string) bool {
	det := c.Deterministic
	if det == nil {
		det = DeterministicPackages
	}
	for _, p := range det {
		if p == importPath {
			return true
		}
	}
	return false
}

func (c *Config) kernel(importPath string) bool {
	ker := c.Kernel
	if ker == nil {
		ker = KernelPackages
	}
	for _, p := range ker {
		if p == importPath {
			return true
		}
	}
	return false
}

// ran reports whether findings of check could have been produced for pkg
// under this configuration — the gate the stalesuppress check uses so an
// //simlint:allow is only "stale" when the check it suppresses actually ran
// (a -checks subset run must not misreport every other allow as dead).
func (c *Config) ran(check string, pkg *Package) bool {
	if !c.enabled(check) {
		return false
	}
	switch check {
	case "maprange", "goroutine", "rngshare":
		return pkg.Deterministic
	case "kernelsync":
		return pkg.Kernel
	case "noalloc", "noallocclosure":
		return !c.SkipNoAlloc
	case "stalesuppress":
		return false // never suppressible, so an allow for it never fires
	}
	return true
}

// Run loads the module at cfg.Dir and applies every enabled check,
// returning the surviving (unsuppressed) diagnostics sorted by position. A
// non-nil error means the analysis itself could not run (a build or load
// failure), not that findings exist.
func Run(cfg Config) ([]Diagnostic, error) {
	prog, err := Load(cfg.Dir)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		pkg.Deterministic = cfg.deterministic(pkg.ImportPath)
		pkg.Kernel = cfg.kernel(pkg.ImportPath)
		diags = append(diags, AnalyzePackage(prog, pkg, &cfg)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// AnalyzePackage applies every enabled check to one loaded package and
// returns the unsuppressed findings. Exposed for fixture tests.
func AnalyzePackage(prog *Program, pkg *Package, cfg *Config) []Diagnostic {
	dirs := collectDirectives(prog, pkg)
	prog.registerProven(pkg, dirs)
	var diags []Diagnostic
	diags = append(diags, dirs.hygiene...)
	if cfg.enabled("wallclock") || cfg.enabled("globalrand") || cfg.enabled("maprange") {
		diags = append(diags, checkDeterminism(prog, pkg, cfg)...)
	}
	if cfg.enabled("rngseed") {
		diags = append(diags, checkRNGSeed(prog, pkg)...)
	}
	if cfg.enabled("goroutine") && pkg.Deterministic {
		diags = append(diags, checkGoroutine(prog, pkg, dirs)...)
	}
	if cfg.enabled("rngshare") && pkg.Deterministic {
		diags = append(diags, checkRNGShare(prog, pkg)...)
	}
	if cfg.enabled("kernelsync") && pkg.Kernel {
		diags = append(diags, checkKernelSync(prog, pkg)...)
	}
	if (cfg.enabled("noalloc") || cfg.enabled("noallocclosure")) && !cfg.SkipNoAlloc {
		nd, facts, err := checkNoAlloc(prog, pkg, dirs)
		if err != nil {
			diags = append(diags, Diagnostic{
				File:    relFile(prog, pkg.Files[0]),
				Line:    1,
				Col:     1,
				Check:   "noalloc",
				Message: fmt.Sprintf("escape analysis failed: %v", err),
			})
		}
		if cfg.enabled("noalloc") {
			diags = append(diags, nd...)
		}
		if cfg.enabled("noallocclosure") && facts != nil {
			diags = append(diags, checkNoAllocClosure(prog, pkg, dirs, facts)...)
		}
	}
	out := dirs.filter(diags)
	if cfg.enabled("stalesuppress") {
		out = append(out, checkStaleSuppress(prog, pkg, dirs, cfg)...)
	}
	return out
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}

// diag builds a Diagnostic at pos, with the file path relativized to the
// module root.
func diag(prog *Program, pos token.Pos, check, format string, args ...any) Diagnostic {
	p := prog.Fset.Position(pos)
	return Diagnostic{
		File:    relFile(prog, p.Filename),
		Line:    p.Line,
		Col:     p.Column,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	}
}

func relFile(prog *Program, abs string) string {
	if prog.Dir != "" && strings.HasPrefix(abs, prog.Dir+"/") {
		return abs[len(prog.Dir)+1:]
	}
	return abs
}

// funcFor returns the innermost top-level function declaration enclosing
// pos in file, or nil.
func funcFor(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil &&
			fd.Body.Pos() <= pos && pos <= fd.Body.End() {
			return fd
		}
	}
	return nil
}
