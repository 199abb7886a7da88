package lint

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"
)

// fixtureExports resolves export data once for every fixture test; go list
// is module-aware, so resolution runs from the repository root. rngutil is
// included so the rngshare fixture can exercise module stream types, and
// par so the goroutine, stalesuppress and rngshare fixtures can call
// par.For.
var fixtureExports = sync.OnceValues(func() (map[string]string, error) {
	return LoadExports("../..", "time", "math/rand", "sort", "e2clab/internal/rngutil", "e2clab/internal/par")
})

// expectation is one parsed `// want "regex"` marker. The optional signed
// offset after want shifts the expected line, for diagnostics whose anchor
// (a doc-comment directive, say) cannot carry a trailing comment itself:
// `// want -1 "re"` on line L expects a finding on line L-1.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var (
	wantMarker = regexp.MustCompile(`\bwant((?:\s+-?\d+)?(?:\s+"[^"]*")+)`)
	wantOffset = regexp.MustCompile(`^\s*(-?\d+)`)
	wantQuoted = regexp.MustCompile(`"([^"]*)"`)
)

// collectWants parses every want marker in the fixture's comments.
func collectWants(t *testing.T, fset *token.FileSet, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Syntax {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantMarker.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				line := pos.Line
				rest := m[1]
				if om := wantOffset.FindStringSubmatch(rest); om != nil {
					off, _ := strconv.Atoi(om[1])
					line += off
					rest = rest[len(om[0]):]
				}
				for _, qm := range wantQuoted.FindAllStringSubmatch(rest, -1) {
					re, err := regexp.Compile(qm[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, qm[1], err)
					}
					wants = append(wants, &expectation{
						file: filepath.Base(pos.Filename),
						line: line,
						re:   re,
					})
				}
			}
		}
	}
	return wants
}

// fixtureOpts positions a testdata package inside the configuration axes a
// real module package would occupy.
type fixtureOpts struct {
	det     bool // member of the deterministic-package set
	kernel  bool // member of the kernel-package set (kernelsync)
	noalloc bool // run the compile-backed noalloc/noallocclosure checks
}

// runFixture analyzes one testdata package and matches its diagnostics
// against the want markers: every finding needs a marker on its line and
// every marker needs a finding, so both false positives and false
// negatives fail the test.
func runFixture(t *testing.T, name string, opt fixtureOpts) {
	t.Helper()
	exports, err := fixtureExports()
	if err != nil {
		t.Fatalf("resolving stdlib export data: %v", err)
	}
	fset := token.NewFileSet()
	prog, pkg, err := LoadDir(fset, filepath.Join("testdata", name), exports, opt.det)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	pkg.Kernel = opt.kernel
	cfg := Config{SkipNoAlloc: !opt.noalloc}
	diags := AnalyzePackage(prog, pkg, &cfg)
	wants := collectWants(t, fset, pkg)

	for _, dg := range diags {
		text := dg.Check + ": " + dg.Message
		matched := false
		for _, w := range wants {
			if w.hit || w.file != dg.File || w.line != dg.Line || !w.re.MatchString(text) {
				continue
			}
			w.hit = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("unexpected finding: %s", dg)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestWallclockFixture(t *testing.T)  { runFixture(t, "wallclock", fixtureOpts{}) }
func TestGlobalrandFixture(t *testing.T) { runFixture(t, "globalrand", fixtureOpts{}) }
func TestMaprangeFixture(t *testing.T)   { runFixture(t, "maprange", fixtureOpts{det: true}) }
func TestRNGSeedFixture(t *testing.T)    { runFixture(t, "rngseed", fixtureOpts{}) }
func TestGoroutineFixture(t *testing.T)  { runFixture(t, "goroutine", fixtureOpts{det: true}) }
func TestDirectiveFixture(t *testing.T)  { runFixture(t, "directive", fixtureOpts{det: true}) }
func TestRNGShareFixture(t *testing.T)   { runFixture(t, "rngshare", fixtureOpts{det: true}) }
func TestKernelSyncFixture(t *testing.T) { runFixture(t, "kernelsync", fixtureOpts{kernel: true}) }
func TestStaleFixture(t *testing.T)      { runFixture(t, "stalesuppress", fixtureOpts{det: true}) }

// TestNoAllocFixture and TestNoAllocClosureFixture shell out to go tool
// compile, so they exercise the real escape-analysis and inlining-fact
// paths end to end.
func TestNoAllocFixture(t *testing.T) { runFixture(t, "noalloc", fixtureOpts{noalloc: true}) }
func TestNoAllocClosureFixture(t *testing.T) {
	runFixture(t, "noallocclosure", fixtureOpts{noalloc: true})
}

// TestNonDeterministicScope pins the scoping rule: outside the
// deterministic set, maprange and goroutine stay quiet while the
// module-wide checks still fire.
func TestNonDeterministicScope(t *testing.T) {
	exports, err := fixtureExports()
	if err != nil {
		t.Fatalf("resolving stdlib export data: %v", err)
	}
	fset := token.NewFileSet()
	prog, pkg, err := LoadDir(fset, filepath.Join("testdata", "goroutine"), exports, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SkipNoAlloc: true}
	for _, dg := range AnalyzePackage(prog, pkg, &cfg) {
		t.Errorf("non-deterministic package should produce no findings, got: %s", dg)
	}
}

// TestRepoLintsClean locks the gate green: the repository itself must
// produce zero findings, with every intentional exception suppressed in
// place. This is the self-run the CI gate relies on.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis is too slow for -short")
	}
	diags, err := Run(Config{Dir: "../.."})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, dg := range diags {
		t.Errorf("repository finding (fix it or suppress with a reason): %s", dg)
	}
}
