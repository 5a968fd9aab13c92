package analysis

import (
	"regexp"
	"strings"
	"testing"
)

// The fixture runner is a small analysistest: each package under
// testdata/src/<name> is loaded through the same Load path as real
// packages, run through RunPackage with an impersonated import path
// (pathAs) so scoped analyzers fire, and its diagnostics are compared
// against `// want "substr"` comments — every diagnostic must match a
// want on its line, and every want must be hit by a diagnostic.

// loadFixture loads the one package under testdata/src/<name>.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := Load("testdata/src/"+name, ".")
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

var wantRE = regexp.MustCompile(`"([^"]*)"`)

// wantKey addresses one fixture source line.
type wantKey struct {
	file string
	line int
}

// fixtureWants extracts the `// want "substr"` assertions per line.
func fixtureWants(pkg *Package) map[wantKey][]string {
	out := make(map[wantKey][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
					out[k] = append(out[k], m[1])
				}
			}
		}
	}
	return out
}

// runFixture applies analyzers to the fixture under pathAs and checks the
// diagnostics against the fixture's want comments.
func runFixture(t *testing.T, fixture, pathAs string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	wants := fixtureWants(pkg)
	diags := RunPackage(pkg, pathAs, analyzers)

	matched := make(map[wantKey][]bool)
	for k, subs := range wants {
		matched[k] = make([]bool, len(subs))
	}
	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		hit := false
		for i, s := range wants[k] {
			if strings.Contains(d.Message, s) {
				matched[k][i] = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, subs := range wants {
		for i, s := range subs {
			if !matched[k][i] {
				t.Errorf("%s:%d: want %q: no diagnostic matched", k.file, k.line, s)
			}
		}
	}
}

func TestAtomicWriteFixture(t *testing.T) {
	runFixture(t, "atomicwrite", "robustify/internal/campaign", []*Analyzer{AtomicWrite})
}

func TestSeededRandFixture(t *testing.T) {
	runFixture(t, "seededrand", "", []*Analyzer{SeededRand})
}

func TestSeededRandSkipsExamples(t *testing.T) {
	// Example mains keep fixed seeds by convention (pinned by their own
	// determinism tests); the analyzer leaves them alone entirely.
	pkg := loadFixture(t, "seededrand")
	for _, d := range RunPackage(pkg, "robustify/examples/demo", []*Analyzer{SeededRand}) {
		t.Errorf("examples-path diagnostic: %s", d)
	}
}

// TestDirectiveHygiene pins the hygiene rules with explicit expectations
// (the reported positions are comment lines, where an inline want comment
// cannot sit).
func TestDirectiveHygiene(t *testing.T) {
	pkg := loadFixture(t, "lintdirective")
	diags := RunPackage(pkg, "", []*Analyzer{SeededRand})

	expect := []struct {
		analyzer, substr string
	}{
		{DirectiveHygieneName, "unknown //lint: directive rand-exmept"},
		{DirectiveHygieneName, "needs a written reason"},
		// Directives of retired analyzers and markers are unknown now:
		// each is reported instead of silently scoping nothing.
		{DirectiveHygieneName, "unknown //lint: directive goroutinehygiene-exempt"},
		{DirectiveHygieneName, "unknown //lint: directive regexhaustive-exempt"},
		{DirectiveHygieneName, "unknown //lint: directive enum"},
		{DirectiveHygieneName, "unknown //lint: directive detmap-exempt"},
		{DirectiveHygieneName, "unknown //lint: directive fpu-exempt"},
		{DirectiveHygieneName, "unknown //lint: directive artifact-time-exempt"},
		// The misspelled directive exempts nothing: Typo's draw is flagged.
		{"seededrand", "rand.Intn uses the global math/rand source"},
	}
	for _, e := range expect {
		found := false
		for _, d := range diags {
			if d.Analyzer == e.analyzer && strings.Contains(d.Message, e.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %s diagnostic containing %q in %v", e.analyzer, e.substr, diags)
		}
	}
	// NoReason's draw is suppressed (the directive still scopes), but
	// the missing reason above keeps the run red — exactly one
	// seededrand diagnostic total.
	nRand := 0
	for _, d := range diags {
		if d.Analyzer == "seededrand" {
			nRand++
		}
	}
	if nRand != 1 {
		t.Errorf("got %d seededrand diagnostics, want 1: %v", nRand, diags)
	}
}

func TestLockSafetyFixture(t *testing.T) {
	// The fixture reproduces the PR-9 deadlock in miniature: an emit
	// under m.mu whose callee — static and through an interface sink —
	// reacquires m.mu, plus channel sends parked inside the critical
	// section. The separate-event-mutex fix shape stays clean.
	runFixture(t, "locksafety", "", []*Analyzer{LockSafety})
}

func TestErrDurabilityFixture(t *testing.T) {
	runFixture(t, "errdurability", "", []*Analyzer{ErrDurability})
}
