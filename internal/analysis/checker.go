package analysis

import (
	"sort"
)

// All returns the robustlint analyzer suite in stable order. The first
// two are single-function AST passes; the last two query the
// cross-function facts layer (facts.go) built once per run.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicWrite,
		SeededRand,
		LockSafety,
		ErrDurability,
	}
}

// DirectiveHygieneName labels the framework's own diagnostics about
// malformed //lint: comments. It is not an analyzer and cannot be
// exempted: an exemption without a written reason defeats the audit
// trail the directives exist to provide.
const DirectiveHygieneName = "lintdirective"

// knownDirectives returns the exemption directives of every registered
// analyzer, and separately the full set of valid //lint: names (markers
// included) the hygiene check accepts.
func knownDirectives() (exempts, all map[string]bool) {
	exempts = make(map[string]bool)
	for _, a := range All() { // all registered directives stay valid even under -only
		if a.Directive != "" {
			exempts[a.Directive] = true
		}
	}
	all = map[string]bool{DirectiveDurable: true}
	for d := range exempts {
		all[d] = true
	}
	return exempts, all
}

// RunWithExempted loads the packages matching patterns under dir and
// applies every analyzer to every package, returning the diagnostics
// sorted by position. Directive hygiene — unknown //lint: directives and
// directives with no reason — is always checked. The result includes the
// findings //lint: directives suppressed, each carrying its Exempted
// flag and the directive's written reason, so the JSON output shows the
// full audit surface; the exit status and text output must count only
// live findings.
func RunWithExempted(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	facts := BuildFacts(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, runPackage(pkg, "", analyzers, facts)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunPackage applies analyzers to one loaded package, with call-graph
// facts built over that package alone. pathAs, when non-empty, overrides
// the package's import path for analyzer scoping — the fixture runner
// uses it so testdata packages can impersonate the real paths an
// analyzer audits. Exempted findings are dropped.
func RunPackage(pkg *Package, pathAs string, analyzers []*Analyzer) []Diagnostic {
	return dropExempted(runPackage(pkg, pathAs, analyzers, BuildFacts([]*Package{pkg})))
}

func runPackage(pkg *Package, pathAs string, analyzers []*Analyzer, facts *Facts) []Diagnostic {
	path := pkg.Path
	if pathAs != "" {
		path = pathAs
	}
	exempts, valid := knownDirectives()
	exempt := buildExemptIndex(pkg.Fset, pkg.Files, exempts)

	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }

	diags = append(diags, checkDirectiveHygiene(pkg, valid)...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Facts:    facts,
			pkg:      pkg,
			exempt:   exempt,
			collect:  collect,
		}
		a.Run(pass)
	}
	return diags
}

// dropExempted filters out suppressed findings, preserving order.
func dropExempted(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if !d.Exempted {
			out = append(out, d)
		}
	}
	return out
}

// checkDirectiveHygiene reports malformed //lint: comments: unknown
// directive names (usually typos, which would silently exempt nothing)
// and directives missing the mandatory reason — exemptions and marker
// directives (//lint:durable) alike.
func checkDirectiveHygiene(pkg *Package, known map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, d := range parseDirectives(f) {
			switch {
			case !known[d.name]:
				diags = append(diags, Diagnostic{
					Pos:      pkg.Fset.Position(d.pos),
					Analyzer: DirectiveHygieneName,
					Message:  "unknown //lint: directive " + d.name,
				})
			case d.reason == "":
				diags = append(diags, Diagnostic{
					Pos:      pkg.Fset.Position(d.pos),
					Analyzer: DirectiveHygieneName,
					Message:  "//lint:" + d.name + " needs a written reason",
				})
			}
		}
	}
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
