// Package analysis is a self-contained static-analysis framework plus the
// repo's analyzer suite ("robustlint"). It enforces invariants the generic
// Go tooling cannot know about:
//
//   - atomicwrite: *.json artifacts under a data root are written through
//     fsutil.WriteFileAtomic (temp + fsync + rename), never os.WriteFile.
//   - seededrand: no global math/rand and no time-derived seeds outside
//     _test.go files and examples/.
//   - locksafety: no call made under a mutex may reacquire it or block on
//     a channel send, however many frames down.
//   - errdurability: no discarded error from a durability sink, directly
//     or transitively.
//
// The framework deliberately mirrors the shape of golang.org/x/tools/
// go/analysis (Analyzer, Pass, Diagnostic) so the suite can migrate to the
// real driver if the module ever takes on the dependency, but it is built
// entirely on the standard library: packages are located and compiled with
// `go list -export`, then re-type-checked from source with go/types and an
// export-data importer. See load.go.
//
// Every analyzer supports a written escape hatch, `//lint:<directive>
// <reason>`; a directive with no reason is itself a diagnostic. See
// exempt.go for directive scoping rules.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Directive is the exemption directive (without the "//lint:"
	// prefix), e.g. "rand-exempt". Diagnostics at positions covered by
	// the directive are suppressed; see exempt.go.
	Directive string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer

	// Path is the package's import path. Analyzers scope themselves by
	// it (e.g. seededrand skips examples/, atomicwrite audits only the
	// packages that write artifacts). The fixture runner overrides it so
	// testdata packages can stand in for real ones.
	Path string

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Facts is the call-graph database over every package of the run —
	// the cross-function layer the lock-safety and error-durability
	// analyzers query.
	Facts *Facts

	pkg     *Package
	exempt  *exemptIndex
	collect func(Diagnostic)
}

// Diagnostic is one reported finding. Exempted diagnostics — findings a
// //lint: directive suppressed, together with the directive's written
// reason — are only collected when the run asks for them (the JSON
// output surfaces them; plain text and the exit status never count
// them).
type Diagnostic struct {
	Pos          token.Position
	Analyzer     string
	Message      string
	Exempted     bool
	ExemptReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Report files a diagnostic at pos unless an in-scope exemption directive
// for this analyzer covers it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if reason, covered := p.exempt.coveredBy(p.Analyzer.Directive, position); covered {
		p.collect(Diagnostic{
			Pos:          position,
			Analyzer:     p.Analyzer.Name,
			Message:      fmt.Sprintf(format, args...),
			Exempted:     true,
			ExemptReason: reason,
		})
		return
	}
	p.collect(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// typeOf returns the type of e, or nil.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// pkgFunc matches a call to a package-level function: it returns the
// imported package path and function name of e's callee, or "" when the
// callee is not a selector on an imported package.
func (p *Pass) pkgFunc(call *ast.CallExpr) (pkgPath, fn string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// objectOf resolves an identifier to its object (definition or use).
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// rootIdent peels selectors, indexes, and parens down to the base
// identifier of an lvalue-ish expression: x, x.F, x[i].F → x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
