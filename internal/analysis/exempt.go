package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Exemption directives
//
// A diagnostic is suppressed by a comment of the form
//
//	//lint:<directive> <reason>
//
// where <directive> is the analyzer's Directive (e.g. "rand-exempt") and
// <reason> is mandatory free text explaining why the invariant does not
// apply. The directive covers one statement: the innermost statement
// spanning the comment (trailing) or starting on the line right after it
// (standalone), multi-line statements in full. A directive anywhere else
// covers nothing.
//
// A directive with an empty reason, or an unknown //lint: directive, is
// itself reported; the hygiene check lives in checker.go so every run of
// the suite enforces it regardless of which analyzers are selected.

const directivePrefix = "//lint:"

// directive is one parsed //lint: comment.
type directive struct {
	name   string // e.g. "rand-exempt"
	reason string
	pos    token.Pos
}

// lineRange is an inclusive exempted line span within one file, carrying
// the directive's written reason so suppressed findings can surface it.
type lineRange struct {
	from, to int
	reason   string
}

// exemptIndex answers "is this position covered by a directive for this
// analyzer" across all files of a package.
type exemptIndex struct {
	// byFile is keyed by filename; values map directive name → spans.
	byFile map[string]map[string][]lineRange
}

// coveredBy reports whether a directive for the analyzer spans pos, and
// with which written reason.
func (x *exemptIndex) coveredBy(directiveName string, pos token.Position) (string, bool) {
	if x == nil || directiveName == "" {
		return "", false
	}
	for _, r := range x.byFile[pos.Filename][directiveName] {
		if pos.Line >= r.from && pos.Line <= r.to {
			return r.reason, true
		}
	}
	return "", false
}

// parseDirectives extracts every //lint: comment from f.
func parseDirectives(f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			name, reason, _ := strings.Cut(rest, " ")
			out = append(out, directive{
				name:   strings.TrimSpace(name),
				reason: strings.TrimSpace(reason),
				pos:    c.Pos(),
			})
		}
	}
	return out
}

// buildExemptIndex resolves each directive in each file to its exempted
// line span. known maps directive name → true for every registered
// analyzer directive; unknown names are left out of the index (the
// hygiene check reports them separately).
func buildExemptIndex(fset *token.FileSet, files []*ast.File, known map[string]bool) *exemptIndex {
	idx := &exemptIndex{byFile: make(map[string]map[string][]lineRange)}
	for _, f := range files {
		fileName := fset.Position(f.Pos()).Filename
		spans := idx.byFile[fileName]
		if spans == nil {
			spans = make(map[string][]lineRange)
			idx.byFile[fileName] = spans
		}
		for _, d := range parseDirectives(f) {
			if !known[d.name] {
				continue
			}
			if r, ok := innermostStmtRange(fset, f, fset.Position(d.pos).Line); ok {
				r.reason = d.reason
				spans[d.name] = append(spans[d.name], r)
			}
		}
	}
	return idx
}

// innermostStmtRange finds the smallest statement whose line span
// contains line or starts on the line after it. ok is false when none
// does.
func innermostStmtRange(fset *token.FileSet, f *ast.File, line int) (lineRange, bool) {
	best := lineRange{}
	bestSize := 1 << 30
	found := false
	consider := func(n ast.Node) {
		from := fset.Position(n.Pos()).Line
		to := fset.Position(n.End()).Line
		if from <= line && line <= to || from == line+1 {
			if size := to - from; !found || size < bestSize {
				best, bestSize, found = lineRange{from: from, to: to}, size, true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if _, ok := n.(ast.Stmt); ok {
			consider(n)
		}
		return true
	})
	return best, found
}
