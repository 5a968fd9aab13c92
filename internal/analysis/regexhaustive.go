package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// RegExhaustive ("registry-exhaustive") closes the silent-bypass hole
// that bit PR 7 and PR 8: the repo grows by registries — robust losses,
// fault-model families, job lifecycle states, penalty
// kinds — and every switch or keyed literal that dispatches over one is
// a place where the *next* registered member can silently fall through
// to the wrong arm. A sixth loss that misses one plumbing switch ships
// with the legacy objective; a seventh lifecycle state that misses a
// metrics map just never appears in /metrics.
//
// Domains ("enum groups") come from the facts layer:
//
//   - automatically, for every named-type constant family (robust.Kind,
//     core.PenaltyKind, fpu.Op, dispatch.shardState, ...);
//   - by declaration, for untyped const blocks carrying //lint:enum
//     <group> <doc> (job-state, fault-model-family) — blocks in one
//     package sharing the group word merge, so a member declared in
//     another file joins the same domain;
//   - by aliasing: a constant declared as a registered member
//     (campaign.StateDone = job.StateDone) counts as that member, so
//     campaign.State* and tune.State* dispatch over the one job-state
//     group.
//
// A switch statement, map literal, or slice/array literal that mentions
// any member of a group must mention every member. A `default:` clause
// does not count as coverage — the default arm is exactly where an
// unplumbed new member hides. Sites that are genuinely partial by
// design (a terminal-states predicate, an error default) either spell
// out the remaining members or carry //lint:regexhaustive-exempt
// <reason>.
var RegExhaustive = &Analyzer{
	Name:      "regexhaustive",
	Directive: "regexhaustive-exempt",
	Doc:       "dispatch over a registered enum must cover every registered member",
	Run:       runRegExhaustive,
}

func runRegExhaustive(pass *Pass) {
	if pass.Facts == nil {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SwitchStmt:
				if v.Tag == nil {
					return true
				}
				var exprs []ast.Expr
				for _, c := range v.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						exprs = append(exprs, cc.List...)
					}
				}
				checkDispatch(pass, v.Pos(), "switch", exprs)
			case *ast.CompositeLit:
				t := pass.typeOf(v)
				if t == nil {
					return true
				}
				switch t.Underlying().(type) {
				case *types.Map:
					var keys []ast.Expr
					for _, e := range v.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							keys = append(keys, kv.Key)
						}
					}
					checkDispatch(pass, v.Pos(), "map literal", keys)
				case *types.Slice, *types.Array:
					var elts []ast.Expr
					for _, e := range v.Elts {
						if _, ok := e.(*ast.KeyValueExpr); !ok {
							elts = append(elts, e)
						}
					}
					checkDispatch(pass, v.Pos(), "literal", elts)
				}
			}
			return true
		})
	}
}

// checkDispatch resolves the constant members mentioned by the site's
// expressions and, for every enum group touched, reports the members
// the site misses.
func checkDispatch(pass *Pass, pos token.Pos, site string, exprs []ast.Expr) {
	present := make(map[string]bool)
	var groups []*EnumGroup
	seen := make(map[*EnumGroup]bool)
	for _, e := range exprs {
		key := pass.Facts.Canonical(constKeyOf(pass.Info, e))
		if key == "" {
			continue
		}
		g := pass.Facts.MemberGroup(key)
		if g == nil {
			continue
		}
		present[key] = true
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	for _, g := range groups {
		var missing []string
		for _, m := range g.Members {
			if !present[m] {
				missing = append(missing, memberShort(m))
			}
		}
		if len(missing) == 0 {
			continue
		}
		sort.Strings(missing)
		pass.Report(pos, "%s dispatches over %s but misses %s — a newly registered member would silently bypass this site; cover it or //lint:regexhaustive-exempt <reason>",
			site, g.Name, strings.Join(missing, ", "))
	}
}

// constKeyOf resolves an expression to a constant's key (pkgpath.Name),
// or "".
func constKeyOf(info *types.Info, e ast.Expr) string {
	var id *ast.Ident
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return ""
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil {
		return ""
	}
	return c.Pkg().Path() + "." + c.Name()
}
