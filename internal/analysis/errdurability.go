package analysis

import (
	"go/ast"
	"go/types"
)

// ErrDurability guards the durability contract at its weakest point: the
// discarded error. The repo's recovery story rests on "a Put that
// returned nil is on disk" — which inverts into "a Put whose error
// nobody looked at may never have happened". A trial recorded through a
// swallowed Store.Put is a trial the next resume silently re-runs at
// best and loses at worst.
//
// Durability sinks are declared in the code they live in: a
// //lint:durable <reason> marker on a function (fsutil.WriteFileAtomic,
// Store.Put/PutBatch, the flock acquisition, telemetry flushes)
// makes it a sink root. The call-graph facts layer then propagates: any function
// that calls a sink (or a propagator) and returns an error is itself a
// durability-error carrier — so a helper that swallows the error is as
// guilty as the original call site, and a call site that discards the
// helper's error is flagged the same as one that discards the sink's.
//
// Flagged:
//
//   - a sink's (or carrier's) error discarded: bare call statement,
//     `_ =`, `go`/`defer` of the call;
//   - Close or Sync discarded on an *os.File the function wrote to — the
//     write error often only surfaces at Close, so `defer f.Close()`
//     after f.Write is a data-loss window.
//
// Deliberate discards (best-effort cleanup on already-failed paths,
// log-and-continue telemetry) carry //lint:errdurability-exempt <reason>.
var ErrDurability = &Analyzer{
	Name:      "errdurability",
	Directive: "errdurability-exempt",
	Doc:       "errors from durability-critical sinks must not be discarded, transitively",
	Run:       runErrDurability,
}

func runErrDurability(pass *Pass) {
	if pass.Facts == nil {
		return
	}
	// Transitive discards, from the facts layer.
	for _, fn := range pass.Facts.PkgFuncs(pass.pkg) {
		for _, c := range fn.Calls {
			if !c.discardsErr {
				continue
			}
			for _, callee := range pass.Facts.resolveDirect(c) {
				if callee.DurableSink || callee.DurableErr {
					how := "discards"
					if c.deferred {
						how = "defers and discards"
					}
					pass.Report(c.pos, "%s the error of %s, which reaches a durability sink — a silently failed write is a lost or re-run trial on resume; handle it or //lint:errdurability-exempt <reason>",
						how, callee.Name)
					break
				}
			}
		}
	}
	// Intra-function: discarded Close/Sync on a written *os.File.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkWrittenFileClose(pass, fd)
		}
	}
}

// fileWriteMethods surface write errors later, at Close/Sync time.
var fileWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true, "ReadFrom": true,
	"Truncate": true,
}

// checkWrittenFileClose flags discarded Close/Sync on *os.File variables
// the function wrote to.
func checkWrittenFileClose(pass *Pass, fn *ast.FuncDecl) {
	written := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !fileWriteMethods[sel.Sel.Name] || !isOSFile(pass.typeOf(sel.X)) {
			return true
		}
		if id := rootIdent(sel.X); id != nil {
			if obj := pass.objectOf(id); obj != nil {
				written[obj] = true
			}
		}
		return true
	})
	if len(written) == 0 {
		return
	}
	report := func(call *ast.CallExpr, deferred bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Sync") || !isOSFile(pass.typeOf(sel.X)) {
			return
		}
		id := rootIdent(sel.X)
		if id == nil {
			return
		}
		obj := pass.objectOf(id)
		if obj == nil || !written[obj] {
			return
		}
		how := "discards"
		if deferred {
			how = "defers and discards"
		}
		pass.Report(call.Pos(), "%s %s.%s on a file this function wrote — write errors can surface only here, so dropping it loses them; check it or //lint:errdurability-exempt <reason>",
			how, id.Name, sel.Sel.Name)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ExprStmt:
			if call, ok := v.X.(*ast.CallExpr); ok {
				report(call, false)
			}
		case *ast.DeferStmt:
			report(v.Call, true)
		case *ast.GoStmt:
			report(v.Call, false)
		case *ast.AssignStmt:
			if len(v.Rhs) == 1 && len(v.Lhs) >= 1 {
				if call, ok := v.Rhs[0].(*ast.CallExpr); ok {
					if id, ok := v.Lhs[len(v.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
						report(call, false)
					}
				}
			}
		}
		return true
	})
}

func isOSFile(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "os" && n.Obj().Name() == "File"
}
