package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoTimeInArtifacts keeps wall-clock values out of resume-identity
// artifacts. Campaign stores (trials.jsonl), specs, and tune traces must
// be byte-identical across kill/resume cycles and across in-process vs
// distributed execution; a timestamp in any of them breaks the identity
// the moment a resumed run re-serializes. Timestamps belong in meta.json
// (lifecycle record, explicitly outside resume identity) and in /metrics.
//
// The check is an intra-function taint pass over the serialization
// packages (internal/campaign, internal/tune, internal/harness): values
// produced by time.Now/time.Since — including values derived from them
// through method calls, arithmetic, and composite literals — must not
// reach a serialization sink: json.Marshal/MarshalIndent, (*json.Encoder)
// .Encode, a Store.Put/PutBatch record, a writeTrace call, or
// fsutil.WriteFileAtomic. Legitimate uses (meta.json fields, durations
// feeding logs or metrics text) never hit those sinks and pass untouched;
// anything intentional is exempted with //lint:artifact-time-exempt
// <reason>.
var NoTimeInArtifacts = &Analyzer{
	Name:      "notimeinartifacts",
	Directive: "artifact-time-exempt",
	Doc:       "wall-clock values must not reach resume-identity artifacts",
	Run:       runNoTimeInArtifacts,
}

var timeArtifactScopes = map[string]bool{
	"robustify/internal/campaign": true,
	"robustify/internal/tune":     true,
	"robustify/internal/harness":  true,
	// The observability layer handles wall-clock values by design — but
	// only on the diagnostics side. Scoping it here is what enforces the
	// split: any flow from a time source into a store write or marshal
	// needs an explicit artifact-time-exempt justification (telemetry.go's
	// sidecar append is the one legitimate case).
	"robustify/internal/obs": true,
}

func runNoTimeInArtifacts(pass *Pass) {
	if !timeArtifactScopes[pass.Path] {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkTimeTaint(pass, fn)
		}
	}
}

// checkTimeTaint runs a small fixpoint taint propagation over fn's body:
// seeds are time.Now/time.Since calls, taint flows through assignments
// (including field writes, which coarsely taint the root object), and any
// tainted expression arriving at a serialization sink is reported.
func checkTimeTaint(pass *Pass, fn *ast.FuncDecl) {
	tainted := make(map[types.Object]bool)

	// exprTainted reports whether e's tree contains a time source or a
	// read of a tainted object.
	exprTainted := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				if isTimeSource(pass, v) {
					found = true
				}
			case *ast.Ident:
				if obj := pass.objectOf(v); obj != nil && tainted[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// Propagate to fixpoint: two passes cover the straight-line flows
	// and the common loop-carried case without a full dataflow engine.
	for i := 0; i < 2; i++ {
		changed := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for j, lhs := range as.Lhs {
				var rhs ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[j]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0]
				}
				if rhs == nil || !exprTainted(rhs) {
					continue
				}
				if id := rootIdent(lhs); id != nil {
					if obj := pass.objectOf(id); obj != nil && !tainted[obj] {
						tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sink := serializationSink(pass, call)
		if sink == "" {
			return true
		}
		for _, arg := range call.Args {
			if exprTainted(arg) {
				pass.Report(call.Pos(), "wall-clock value reaches %s: timestamps break resume byte-identity and belong in meta.json or /metrics (//lint:artifact-time-exempt <reason> if this artifact is genuinely outside resume identity)", sink)
				return true
			}
		}
		return true
	})
}

// isTimeSource matches time.Now() and time.Since(...).
func isTimeSource(pass *Pass, call *ast.CallExpr) bool {
	pkg, fn := pass.pkgFunc(call)
	return pkg == "time" && (fn == "Now" || fn == "Since")
}

// serializationSink names the artifact sink call matches, or "".
func serializationSink(pass *Pass, call *ast.CallExpr) string {
	if pkg, fn := pass.pkgFunc(call); pkg == "encoding/json" && (fn == "Marshal" || fn == "MarshalIndent") {
		return "json." + fn
	}
	if pkg, fn := pass.pkgFunc(call); strings.HasSuffix(pkg, "internal/fsutil") && fn == "WriteFileAtomic" {
		return "fsutil.WriteFileAtomic"
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "writeTrace" {
		return "writeTrace (tune.json)"
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s := pass.Info.Selections[sel]
	if s == nil { // package-qualified call or field access, handled above
		if id, ok := sel.X.(*ast.Ident); ok && pass.Info.Uses[id] == nil && pass.Info.Defs[id] == nil {
			return ""
		}
	}
	recv := ""
	if s != nil {
		recv = s.Recv().String()
	}
	switch {
	case sel.Sel.Name == "Encode" && strings.Contains(recv, "encoding/json.Encoder"):
		return "(*json.Encoder).Encode"
	case (sel.Sel.Name == "Put" || sel.Sel.Name == "PutBatch") && strings.Contains(recv, "campaign.Store"):
		return "(*campaign.Store)." + sel.Sel.Name
	}
	return ""
}
