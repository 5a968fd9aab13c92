package analysis

// The call-graph facts layer. PR 6's analyzers are single-function AST
// passes, which is exactly why the PR-9 self-deadlock (tune.Manager.Resume
// emitting observability events while holding m.mu, where emit re-locked
// m.mu) was invisible to them: the reacquisition happened two calls away.
// This file builds an inter-procedural summary per function — which
// mutexes it acquires (identified by owner type and field path), whether
// it can block on a channel send, whether its error return can originate
// from a durability sink — plus the static call edges between functions,
// across every loaded package. Analyzers query the summaries transitively (BFS over call
// edges, with interface calls expanded to every loaded implementation by
// method name and signature), so "calls X while holding L, and X can
// reacquire L three frames down, in another package" becomes checkable.
//
// The layer is deliberately approximate in documented directions:
//
//   - Lock identity is (owner named type, field path), not instance: two
//     distinct *Manager values share the id robustify/.../tune.Manager.mu.
//     That over-approximates (rare same-type cross-instance locking gets
//     exempted with a reason) but catches every self-deadlock, which is
//     instance-blind by definition.
//   - Held-lock tracking walks statements in source order: Lock adds,
//     Unlock removes, a deferred Unlock pins the lock to function end,
//     and an Unlock inside an if-body that ends in return, branch or
//     panic releases the lock only on that early-exit path. That matches
//     the straight-line, defer and unlock-then-return discipline the
//     repo uses; other conditional unlocking can still drop a lock early.
//   - Calls through function values are invisible; calls through
//     interfaces expand to every loaded method with the same name and
//     signature (over-approximation again — safe for deadlock hunting).
//   - `go f(...)` edges are recorded as async: the spawner does not block
//     on them, so lock-safety BFS skips them.
//
// One marker directive feeds the layer (validated by the directive
// hygiene check, and requiring written text): //lint:durable <reason> on
// a function marks it a durability sink root. Discarding its error — or
// the error of any function that transitively propagates it — is an
// errdurability finding.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DirectiveDurable is the marker directive (not an exemption) that makes
// a function a durability sink root.
const DirectiveDurable = "durable"

// FuncID is a stable cross-package symbol for a function or method:
// "pkg.Name" or "pkg.(Recv).Name". Function literals get a synthetic
// position-based id, unique within a run.
type FuncID string

// heldLock is one mutex held at a program point.
type heldLock struct {
	id   string // lock identity, e.g. "robustify/internal/tune.Manager.mu"
	read bool   // held via RLock
	pos  token.Pos
}

// callSite is one static call edge out of a function.
type callSite struct {
	callee FuncID // "" when the callee is a function value (unresolvable)
	// iface marks a call through an interface method: BFS expands it to
	// every loaded concrete method matching name+sig whose receiver type
	// implements the whole interface (ifaceSet).
	iface bool
	name  string // method name (interface expansion)
	sig   string // normalized signature (interface expansion)
	// ifaceSet is every "name|sig" of the called interface, so expansion
	// can reject same-name-same-sig methods on unrelated types (an
	// os.FileInfo Size() must not resolve to a store's Size()).
	ifaceSet []string
	held     []heldLock
	pos      token.Pos
	// async: the call is a `go` launch — the caller does not block on it.
	async bool
	// discardsErr: the callee's trailing error result is dropped here
	// (bare statement, defer, go, or `_` in the error position).
	discardsErr bool
	// deferred: the call runs at function return (defer f()).
	deferred bool
}

// sendSite is a potentially blocking channel send with locks held.
type sendSite struct {
	held []heldLock
	pos  token.Pos
}

// FuncFacts is the inter-procedural summary of one function.
type FuncFacts struct {
	ID   FuncID
	Name string // display name, e.g. "(*Manager).Resume"
	Pkg  *Package
	Pos  token.Pos

	// Acquires maps lock id → first acquisition site anywhere in the body.
	Acquires map[string]token.Pos
	// BlockingSend is the first channel send not guarded by a
	// select-with-default (0 = none).
	BlockingSend token.Pos
	// ReturnsErr: the signature's last result is error.
	ReturnsErr bool
	// DurableSink: carries a //lint:durable marker.
	DurableSink bool
	// DurableErr (fixpoint): returns an error that may originate from a
	// durability sink — discarding it is as bad as discarding the sink's.
	DurableErr bool
	// SendsHeld are channel sends attempted while holding a lock.
	SendsHeld []sendSite
	Calls     []callSite

	// recvKey identifies a method's receiver type (pkgpath.TypeName), for
	// interface-implementation filtering during call expansion.
	recvKey string
}

// Facts is the whole-run call-graph database.
type Facts struct {
	fns map[FuncID]*FuncFacts
	// byPkg lists each package's summaries (decls then literals) in
	// source order, for deterministic per-package iteration.
	byPkg map[*Package][]*FuncFacts
	// methodIndex: "Name|sig" → concrete methods, for interface-call
	// expansion. Sorted for determinism.
	methodIndex map[string][]FuncID
	// recvMethods: receiver type key → its full method set ("name|sig",
	// promoted methods included), computed from the defining package's
	// source check. Used to confirm a candidate actually implements the
	// called interface.
	recvMethods map[string]map[string]bool
}

// PkgFuncs returns pkg's summaries in source order.
func (fs *Facts) PkgFuncs(pkg *Package) []*FuncFacts { return fs.byPkg[pkg] }

// resolve expands a call site to the summaries it can reach directly:
// one for a static callee; for an interface call, every name+sig match
// whose receiver type implements the whole interface.
func (fs *Facts) resolve(c callSite) []*FuncFacts {
	if c.iface {
		var out []*FuncFacts
		for _, id := range fs.methodIndex[c.name+"|"+c.sig] {
			fn := fs.fns[id]
			if fn == nil || !fs.implementsAll(fn.recvKey, c.ifaceSet) {
				continue
			}
			out = append(out, fn)
		}
		return out
	}
	if fn := fs.fns[c.callee]; fn != nil {
		return []*FuncFacts{fn}
	}
	return nil
}

// implementsAll reports whether the receiver type's method set contains
// every method of the called interface.
func (fs *Facts) implementsAll(recvKey string, ifaceSet []string) bool {
	set := fs.recvMethods[recvKey]
	if set == nil {
		return false
	}
	for _, m := range ifaceSet {
		if !set[m] {
			return false
		}
	}
	return true
}

// reachStep is one frame of a transitive search result.
type reachStep struct {
	fn  *FuncFacts
	via *reachStep // caller chain, outermost first
}

// path renders the call chain "a → b → c" for diagnostics.
func (r *reachStep) path() string {
	var names []string
	for s := r; s != nil; s = s.via {
		names = append(names, string(s.fn.Name))
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// Reach runs a breadth-first search over synchronous call edges starting
// at the targets of c, calling visit on every reachable summary (targets
// included). visit returning true stops the search and returns that
// step; nil means the search exhausted without a hit.
func (fs *Facts) Reach(c callSite, visit func(*FuncFacts) bool) *reachStep {
	seen := make(map[FuncID]bool)
	var queue []*reachStep
	for _, fn := range fs.resolve(c) {
		if !seen[fn.ID] {
			seen[fn.ID] = true
			queue = append(queue, &reachStep{fn: fn})
		}
	}
	for len(queue) > 0 {
		step := queue[0]
		queue = queue[1:]
		if visit(step.fn) {
			return step
		}
		for _, next := range step.fn.Calls {
			if next.async {
				continue
			}
			for _, fn := range fs.resolve(next) {
				if !seen[fn.ID] {
					seen[fn.ID] = true
					queue = append(queue, &reachStep{fn: fn, via: step})
				}
			}
		}
	}
	return nil
}

// BuildFacts computes the call-graph database for a loaded package set.
// Summaries only exist for functions compiled from source in pkgs; edges
// into other packages (the standard library above all) resolve to
// nothing and end the search — unknown callees are assumed quiet.
func BuildFacts(pkgs []*Package) *Facts {
	fs := &Facts{
		fns:         make(map[FuncID]*FuncFacts),
		byPkg:       make(map[*Package][]*FuncFacts),
		methodIndex: make(map[string][]FuncID),
		recvMethods: make(map[string]map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				fs.buildFunc(pkg, fn)
			}
		}
	}
	// Fixpoint: DurableErr propagates up the (error-returning) call chain.
	for changed := true; changed; {
		changed = false
		for _, fn := range fs.fns {
			if fn.DurableErr || !fn.ReturnsErr {
				continue
			}
			for _, c := range fn.Calls {
				if c.async || c.discardsErr {
					continue
				}
				for _, callee := range fs.resolveDirect(c) {
					if callee.DurableSink || callee.DurableErr {
						fn.DurableErr = true
						changed = true
					}
				}
			}
		}
	}
	for key := range fs.methodIndex {
		sort.Slice(fs.methodIndex[key], func(i, j int) bool {
			return fs.methodIndex[key][i] < fs.methodIndex[key][j]
		})
	}
	return fs
}

// resolveDirect resolves only static (non-interface) edges — the
// durability fixpoint stays conservative about dynamic dispatch so a
// lone Close() implementation cannot taint every io.Closer call site.
func (fs *Facts) resolveDirect(c callSite) []*FuncFacts {
	if c.iface {
		return nil
	}
	if fn := fs.fns[c.callee]; fn != nil {
		return []*FuncFacts{fn}
	}
	return nil
}

// funcIDOf derives the symbol of a declared function or method.
func funcIDOf(fn *types.Func) FuncID {
	if fn.Pkg() == nil {
		return FuncID("builtin." + fn.Name())
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			return FuncID(fn.Pkg().Path() + ".(" + name + ")." + fn.Name())
		}
	}
	return FuncID(fn.Pkg().Path() + "." + fn.Name())
}

// recvTypeName names a receiver's defining type, pointer-stripped, so a
// value method and its pointer-receiver calls share one id.
func recvTypeName(t types.Type) string {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return "interface"
	}
	return ""
}

// sigString normalizes a function signature (receiver and parameter
// names excluded) with package-path qualifiers, so the same method shape
// renders identically wherever it is seen — interface declaration,
// source-checked body, or export data.
func sigString(sig *types.Signature) string {
	strip := func(t *types.Tuple) *types.Tuple {
		if t == nil || t.Len() == 0 {
			return t
		}
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	bare := types.NewSignatureType(nil, nil, nil, strip(sig.Params()), strip(sig.Results()), sig.Variadic())
	return types.TypeString(bare, func(p *types.Package) string { return p.Path() })
}

// returnsError reports whether the signature's last result is error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res == nil || res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// factsBuilder walks one function body accumulating its summary.
type factsBuilder struct {
	fs   *Facts
	pkg  *Package
	fn   *FuncFacts
	held []heldLock
	// discard / deferred / async are per-call-node flags computed when
	// the parent statement is visited (pre-order guarantees parents come
	// first).
	discard  map[*ast.CallExpr]bool
	deferred map[*ast.CallExpr]bool
	async    map[*ast.CallExpr]bool
	// nonBlocking marks sends that sit in a select with a default case.
	nonBlocking map[*ast.SendStmt]bool
}

// buildFunc summarizes one FuncDecl (and, recursively, the function
// literals inside it — each gets its own summary with an empty lock
// context, since a literal runs when called, not where written).
func (fs *Facts) buildFunc(pkg *Package, decl *ast.FuncDecl) {
	obj, _ := pkg.Info.Defs[decl.Name].(*types.Func)
	if obj == nil {
		return
	}
	id := funcIDOf(obj)
	name := decl.Name.Name
	sig := obj.Type().(*types.Signature)
	recvKey := ""
	if sig.Recv() != nil {
		if tn := recvTypeName(sig.Recv().Type()); tn != "" {
			name = "(*" + tn + ")." + name
			recvKey = pkg.Path + "." + tn
			fs.methodIndex[decl.Name.Name+"|"+sigString(sig)] = append(fs.methodIndex[decl.Name.Name+"|"+sigString(sig)], id)
			fs.recordMethodSet(recvKey, sig.Recv().Type())
		}
	}
	fn := &FuncFacts{
		ID: id, Name: name, Pkg: pkg, Pos: decl.Pos(),
		Acquires:    make(map[string]token.Pos),
		ReturnsErr:  returnsError(sig),
		DurableSink: hasDirective(decl.Doc, DirectiveDurable),
		recvKey:     recvKey,
	}
	fs.fns[id] = fn
	fs.byPkg[pkg] = append(fs.byPkg[pkg], fn)
	b := newBuilder(fs, pkg, fn)
	b.walk(decl.Body)
}

// buildLit summarizes one function literal under a synthetic id.
func (fs *Facts) buildLit(pkg *Package, lit *ast.FuncLit) {
	pos := pkg.Fset.Position(lit.Pos())
	id := FuncID(fmt.Sprintf("%s.func@%s:%d:%d", pkg.Path, pos.Filename, pos.Line, pos.Column))
	sig, _ := pkg.Info.TypeOf(lit).(*types.Signature)
	fn := &FuncFacts{
		ID: id, Name: fmt.Sprintf("func literal (line %d)", pos.Line),
		Pkg: pkg, Pos: lit.Pos(),
		Acquires: make(map[string]token.Pos),
	}
	if sig != nil {
		fn.ReturnsErr = returnsError(sig)
	}
	fs.fns[id] = fn
	fs.byPkg[pkg] = append(fs.byPkg[pkg], fn)
	b := newBuilder(fs, pkg, fn)
	b.walk(lit.Body)
}

func newBuilder(fs *Facts, pkg *Package, fn *FuncFacts) *factsBuilder {
	return &factsBuilder{
		fs: fs, pkg: pkg, fn: fn,
		discard:     make(map[*ast.CallExpr]bool),
		deferred:    make(map[*ast.CallExpr]bool),
		async:       make(map[*ast.CallExpr]bool),
		nonBlocking: make(map[*ast.SendStmt]bool),
	}
}

// recordMethodSet memoizes the full "name|sig" method set of a
// receiver's defining type (pointer receiver, so value methods and
// promoted methods are all included).
func (fs *Facts) recordMethodSet(recvKey string, recv types.Type) {
	if fs.recvMethods[recvKey] != nil {
		return
	}
	t := types.Unalias(recv)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	set := make(map[string]bool)
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i)
		if sig, ok := m.Type().(*types.Signature); ok {
			set[m.Obj().Name()+"|"+sigString(sig)] = true
		}
	}
	fs.recvMethods[recvKey] = set
}

// hasDirective reports whether the comment group carries //lint:<name>.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
			n, _, _ := strings.Cut(rest, " ")
			if strings.TrimSpace(n) == name {
				return true
			}
		}
	}
	return false
}

// walk traverses the body in source order, maintaining the held-lock set.
func (b *factsBuilder) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			b.fs.buildLit(b.pkg, v)
			return false // its statements run later, not here
		case *ast.IfStmt:
			if !terminates(v.Body) {
				break
			}
			// An Unlock on an early-return path releases the lock only on
			// that path: the statements after the if still hold it.
			if v.Init != nil {
				b.walk(v.Init)
			}
			b.walk(v.Cond)
			held := b.heldCopy()
			b.walk(v.Body)
			b.held = held
			if v.Else != nil {
				b.walk(v.Else)
			}
			return false
		case *ast.DeferStmt:
			b.deferred[v.Call] = true
			b.markDiscards(v.Call, nil)
		case *ast.GoStmt:
			b.async[v.Call] = true
			b.markDiscards(v.Call, nil)
		case *ast.ExprStmt:
			if call, ok := v.X.(*ast.CallExpr); ok {
				b.markDiscards(call, nil)
			}
		case *ast.AssignStmt:
			if len(v.Rhs) == 1 {
				if call, ok := v.Rhs[0].(*ast.CallExpr); ok {
					b.markDiscards(call, v.Lhs)
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range v.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, c := range v.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						if send, ok := cc.Comm.(*ast.SendStmt); ok {
							b.nonBlocking[send] = true
						}
					}
				}
			}
		case *ast.SendStmt:
			if !b.nonBlocking[v] {
				if b.fn.BlockingSend == 0 {
					b.fn.BlockingSend = v.Pos()
				}
				if len(b.held) > 0 {
					b.fn.SendsHeld = append(b.fn.SendsHeld, sendSite{held: b.heldCopy(), pos: v.Pos()})
				}
			}
		case *ast.CallExpr:
			b.call(v)
		}
		return true
	})
}

// terminates reports whether a block always leaves the enclosing
// statement list: its last statement is a return, a branch or a panic.
func terminates(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// markDiscards records which of call's results are dropped: all of them
// (lhs nil — bare statement, defer, go) or the ones assigned to `_`.
// Only the trailing error result matters to the summary.
func (b *factsBuilder) markDiscards(call *ast.CallExpr, lhs []ast.Expr) {
	if lhs == nil {
		b.discard[call] = true
		return
	}
	last := lhs[len(lhs)-1]
	if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
		b.discard[call] = true
	}
}

// call classifies one call expression: a mutex operation updates the
// held set; anything else records an edge with the current held set.
func (b *factsBuilder) call(call *ast.CallExpr) {
	if id, kind := b.lockOp(call); kind != lockNone {
		switch kind {
		case lockAcquire, lockAcquireR:
			if _, ok := b.fn.Acquires[id]; !ok {
				b.fn.Acquires[id] = call.Pos()
			}
			if !b.deferred[call] {
				b.held = append(b.held, heldLock{id: id, read: kind == lockAcquireR, pos: call.Pos()})
			}
		case lockRelease, lockReleaseR:
			if !b.deferred[call] { // deferred Unlock pins the lock to function end
				for i := len(b.held) - 1; i >= 0; i-- {
					if b.held[i].id == id {
						b.held = append(b.held[:i], b.held[i+1:]...)
						break
					}
				}
			}
		case lockNone: // unreachable: the kind != lockNone guard above
		}
		return
	}

	callee, iface := b.calleeOf(call)
	if callee == nil {
		return
	}
	sig, _ := callee.Type().(*types.Signature)
	site := callSite{
		callee:      funcIDOf(callee),
		iface:       iface,
		name:        callee.Name(),
		held:        b.heldCopy(),
		pos:         call.Pos(),
		async:       b.async[call],
		deferred:    b.deferred[call],
		discardsErr: b.discard[call] && sig != nil && returnsError(sig),
	}
	if iface && sig != nil {
		site.sig = sigString(sig)
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s := b.pkg.Info.Selections[sel]; s != nil {
				if it, ok := s.Recv().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if msig, ok := m.Type().(*types.Signature); ok {
							site.ifaceSet = append(site.ifaceSet, m.Name()+"|"+sigString(msig))
						}
					}
				}
			}
		}
	}
	b.fn.Calls = append(b.fn.Calls, site)
}

func (b *factsBuilder) heldCopy() []heldLock {
	if len(b.held) == 0 {
		return nil
	}
	return append([]heldLock(nil), b.held...)
}

// calleeOf resolves a call's static target. iface is true when the call
// dispatches through an interface method.
func (b *factsBuilder) calleeOf(call *ast.CallExpr) (fn *types.Func, iface bool) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := b.pkg.Info.Uses[f].(*types.Func)
		return fn, false
	case *ast.SelectorExpr:
		if sel := b.pkg.Info.Selections[f]; sel != nil {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, false
			}
			return fn, types.IsInterface(sel.Recv())
		}
		// Package-qualified function (pkg.Fn) or method expression.
		fn, _ := b.pkg.Info.Uses[f.Sel].(*types.Func)
		return fn, false
	}
	return nil, false
}

type lockOpKind uint8

const (
	lockNone lockOpKind = iota
	lockAcquire
	lockAcquireR
	lockRelease
	lockReleaseR
)

// lockOp classifies a call as a sync.Mutex/RWMutex operation and derives
// the lock's identity.
func (b *factsBuilder) lockOp(call *ast.CallExpr) (string, lockOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", lockNone
	}
	var kind lockOpKind
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		kind = lockAcquire
	case "RLock", "TryRLock":
		kind = lockAcquireR
	case "Unlock":
		kind = lockRelease
	case "RUnlock":
		kind = lockReleaseR
	default:
		return "", lockNone
	}
	if !isMutexType(b.pkg.Info.TypeOf(sel.X)) {
		// Embedded mutex: s.Lock() where s embeds sync.Mutex.
		s := b.pkg.Info.Selections[sel]
		if s == nil || !isMutexMethod(s.Obj()) {
			return "", lockNone
		}
		return b.lockID(sel.X, "<embedded>"), kind
	}
	// Explicit field or variable: peel the mutex expression into
	// owner + field path.
	path := []string{}
	e := ast.Unparen(sel.X)
	for {
		if inner, ok := e.(*ast.SelectorExpr); ok {
			path = append([]string{inner.Sel.Name}, path...)
			e = ast.Unparen(inner.X)
			continue
		}
		break
	}
	if len(path) == 0 {
		// A bare mutex variable (package-level or local).
		if id, ok := e.(*ast.Ident); ok {
			return b.varLockID(id), kind
		}
		return b.exprLockID(sel.X), kind
	}
	return b.lockID(e, strings.Join(path, ".")), kind
}

// lockID derives a type-scoped lock identity: the named type of owner
// plus the field path to the mutex.
func (b *factsBuilder) lockID(owner ast.Expr, field string) string {
	t := b.pkg.Info.TypeOf(owner)
	if t != nil {
		u := types.Unalias(t)
		if p, ok := u.(*types.Pointer); ok {
			u = types.Unalias(p.Elem())
		}
		if n, ok := u.(*types.Named); ok && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + field
		}
	}
	// Ownerless (local struct, etc.): fall back to the expression site.
	return b.exprLockID(owner) + "." + field
}

// varLockID identifies a bare mutex variable: package-scoped vars by
// name (shared across functions), locals by declaration site (private
// to this function — no callee can name them).
func (b *factsBuilder) varLockID(id *ast.Ident) string {
	obj := b.pkg.Info.Uses[id]
	if obj == nil {
		obj = b.pkg.Info.Defs[id]
	}
	if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	if obj != nil {
		return fmt.Sprintf("local.%s@%d", obj.Name(), obj.Pos())
	}
	return fmt.Sprintf("local.%s@%d", id.Name, id.Pos())
}

func (b *factsBuilder) exprLockID(e ast.Expr) string {
	pos := b.pkg.Fset.Position(e.Pos())
	return fmt.Sprintf("expr@%s:%d:%d", pos.Filename, pos.Line, pos.Column)
}

// isMutexType reports whether t (pointer-stripped) is sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// isMutexMethod reports whether obj is a method of sync.Mutex/RWMutex
// (reached through embedding).
func isMutexMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isMutexType(sig.Recv().Type())
}

// lockShort renders a lock id for diagnostics: the path-trimmed form
// (tune.Manager.mu).
func lockShort(id string) string {
	slash := strings.LastIndexByte(id, '/')
	return id[slash+1:]
}
