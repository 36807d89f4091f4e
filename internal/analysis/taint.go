package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Taint tracks untrusted protocol input to the exact fixed-point
// arithmetic, turning the PR 8 NaN/Inf fix into an enforced invariant
// (DESIGN.md invariant 10): every value parsed from the TCP line
// protocol (strconv.ParseFloat/ParseUint/... in cmd/ssvc-serve) or
// decoded from the on-disk journal (encoding/json in
// internal/ctlplane) must cross a //ssvc:barrier validation function
// before it reaches a //ssvc:sink — the cost products, the GL
// schedulability check, the vtick counters.
//
// The analysis is a forward may-dataflow over the same per-function
// CFGs the other rules use, made interprocedural through the call
// graph. Taint is a bitmask, not a bool: bit 63 is absolute taint
// (the value definitely derives from untrusted input) and bits 0..62
// mean "tainted iff the enclosing function's receiver-first parameter
// slot i is". Return summaries are therefore polyvariant: a helper
// that merely passes a parameter through does not poison every call
// site the moment one caller hands it something untrusted — each call
// instantiates the summary's dependency bits with the taint of its
// own arguments. Summaries are also per result slot, so a function
// returning (clean *Plane, tainted warning, error) taints only the
// warning at the caller. Sink checks stay context-insensitive on
// purpose (a function reachable with tainted input must validate
// before its sinks, whoever the caller was): the global paramTaint
// fixpoint records which parameter slots ever receive absolute taint,
// and dependency bits resolve against it at each report site.
//
// Channels propagate absolutely: a send of a tainted value taints the
// channel's element type module-wide, which is how the serve daemon's
// accept goroutine hands tainted commands to the apply loop. Calling
// a barrier launders its receiver and arguments on every subsequent
// path — the barrier rejects out-of-range input or the caller returns
// its error — and barrier results are trusted. Two findings:
//
//  1. A tainted value reaching a sink argument.
//  2. A tainted float converted to an integer outside a barrier (the
//     conversion the Go spec leaves platform-dependent; valuerange
//     flags these unconditionally in its packages, taint extends the
//     net to every package untrusted input flows through).
//
// Known gaps, deliberate for a may-analysis that must not false-
// positive the real tree: function literals are analyzed with an
// empty entry state (their captures' taint is not tracked), taint
// through stdlib containers other than channels is not modeled, and
// writes through unknown pointers are ignored.
func Taint(l *Loader, packages []string) ([]Diagnostic, error) {
	var pkgs []*Package
	for _, rel := range packages {
		pkg, err := l.Load(l.Module + "/" + rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	cg := buildCallGraph(l)
	return taintWithCG(l, cg, pkgs)
}

// taintWithCG is the core shared with the parallel RunAll driver.
// Analysis runs over every package the call graph indexed; findings
// are reported only for functions declared in pkgs.
func taintWithCG(l *Loader, cg *callGraph, pkgs []*Package) ([]Diagnostic, error) {
	tc := newTaintCtx(l, cg)

	// Global fixpoint: function-local flows record absolute taint into
	// callee parameter slots, per-result dependency summaries, and
	// channel element types; iterate until nothing new is learned.
	// Everything is monotone (masks only gain bits), so this
	// terminates.
	fns := make([]*types.Func, 0, len(cg.funcs))
	for fn := range cg.funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	for {
		tc.changed = false
		for _, fn := range fns {
			tc.analyzeFunc(fn)
		}
		if !tc.changed {
			break
		}
	}

	// Reporting pass over the target packages only, replaying each
	// function once at the fixpoint.
	tc.reporting = true
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn := declFunc(pkg, fd); fn != nil {
					tc.analyzeFunc(fn)
				}
			}
		}
	}
	SortDiagnostics(tc.diags)
	return tc.diags, nil
}

// taintMask is the per-value taint lattice element. Bit 63 (absMask)
// is absolute taint; bit i < 63 means "tainted iff the enclosing
// function's receiver-first parameter slot i is tainted". Join is
// bitwise OR.
type taintMask uint64

const absMask taintMask = 1 << 63

// slotBit returns the dependency bit for a parameter slot. Slots past
// the mask width (a 63-parameter function) collapse conservatively to
// absolute taint.
func slotBit(i int) taintMask {
	if i >= 63 {
		return absMask
	}
	return 1 << uint(i)
}

// taintState maps objects (locals, parameters, named results) to
// their taint mask at a program point. Only nonzero masks are present.
type taintState map[types.Object]taintMask

func cloneTaint(st taintState) taintState {
	out := make(taintState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// unionTaint ORs b into a, reporting whether a grew.
func unionTaint(a, b taintState) bool {
	grew := false
	for k, v := range b {
		if a[k]|v != a[k] {
			a[k] |= v
			grew = true
		}
	}
	return grew
}

type taintCtx struct {
	l        *Loader
	cg       *callGraph
	sinks    map[*types.Func]bool
	barriers map[*types.Func]bool

	paramTaint map[*types.Func][]bool      // receiver-first slots, absolute taint
	retTaint   map[*types.Func][]taintMask // per result slot, over the callee's own slots
	chanTaint  map[string]bool             // keyed by element type string

	changed    bool
	reporting  bool
	curPkg     *Package
	curFn      *types.Func // nil inside a function literal
	curBarrier bool
	diags      []Diagnostic
}

func newTaintCtx(l *Loader, cg *callGraph) *taintCtx {
	tc := &taintCtx{
		l:          l,
		cg:         cg,
		sinks:      map[*types.Func]bool{},
		barriers:   map[*types.Func]bool{},
		paramTaint: map[*types.Func][]bool{},
		retTaint:   map[*types.Func][]taintMask{},
		chanTaint:  map[string]bool{},
	}
	for fn, fi := range cg.funcs {
		if fi.decl.Doc == nil {
			continue
		}
		for _, c := range fi.decl.Doc.List {
			if isMarker(c.Text, MarkSink) {
				tc.sinks[fn] = true
			}
			if isMarker(c.Text, MarkBarrier) {
				tc.barriers[fn] = true
			}
		}
	}
	return tc
}

func (tc *taintCtx) report(pos ast.Node, format string, args ...any) {
	file, line := tc.l.Rel(pos.Pos())
	tc.diags = append(tc.diags, Diagnostic{
		File: file, Line: line, Analyzer: "taint",
		Message: fmt.Sprintf(format, args...),
	})
}

// resolve collapses a mask to a bool at a report or summary-exit
// point: absolute taint, or a dependency on a parameter slot that the
// global fixpoint has seen receive absolute taint from some caller.
func (tc *taintCtx) resolve(m taintMask) bool {
	if m&absMask != 0 {
		return true
	}
	if m == 0 || tc.curFn == nil {
		return false
	}
	for i, t := range tc.paramTaint[tc.curFn] {
		if t && m&slotBit(i) != 0 {
			return true
		}
	}
	return false
}

// slotObjects returns a function's receiver-first parameter objects,
// aligned with effectSummary slot numbering.
func slotObjects(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if recv := sig.Recv(); recv != nil {
		out = append(out, recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// analyzeFunc runs the local flow for one declared function, seeding
// each parameter with its own dependency bit, then analyzes each
// nested literal with an empty state.
func (tc *taintCtx) analyzeFunc(fn *types.Func) {
	fi := tc.cg.funcs[fn]
	if fi == nil || fi.decl.Body == nil {
		return
	}
	tc.curPkg = fi.pkg
	tc.curFn = fn
	tc.curBarrier = tc.barriers[fn]
	entry := taintState{}
	for i, obj := range slotObjects(fn) {
		entry[obj] = slotBit(i)
	}
	tc.flowBody(fi.decl.Body, entry)
	for _, lit := range nestedFuncLits(fi.decl.Body) {
		tc.curFn = nil // returns inside the literal are not fn's returns
		tc.flowBody(lit.Body, taintState{})
	}
	tc.curFn = fn
}

// flowBody runs the union-join worklist over one body.
func (tc *taintCtx) flowBody(body *ast.BlockStmt, entry taintState) {
	g := buildCFG(body)
	in := make([]taintState, len(g.blocks))
	in[g.entry.index] = entry
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		out := cloneTaint(in[blk.index])
		for _, n := range blk.nodes {
			tc.transferNode(out, n)
		}
		for _, e := range blk.succs {
			cur := in[e.to.index]
			if cur == nil {
				in[e.to.index] = cloneTaint(out)
				work = append(work, e.to)
				continue
			}
			if unionTaint(cur, out) {
				work = append(work, e.to)
			}
		}
	}
}

// transferNode advances the taint state across one CFG node. Call side
// effects (parameter recording, barrier laundering, out-parameter
// sources, sink checks) apply first, then the statement's own binding
// effects.
func (tc *taintCtx) transferNode(st taintState, n ast.Node) {
	walkNode(n, func(m ast.Node) {
		if call, ok := m.(*ast.CallExpr); ok {
			tc.applyCall(st, call)
		}
	})
	switch s := n.(type) {
	case *ast.AssignStmt:
		tc.transferAssign(st, s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				switch {
				case len(vs.Values) == len(vs.Names):
					for i, name := range vs.Names {
						tc.setIdent(st, name, tc.taintOf(st, vs.Values[i]))
					}
				case len(vs.Values) == 1:
					masks := tc.multiValueMasks(st, vs.Values[0], len(vs.Names))
					for i, name := range vs.Names {
						tc.setIdent(st, name, masks[i])
					}
				}
			}
		}
	case *ast.RangeStmt:
		m := tc.taintOf(st, s.X)
		if t := exprType(tc.curPkg, s.X); t != nil {
			if ch, ok := t.Underlying().(*types.Chan); ok && tc.chanTaint[chanKey(ch)] {
				m |= absMask
			}
		}
		if s.Key != nil {
			tc.setLval(st, s.Key, m)
		}
		if s.Value != nil {
			tc.setLval(st, s.Value, m)
		}
	case *ast.SendStmt:
		if tc.resolve(tc.taintOf(st, s.Value)) {
			if t := exprType(tc.curPkg, s.Chan); t != nil {
				if ch, ok := t.Underlying().(*types.Chan); ok {
					key := chanKey(ch)
					if !tc.chanTaint[key] {
						tc.chanTaint[key] = true
						tc.changed = true
					}
				}
			}
		}
	case *ast.ReturnStmt:
		if tc.curFn == nil {
			return
		}
		sig, ok := tc.curFn.Type().(*types.Signature)
		if !ok {
			return
		}
		nres := sig.Results().Len()
		if nres == 0 {
			return
		}
		masks := make([]taintMask, nres)
		switch {
		case len(s.Results) == nres:
			for i, r := range s.Results {
				masks[i] = tc.taintOf(st, r)
			}
		case len(s.Results) == 1:
			copy(masks, tc.multiValueMasks(st, s.Results[0], nres))
		case len(s.Results) == 0:
			// Bare return: named results carry the values out.
			for i := 0; i < nres; i++ {
				masks[i] = st[sig.Results().At(i)]
			}
		}
		tc.recordRet(tc.curFn, masks)
	}
}

// recordRet ORs a return's per-slot masks into the function's summary.
func (tc *taintCtx) recordRet(fn *types.Func, masks []taintMask) {
	rt := tc.retTaint[fn]
	if rt == nil {
		rt = make([]taintMask, len(masks))
		tc.retTaint[fn] = rt
	}
	for i, m := range masks {
		if i < len(rt) && rt[i]|m != rt[i] {
			rt[i] |= m
			tc.changed = true
		}
	}
}

func (tc *taintCtx) transferAssign(st taintState, s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// Compound assignment: x op= y keeps x's taint, gains y's.
		tc.setLval(st, s.Lhs[0], tc.taintOf(st, s.Lhs[0])|tc.taintOf(st, s.Rhs[0]))
		return
	}
	switch {
	case len(s.Lhs) == len(s.Rhs):
		masks := make([]taintMask, len(s.Rhs))
		for i, r := range s.Rhs {
			masks[i] = tc.taintOf(st, r)
		}
		for i, lhs := range s.Lhs {
			tc.setLval(st, lhs, masks[i])
		}
	case len(s.Rhs) == 1:
		// Multi-value: call results bind per slot (so a clean first
		// result is not poisoned by a tainted sibling); type
		// assertions, map indexes, and receives share the source's
		// mask.
		masks := tc.multiValueMasks(st, s.Rhs[0], len(s.Lhs))
		for i, lhs := range s.Lhs {
			tc.setLval(st, lhs, masks[i])
		}
	}
}

// multiValueMasks evaluates a single expression bound to n targets:
// per-result call summaries when the callee resolves, otherwise the
// expression's mask replicated.
func (tc *taintCtx) multiValueMasks(st taintState, e ast.Expr, n int) []taintMask {
	if call, ok := unparen(e).(*ast.CallExpr); ok {
		if tv, isConv := tc.curPkg.Info.Types[call.Fun]; !isConv || !tv.IsType() {
			return tc.callResultMasks(st, call, n)
		}
	}
	m := tc.taintOf(st, e)
	if u, ok := unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		if t := exprType(tc.curPkg, u.X); t != nil {
			if ch, ok := t.Underlying().(*types.Chan); ok && tc.chanTaint[chanKey(ch)] {
				m |= absMask
			}
		}
	}
	masks := make([]taintMask, n)
	for i := range masks {
		masks[i] = m
	}
	return masks
}

// setLval binds a mask to an assignment target: strong update for
// plain identifiers, weak (OR-only) for component stores through
// selectors, indexes, or dereferences — writing one clean field does
// not clean the containing object.
func (tc *taintCtx) setLval(st taintState, lhs ast.Expr, m taintMask) {
	switch lhs := unparen(lhs).(type) {
	case *ast.Ident:
		tc.setIdent(st, lhs, m)
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if m == 0 {
			return
		}
		roots := map[string]bool{}
		if lvalRoots(unparen(lhs), roots) {
			return // unresolvable target: ignored (documented gap)
		}
		ast.Inspect(lhs, func(node ast.Node) bool {
			if id, ok := node.(*ast.Ident); ok && roots[id.Name] {
				if obj := identObj(tc.curPkg, id); obj != nil {
					st[obj] |= m
				}
			}
			return true
		})
	}
}

func (tc *taintCtx) setIdent(st taintState, id *ast.Ident, m taintMask) {
	if id.Name == "_" {
		return
	}
	obj := identObj(tc.curPkg, id)
	if obj == nil {
		return
	}
	if m != 0 {
		st[obj] = m
	} else {
		delete(st, obj)
	}
}

func identObj(pkg *Package, id *ast.Ident) types.Object {
	if obj, ok := pkg.Info.Defs[id]; ok && obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

func chanKey(ch *types.Chan) string {
	return types.TypeString(ch.Elem(), nil)
}

// taintOf evaluates an expression's taint mask under the current state.
func (tc *taintCtx) taintOf(st taintState, e ast.Expr) taintMask {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := identObj(tc.curPkg, e); obj != nil {
			return st[obj]
		}
		return 0
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, ok := tc.curPkg.Info.Uses[id].(*types.PkgName); ok {
				return 0 // package-level state: out of scope
			}
		}
		return tc.taintOf(st, e.X)
	case *ast.IndexExpr:
		return tc.taintOf(st, e.X)
	case *ast.StarExpr:
		return tc.taintOf(st, e.X)
	case *ast.SliceExpr:
		return tc.taintOf(st, e.X)
	case *ast.TypeAssertExpr:
		return tc.taintOf(st, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			if t := exprType(tc.curPkg, e.X); t != nil {
				if ch, ok := t.Underlying().(*types.Chan); ok && tc.chanTaint[chanKey(ch)] {
					return absMask
				}
			}
			return 0
		}
		return tc.taintOf(st, e.X)
	case *ast.BinaryExpr:
		return tc.taintOf(st, e.X) | tc.taintOf(st, e.Y)
	case *ast.CompositeLit:
		var m taintMask
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				m |= tc.taintOf(st, kv.Value)
				continue
			}
			m |= tc.taintOf(st, elt)
		}
		return m
	case *ast.CallExpr:
		var m taintMask
		for _, r := range tc.callResultMasks(st, e, 1) {
			m |= r
		}
		return m
	}
	return 0
}

// taintSources are the stdlib parse entry points whose results are
// untrusted by definition: everything the TCP line protocol and the
// journal header pass through.
func isTaintSource(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "strconv":
		switch fn.Name() {
		case "ParseFloat", "ParseUint", "ParseInt", "Atoi":
			return true
		}
	}
	return false
}

// jsonDecodeTarget returns the argument index a json decode call
// writes untrusted data through, or -1.
func jsonDecodeTarget(fn *types.Func) int {
	if fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return -1
	}
	switch fn.Name() {
	case "Unmarshal":
		return 1
	case "Decode":
		return 0
	}
	return -1
}

// callees resolves a call the same way the effect-summary builder
// does: static targets directly, interface calls through CHA.
func (tc *taintCtx) callees(call *ast.CallExpr) []*types.Func {
	pkg := tc.curPkg
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return tc.cg.implementers(sel.Recv(), fun.Sel.Name)
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return []*types.Func{fn}
			}
			return nil
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// callRecvExpr returns the receiver expression of a method-value call,
// or nil.
func (tc *taintCtx) callRecvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := tc.curPkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return sel.X
		}
	}
	return nil
}

// callResultMasks evaluates a call expression into n result masks:
// conversions and builtins pass their operands through, sources are
// absolutely tainted, barriers are trusted, module functions have
// their per-result summaries instantiated with this call site's
// argument masks, and unknown callees pass input taint through.
func (tc *taintCtx) callResultMasks(st taintState, call *ast.CallExpr, n int) []taintMask {
	masks := make([]taintMask, n)
	pkg := tc.curPkg
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			masks[0] = tc.taintOf(st, call.Args[0])
		}
		return masks
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			var m taintMask
			for _, a := range call.Args {
				m |= tc.taintOf(st, a)
			}
			for i := range masks {
				masks[i] = m
			}
			return masks
		}
	}
	fns := tc.callees(call)
	if len(fns) == 0 {
		// Unresolved (func value): pass-through of input taint.
		m := tc.inputMask(st, call)
		for i := range masks {
			masks[i] = m
		}
		return masks
	}
	or := func(i int, m taintMask) {
		if i >= n {
			i = n - 1
		}
		masks[i] |= m
	}
	for _, fn := range fns {
		switch {
		case isTaintSource(fn):
			or(0, absMask) // the parsed value; the error is a message
		case tc.barriers[fn]:
			// trusted
		case tc.cg.funcs[fn] != nil:
			for i, rm := range tc.retTaint[fn] {
				or(i, tc.instantiate(st, fn, call, rm))
			}
		default:
			// Outside the module: pass-through.
			m := tc.inputMask(st, call)
			for i := range masks {
				masks[i] |= m
			}
		}
	}
	return masks
}

// instantiate maps a callee return summary into the caller's mask
// space: absolute taint carries over, and each dependency bit is
// replaced by the mask of the expression this call site passes in
// that slot.
func (tc *taintCtx) instantiate(st taintState, fn *types.Func, call *ast.CallExpr, rm taintMask) taintMask {
	out := rm & absMask
	if rm&^absMask == 0 {
		return out
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return out | (rm &^ absMask) // can't map: stay conservative
	}
	off := 0
	if sig.Recv() != nil {
		off = 1
		if rm&slotBit(0) != 0 {
			if recv := tc.callRecvExpr(call); recv != nil {
				out |= tc.taintOf(st, recv)
			}
		}
	}
	for s := off; s < off+sig.Params().Len() && s < 63; s++ {
		if rm&slotBit(s) == 0 {
			continue
		}
		j := s - off
		if sig.Variadic() && j == sig.Params().Len()-1 {
			// Dependency on the variadic slot: any trailing arg.
			for ; j < len(call.Args); j++ {
				out |= tc.taintOf(st, call.Args[j])
			}
			continue
		}
		if j < len(call.Args) {
			out |= tc.taintOf(st, call.Args[j])
		}
	}
	return out
}

// inputMask ORs the masks of a call's receiver and arguments.
func (tc *taintCtx) inputMask(st taintState, call *ast.CallExpr) taintMask {
	var m taintMask
	if recv := tc.callRecvExpr(call); recv != nil {
		m |= tc.taintOf(st, recv)
	}
	for _, a := range call.Args {
		m |= tc.taintOf(st, a)
	}
	return m
}

// applyCall applies a call's side effects on the taint state and, in
// the reporting pass, the two findings.
func (tc *taintCtx) applyCall(st taintState, call *ast.CallExpr) {
	pkg := tc.curPkg
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion. Finding 2: a tainted float entering integer
		// arithmetic outside a barrier.
		if tc.reporting && !tc.curBarrier && len(call.Args) == 1 {
			dst := exprType(pkg, call)
			src := exprType(pkg, call.Args[0])
			if dst != nil && src != nil && isInteger(dst) {
				if b, ok := src.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 &&
					tc.resolve(tc.taintOf(st, call.Args[0])) {
					tc.report(call, "untrusted float converted to %s without a //ssvc:barrier clamp: out-of-range values convert platform-dependently", dst)
				}
			}
		}
		return
	}
	recvExpr := tc.callRecvExpr(call)
	for _, fn := range tc.callees(call) {
		if idx := jsonDecodeTarget(fn); idx >= 0 {
			if idx < len(call.Args) {
				tc.setLval(st, derefArg(call.Args[idx]), absMask)
			}
			continue
		}
		if tc.barriers[fn] {
			// Laundering: the barrier validated (or the caller returns
			// its error before any sink); clear every object the
			// barrier saw.
			tc.launder(st, recvExpr, call.Args)
			continue
		}
		if tc.sinks[fn] && tc.reporting {
			for _, a := range call.Args {
				if tc.resolve(tc.taintOf(st, a)) {
					tc.report(call, "untrusted value %s reaches //ssvc:sink %s without crossing a //ssvc:barrier validation",
						types.ExprString(a), fn.Name())
				}
			}
		}
		if fi := tc.cg.funcs[fn]; fi != nil {
			tc.recordParamTaint(st, fn, recvExpr, call.Args)
		}
	}
}

// derefArg strips a leading & so `json.Unmarshal(data, &rec)` taints
// rec itself.
func derefArg(e ast.Expr) ast.Expr {
	if u, ok := unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}

// launder removes taint from every identifier mentioned in the
// receiver and arguments of a barrier call.
func (tc *taintCtx) launder(st taintState, recvExpr ast.Expr, args []ast.Expr) {
	exprs := args
	if recvExpr != nil {
		exprs = append([]ast.Expr{recvExpr}, args...)
	}
	for _, e := range exprs {
		ast.Inspect(e, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := identObj(tc.curPkg, id); obj != nil {
					delete(st, obj)
				}
			}
			return true
		})
	}
}

// recordParamTaint feeds resolved argument taint into a module
// callee's receiver-first parameter slots for the global fixpoint.
func (tc *taintCtx) recordParamTaint(st taintState, fn *types.Func, recvExpr ast.Expr, args []ast.Expr) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	nslots := sig.Params().Len()
	off := 0
	if sig.Recv() != nil {
		nslots++
		off = 1
	}
	pt := tc.paramTaint[fn]
	if pt == nil {
		pt = make([]bool, nslots)
		tc.paramTaint[fn] = pt
	}
	set := func(slot int, taint bool) {
		if taint && slot >= 0 && slot < len(pt) && !pt[slot] {
			pt[slot] = true
			tc.changed = true
		}
	}
	if recvExpr != nil && off == 1 {
		set(0, tc.resolve(tc.taintOf(st, recvExpr)))
	}
	for j, a := range args {
		slot := off + j
		if j >= sig.Params().Len() {
			slot = off + sig.Params().Len() - 1 // variadic overflow
		}
		set(slot, tc.resolve(tc.taintOf(st, a)))
	}
}
