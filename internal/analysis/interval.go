package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math/big"
	"strings"
)

// This file is the interval abstract-interpretation engine under the
// valuerange analyzer (valuerange.go) and countersafety's unsigned-
// subtraction rule (countersafety.go). The domain is classic integer
// intervals with one repo-specific twist: bounds are always concrete
// big.Int values ("unknown" is the full range of the expression's
// machine type, never an open end), so every transfer function is
// exact integer arithmetic and a result interval is overflow-safe
// exactly when it is contained in its type's range.
//
// The engine layers on the existing per-function CFG (cfg.go): a
// forward worklist pass propagates an environment of refined intervals
// per block, comparison edges refine both operands and record the
// bounds of their exact difference (refineEdge decomposes &&/||/!
// chains), loop heads widen to the type range after a few visits so
// iteration terminates, and one descending pass narrows the widened
// loop invariants back where the exit conditions support it.
// Interprocedural seeding comes from two sides of callgraph.go:
// //ssvc:range field annotations give declared input intervals at
// config-struct reads, and per-function return summaries (retIval)
// carry result intervals and their declared flag across static calls,
// while effect summaries decide which environment entries a call may
// invalidate.

// MarkRange declares the trusted value range of a config-struct field
// on the field's doc or line comment:
//
//	//ssvc:range <field> <lo>..<hi>
//
// with decimal (optionally negative) integer bounds and <field>
// matching one of the names declared on that line. The declared range
// is an input contract — the control plane's validate barriers reject
// anything outside it — and the valuerange analyzer proves that
// arithmetic over declared values cannot wrap or truncate (DESIGN.md
// invariant 9 documents the rule; taint, invariant 10, enforces that
// untrusted input actually crosses a barrier before reaching the
// arithmetic that trusts these declarations).
const MarkRange = "//ssvc:range"

// ival is one abstract value: every concrete value v satisfies
// lo <= v <= hi. Bounds are exact integers, never open: an unknown
// value of type T carries T's full range (typeIval). lo > hi is
// bottom — the refinement proved the path dead. The declared flag
// records that the value derives from a //ssvc:range annotation (or
// from arithmetic over one), which is what makes an expression a
// "flagged path" for valuerange.
type ival struct {
	lo, hi   *big.Int
	declared bool
}

func mkIval(lo, hi int64) ival {
	return ival{lo: big.NewInt(lo), hi: big.NewInt(hi)}
}

func (v ival) isBottom() bool { return v.lo.Cmp(v.hi) > 0 }

// contains reports whether w is entirely inside v.
func (v ival) contains(w ival) bool {
	if w.isBottom() {
		return true
	}
	return v.lo.Cmp(w.lo) <= 0 && v.hi.Cmp(w.hi) >= 0
}

func (v ival) eq(w ival) bool {
	return v.declared == w.declared && v.lo.Cmp(w.lo) == 0 && v.hi.Cmp(w.hi) == 0
}

func (v ival) String() string {
	return fmt.Sprintf("[%s, %s]", v.lo, v.hi)
}

// ivJoin is the lattice join: the smallest interval covering both.
func ivJoin(a, b ival) ival {
	if a.isBottom() {
		b.declared = a.declared || b.declared
		return b
	}
	if b.isBottom() {
		a.declared = a.declared || b.declared
		return a
	}
	out := ival{lo: a.lo, hi: a.hi, declared: a.declared || b.declared}
	if b.lo.Cmp(out.lo) < 0 {
		out.lo = b.lo
	}
	if b.hi.Cmp(out.hi) > 0 {
		out.hi = b.hi
	}
	return out
}

// ivMeet is the lattice meet: the intersection (possibly bottom).
func ivMeet(a, b ival) ival {
	out := ival{lo: a.lo, hi: a.hi, declared: a.declared || b.declared}
	if b.lo.Cmp(out.lo) > 0 {
		out.lo = b.lo
	}
	if b.hi.Cmp(out.hi) < 0 {
		out.hi = b.hi
	}
	return out
}

// ivWiden accelerates an ascending chain: a bound that moved since the
// previous visit jumps straight to the type bound, a stable bound
// stays. With both sides drawn from a finite set this terminates in
// at most two more visits per entry.
func ivWiden(prev, next, bound ival) ival {
	out := ival{lo: prev.lo, hi: prev.hi, declared: prev.declared || next.declared}
	if next.lo.Cmp(prev.lo) < 0 {
		out.lo = bound.lo
	}
	if next.hi.Cmp(prev.hi) > 0 {
		out.hi = bound.hi
	}
	return out
}

// ivNarrow is the descending step after widening: recomputing the
// fixpoint without widening only shrinks intervals, so the meet of the
// widened invariant and the recomputed value is sound and at least as
// tight as either.
func ivNarrow(widened, recomputed ival) ival {
	return ivMeet(widened, recomputed)
}

// bigFromConst converts a go/constant value to an exact integer, or
// nil when it is not an integer.
func bigFromConst(v constant.Value) *big.Int {
	v = constant.ToInt(v)
	if v.Kind() != constant.Int {
		return nil
	}
	b, ok := new(big.Int).SetString(v.ExactString(), 10)
	if !ok {
		return nil
	}
	return b
}

// typeIval returns the full value range of an integer type: the
// "unknown" element for that type. int, uint and uintptr count as
// 64-bit (matching bitWidth); type parameters resolve through their
// constraint (the module's only constraint is noc.Counter, ~uint64).
func typeIval(t types.Type) (ival, bool) {
	if t == nil || !isInteger(t) {
		return ival{}, false
	}
	w := bitWidth(t)
	if w <= 0 {
		return ival{}, false
	}
	one := big.NewInt(1)
	if isUnsignedInt(t) {
		hi := new(big.Int).Lsh(one, uint(w))
		hi.Sub(hi, one)
		return ival{lo: big.NewInt(0), hi: hi}, true
	}
	hi := new(big.Int).Lsh(one, uint(w-1))
	lo := new(big.Int).Neg(hi)
	hi = new(big.Int).Sub(hi, one)
	return ival{lo: lo, hi: hi}, true
}

// Exact transfer functions over ℤ. None clamp to a machine type; the
// caller compares the exact result against typeIval to decide whether
// the concrete operation can wrap.

func ivAdd(a, b ival) ival {
	return ival{
		lo:       new(big.Int).Add(a.lo, b.lo),
		hi:       new(big.Int).Add(a.hi, b.hi),
		declared: a.declared || b.declared,
	}
}

func ivSub(a, b ival) ival {
	return ival{
		lo:       new(big.Int).Sub(a.lo, b.hi),
		hi:       new(big.Int).Sub(a.hi, b.lo),
		declared: a.declared || b.declared,
	}
}

func ivFromCorners(decl bool, corners ...*big.Int) ival {
	out := ival{lo: corners[0], hi: corners[0], declared: decl}
	for _, c := range corners[1:] {
		if c.Cmp(out.lo) < 0 {
			out.lo = c
		}
		if c.Cmp(out.hi) > 0 {
			out.hi = c
		}
	}
	return out
}

func ivMul(a, b ival) ival {
	return ivFromCorners(a.declared || b.declared,
		new(big.Int).Mul(a.lo, b.lo),
		new(big.Int).Mul(a.lo, b.hi),
		new(big.Int).Mul(a.hi, b.lo),
		new(big.Int).Mul(a.hi, b.hi),
	)
}

// ivQuo models Go's truncated integer division. Division by zero
// panics at runtime, so zero divisors are excluded from the corner
// set; extreme quotients occur at the divisor endpoints and at ±1.
func ivQuo(a, b ival) (ival, bool) {
	var divisors []*big.Int
	add := func(d *big.Int) {
		if d.Sign() != 0 && b.lo.Cmp(d) <= 0 && b.hi.Cmp(d) >= 0 {
			divisors = append(divisors, d)
		}
	}
	add(b.lo)
	add(b.hi)
	add(big.NewInt(1))
	add(big.NewInt(-1))
	if len(divisors) == 0 {
		return ival{}, false // all paths divide by zero (and panic)
	}
	var corners []*big.Int
	for _, d := range divisors {
		corners = append(corners,
			new(big.Int).Quo(a.lo, d),
			new(big.Int).Quo(a.hi, d),
		)
	}
	return ivFromCorners(a.declared || b.declared, corners...), true
}

// ivRem models x % y: the result has x's sign and magnitude below
// max(|y.lo|, |y.hi|).
func ivRem(a, b ival) (ival, bool) {
	maxAbs := new(big.Int).Abs(b.lo)
	if h := new(big.Int).Abs(b.hi); h.Cmp(maxAbs) > 0 {
		maxAbs = h
	}
	if maxAbs.Sign() == 0 {
		return ival{}, false
	}
	bound := new(big.Int).Sub(maxAbs, big.NewInt(1))
	out := ival{lo: big.NewInt(0), hi: big.NewInt(0), declared: a.declared || b.declared}
	if a.lo.Sign() < 0 {
		out.lo = new(big.Int).Neg(bound)
		if a.lo.Cmp(out.lo) > 0 {
			out.lo = a.lo
		}
	}
	if a.hi.Sign() > 0 {
		out.hi = bound
		if a.hi.Cmp(out.hi) < 0 {
			out.hi = a.hi
		}
	}
	return out, true
}

// shiftCap bounds exact shift amounts so a hostile-range shift count
// cannot make big.Int allocate gigabit numbers; anything past it is
// far beyond every machine width and compares as overflow anyway.
const shiftCap = 1025

func clampShiftAmount(n *big.Int) uint {
	if n.Sign() < 0 {
		return 0
	}
	if !n.IsUint64() || n.Uint64() > shiftCap {
		return shiftCap
	}
	return uint(n.Uint64())
}

// ivShl computes x << k exactly for k >= 0 (negative shift counts
// panic at runtime and must be excluded by the caller).
func ivShl(a, k ival) ival {
	klo, khi := clampShiftAmount(k.lo), clampShiftAmount(k.hi)
	shift := func(v *big.Int, by uint) *big.Int { return new(big.Int).Lsh(v, by) }
	return ivFromCorners(a.declared || k.declared,
		shift(a.lo, klo), shift(a.lo, khi), shift(a.hi, klo), shift(a.hi, khi))
}

// ivShr computes x >> k (arithmetic shift, matching Go on signed
// types) for k >= 0.
func ivShr(a, k ival) ival {
	klo, khi := clampShiftAmount(k.lo), clampShiftAmount(k.hi)
	shift := func(v *big.Int, by uint) *big.Int { return new(big.Int).Rsh(v, by) }
	return ivFromCorners(a.declared || k.declared,
		shift(a.lo, klo), shift(a.lo, khi), shift(a.hi, klo), shift(a.hi, khi))
}

// ivBitOp approximates &, |, ^ and &^ for non-negative operands:
// & cannot exceed either operand, | and ^ cannot reach the next power
// of two above both, &^ cannot exceed the left operand. Negative
// operands fall back to the type range (caller handles ok=false).
func ivBitOp(op token.Token, a, b ival) (ival, bool) {
	if a.lo.Sign() < 0 || b.lo.Sign() < 0 {
		return ival{}, false
	}
	decl := a.declared || b.declared
	zero := big.NewInt(0)
	switch op {
	case token.AND:
		hi := a.hi
		if b.hi.Cmp(hi) < 0 {
			hi = b.hi
		}
		return ival{lo: zero, hi: hi, declared: decl}, true
	case token.AND_NOT:
		return ival{lo: zero, hi: a.hi, declared: decl}, true
	case token.OR, token.XOR:
		m := a.hi
		if b.hi.Cmp(m) > 0 {
			m = b.hi
		}
		one := big.NewInt(1)
		hi := new(big.Int).Lsh(one, uint(m.BitLen()))
		hi.Sub(hi, one)
		return ival{lo: zero, hi: hi, declared: decl}, true
	}
	return ival{}, false
}

// ivNeg computes -x exactly.
func ivNeg(a ival) ival {
	return ival{lo: new(big.Int).Neg(a.hi), hi: new(big.Int).Neg(a.lo), declared: a.declared}
}

// refineLeft returns x refined by the comparison `x op y` holding, for
// op in < <= > >= == !=. Refinement never widens: the result is a
// subset of x (and may be bottom when the comparison is impossible).
func refineLeft(op token.Token, x, y ival) ival {
	one := big.NewInt(1)
	switch op {
	case token.LSS: // x < y  =>  x <= y.hi - 1
		return ivMeet(x, ival{lo: x.lo, hi: new(big.Int).Sub(y.hi, one)})
	case token.LEQ:
		return ivMeet(x, ival{lo: x.lo, hi: y.hi})
	case token.GTR: // x > y  =>  x >= y.lo + 1
		return ivMeet(x, ival{lo: new(big.Int).Add(y.lo, one), hi: x.hi})
	case token.GEQ:
		return ivMeet(x, ival{lo: y.lo, hi: x.hi})
	case token.EQL:
		return ivMeet(x, y)
	case token.NEQ:
		// Only singleton disequality trims an interval endpoint.
		if y.lo.Cmp(y.hi) == 0 {
			if x.lo.Cmp(y.lo) == 0 {
				return ival{lo: new(big.Int).Add(x.lo, one), hi: x.hi, declared: x.declared}
			}
			if x.hi.Cmp(y.hi) == 0 {
				return ival{lo: x.lo, hi: new(big.Int).Sub(x.hi, one), declared: x.declared}
			}
		}
	}
	return x
}

// negateCmp maps a comparison operator to its negation (the operator
// that holds on the false edge).
func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.GEQ:
		return token.LSS
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return token.ILLEGAL
}

// flipCmp mirrors a comparison so the right operand becomes the left:
// x < y  ==  y > x.
func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.GTR:
		return token.LSS
	case token.LEQ:
		return token.GEQ
	case token.GEQ:
		return token.LEQ
	}
	return op // ==, != are symmetric
}

// ---------------------------------------------------------------------
// Environment: refined intervals per expression, keyed by
// types.ExprString, plus difference entries keyed by operand pair.

// ivEntry is one refined binding. def is the key's context-free
// default (annotation or type range), joined back in when a merge sees
// the key on only one side; idents names every identifier the key
// mentions, so assigning any of them kills the entry. A diff entry
// bounds the exact difference x − y over ℤ of a pair guarded by a
// comparison (see diffKey); it has no machine type, and a merge that
// sees it on only one side drops it.
type ivEntry struct {
	iv     ival
	def    ival
	t      types.Type
	idents map[string]bool
	diff   bool
}

// ivEnv maps types.ExprString keys, and diffKey pair keys, to refined
// intervals. nil means block not yet visited (distinct from the empty
// environment).
type ivEnv map[string]ivEntry

func cloneIvEnv(env ivEnv) ivEnv {
	out := make(ivEnv, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// joinIvEnv merges two path environments. A key on one side only joins
// with its own default — absence means "no refinement", which the
// evaluator resolves to exactly that default. A one-sided diff entry is
// dropped: its pair falls back to the difference of the two operand
// intervals.
func joinIvEnv(a, b ivEnv) ivEnv {
	out := make(ivEnv, len(a))
	for k, ea := range a {
		if eb, ok := b[k]; ok {
			ea.iv = ivJoin(ea.iv, eb.iv)
		} else if ea.diff {
			continue
		} else {
			ea.iv = ivJoin(ea.iv, ea.def)
		}
		out[k] = ea
	}
	for k, eb := range b {
		if _, ok := a[k]; ok || eb.diff {
			continue
		}
		eb.iv = ivJoin(eb.iv, eb.def)
		out[k] = eb
	}
	return out
}

func ivEnvEqual(a, b ivEnv) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ea := range a {
		eb, ok := b[k]
		if !ok || !ea.iv.eq(eb.iv) {
			return false
		}
	}
	return true
}

// widenIvEnv widens prev toward merged, entry-wise against each
// entry's type range (a diff entry's default, which has no type).
func widenIvEnv(prev, merged ivEnv) ivEnv {
	out := make(ivEnv, len(merged))
	for k, em := range merged {
		if ep, ok := prev[k]; ok {
			bound := em.def
			if tb, ok := typeIval(em.t); ok {
				bound = tb
			}
			em.iv = ivWiden(ep.iv, em.iv, bound)
		}
		out[k] = em
	}
	return out
}

// narrowIvEnv meets the widened fixpoint with a recomputed pass.
func narrowIvEnv(widened, recomputed ivEnv) ivEnv {
	out := make(ivEnv, len(widened))
	for k, ew := range widened {
		if er, ok := recomputed[k]; ok {
			ew.iv = ivNarrow(ew.iv, er.iv)
		}
		out[k] = ew
	}
	for k, er := range recomputed {
		if _, ok := widened[k]; !ok {
			out[k] = er
		}
	}
	return out
}

// killIvIdents drops entries mentioning any of the names.
func killIvIdents(env ivEnv, names map[string]bool) {
	if len(names) == 0 {
		return
	}
	for k, e := range env {
		for name := range names {
			if e.idents[name] {
				delete(env, k)
				break
			}
		}
	}
}

// ---------------------------------------------------------------------
// Analysis context shared by one valuerange run: the loader, the call
// graph (effect summaries + CHA), the //ssvc:range declarations, and
// memoized per-function return intervals.

type ivCtx struct {
	l        *Loader
	cg       *callGraph
	ranges   map[*types.Var]ival
	barriers map[*types.Func]bool
	rets     map[*types.Func]ival
	retOK    map[*types.Func]bool
	retBusy  map[*types.Func]bool
}

// newIvCtx collects //ssvc:range annotations and //ssvc:barrier
// function markers from every package the call graph indexed.
// Malformed annotations become diagnostics (fail closed and visible),
// never silent trust.
func newIvCtx(l *Loader, cg *callGraph) (*ivCtx, []Diagnostic) {
	cx := &ivCtx{
		l:        l,
		cg:       cg,
		ranges:   map[*types.Var]ival{},
		barriers: map[*types.Func]bool{},
		rets:     map[*types.Func]ival{},
		retOK:    map[*types.Func]bool{},
		retBusy:  map[*types.Func]bool{},
	}
	var diags []Diagnostic
	for _, pkg := range cg.pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				for _, f := range st.Fields.List {
					diags = append(diags, cx.collectFieldRanges(pkg, f)...)
				}
				return true
			})
		}
	}
	for fn, fi := range cg.funcs {
		if fi.decl.Doc == nil {
			continue
		}
		for _, c := range fi.decl.Doc.List {
			if isMarker(c.Text, MarkBarrier) {
				cx.barriers[fn] = true
			}
		}
	}
	return cx, diags
}

// collectFieldRanges parses the //ssvc:range annotations on one struct
// field declaration.
func (cx *ivCtx) collectFieldRanges(pkg *Package, f *ast.Field) []Diagnostic {
	var diags []Diagnostic
	bad := func(pos token.Pos, format string, args ...any) {
		file, line := cx.l.Rel(pos)
		diags = append(diags, Diagnostic{
			File: file, Line: line, Analyzer: "valuerange",
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, grp := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if grp == nil {
			continue
		}
		for _, c := range grp.List {
			if !isMarker(c.Text, MarkRange) {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(c.Text, MarkRange))
			if len(fields) != 2 {
				bad(c.Pos(), "malformed %s annotation: want %q", MarkRange, MarkRange+" <field> <lo>..<hi>")
				continue
			}
			name, rng := fields[0], fields[1]
			loS, hiS, ok := strings.Cut(rng, "..")
			if !ok {
				bad(c.Pos(), "malformed %s range %q: want <lo>..<hi>", MarkRange, rng)
				continue
			}
			lo, okLo := new(big.Int).SetString(loS, 10)
			hi, okHi := new(big.Int).SetString(hiS, 10)
			if !okLo || !okHi || lo.Cmp(hi) > 0 {
				bad(c.Pos(), "malformed %s bounds %q: want decimal integers with lo <= hi", MarkRange, rng)
				continue
			}
			var fv *types.Var
			for _, id := range f.Names {
				if id.Name == name {
					fv, _ = pkg.Info.Defs[id].(*types.Var)
				}
			}
			if fv == nil {
				bad(c.Pos(), "%s names %q, which is not declared on this field", MarkRange, name)
				continue
			}
			tb, ok := typeIval(fv.Type())
			if !ok {
				bad(c.Pos(), "%s on %s: field type %s is not an integer", MarkRange, name, fv.Type())
				continue
			}
			decl := ival{lo: lo, hi: hi, declared: true}
			if !tb.contains(decl) {
				bad(c.Pos(), "%s on %s: declared %s exceeds the range of %s", MarkRange, name, decl, fv.Type())
				continue
			}
			cx.ranges[fv] = decl
		}
	}
	return diags
}

// fieldRange resolves a selector expression to its //ssvc:range
// declaration, if any.
func (cx *ivCtx) fieldRange(pkg *Package, e ast.Expr) (ival, bool) {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ival{}, false
	}
	fv := fieldVarOf(pkg.Info, sel)
	if fv == nil {
		return ival{}, false
	}
	iv, ok := cx.ranges[fv]
	return iv, ok
}

// defaultIval is an expression's context-free abstract value: its
// declared range if annotated, otherwise its type range.
func (cx *ivCtx) defaultIval(pkg *Package, e ast.Expr, t types.Type) (ival, bool) {
	if iv, ok := cx.fieldRange(pkg, e); ok {
		return iv, true
	}
	return typeIval(t)
}

// keyableExpr reports whether e has a stable ExprString identity the
// environment may track: a chain of locals, field selections, constant
// or tracked indexes and dereferences, with no calls and no
// package-level roots (another goroutine or callee could change those
// behind our back; the module's globals are out of scope by design).
func keyableExpr(pkg *Package, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return false
		}
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		switch obj := obj.(type) {
		case *types.Var:
			return obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope()
		case *types.Const:
			return true
		}
		return false
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
				return false // package-qualified: a global
			}
		}
		return keyableExpr(pkg, e.X)
	case *ast.IndexExpr:
		return keyableExpr(pkg, e.X) && keyableExpr(pkg, e.Index)
	case *ast.StarExpr:
		return keyableExpr(pkg, e.X)
	case *ast.ParenExpr:
		return keyableExpr(pkg, e.X)
	case *ast.BasicLit:
		return e.Kind == token.INT
	}
	return false
}

// setEntry stores a refined interval for a keyable expression.
func setEntry(pkg *Package, env ivEnv, e ast.Expr, iv, def ival, t types.Type) {
	ids := map[string]bool{}
	collectIdents(e, ids)
	env[types.ExprString(e)] = ivEntry{iv: iv, def: def, t: t, idents: ids}
}

// diffKey is the pair key under which the environment bounds the exact
// difference x − y. Both sides must be keyable, non-constant integer
// expressions (a constant side is the operand's own interval). The key
// names the pair in a canonical order, so `a < b` and `b > a` share an
// entry; swapped reports that the entry stores y − x instead. NUL never
// occurs in an ExprString, so pair keys cannot collide with the
// expression keys, whose entries hold wrapped machine values.
func diffKey(pkg *Package, x, y ast.Expr) (key string, swapped, ok bool) {
	x, y = unparen(x), unparen(y)
	for _, e := range []ast.Expr{x, y} {
		if constVal(pkg, e) != nil || !keyableExpr(pkg, e) {
			return "", false, false
		}
		if t := exprType(pkg, e); t == nil || !isInteger(t) {
			return "", false, false
		}
	}
	xs, ys := types.ExprString(x), types.ExprString(y)
	if xs > ys {
		return ys + "\x00" + xs, true, true
	}
	return xs + "\x00" + ys, false, true
}

// exactSub bounds x − y over ℤ, given the operands' intervals: interval
// subtraction met with the pair's difference entry, if a guard left one.
func exactSub(pkg *Package, env ivEnv, xe, ye ast.Expr, x, y ival) ival {
	d := ivSub(x, y)
	k, swapped, ok := diffKey(pkg, xe, ye)
	if !ok {
		return d
	}
	ent, ok := env[k]
	if !ok {
		return d
	}
	if swapped {
		return ivMeet(d, ivNeg(ent.iv))
	}
	return ivMeet(d, ent.iv)
}

// eval computes the abstract value of an integer expression under env.
// ok is false for non-integer expressions (and for type parameters
// outside the all-unsigned constraint the module uses).
func (cx *ivCtx) eval(pkg *Package, env ivEnv, e ast.Expr) (ival, bool) {
	if e == nil {
		return ival{}, false
	}
	e = unparen(e)
	t := exprType(pkg, e)
	if cv := constVal(pkg, e); cv != nil {
		if b := bigFromConst(cv); b != nil {
			return ival{lo: b, hi: b}, true
		}
		return ival{}, false
	}
	if t == nil || !isInteger(t) {
		return ival{}, false
	}
	tb, okT := typeIval(t)
	if !okT {
		return ival{}, false
	}
	if ent, ok := env[types.ExprString(e)]; ok {
		return ent.iv, true
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return cx.evalBinary(pkg, env, e.Op, e.X, e.Y, t)
	case *ast.UnaryExpr:
		x, ok := cx.eval(pkg, env, e.X)
		if !ok {
			return tb, true
		}
		switch e.Op {
		case token.ADD:
			return x, true
		case token.SUB:
			return clampToType(ivNeg(x), tb), true
		case token.XOR:
			// ^x == typeMax - x on unsigned, -x - 1 on signed.
			if isUnsignedInt(t) {
				return clampToType(ivSub(ival{lo: tb.hi, hi: tb.hi}, x), tb), true
			}
			return clampToType(ivSub(ivNeg(x), mkIval(1, 1)), tb), true
		}
		return tb, true
	case *ast.CallExpr:
		return cx.evalCall(pkg, env, e, t, tb)
	case *ast.SelectorExpr:
		if iv, ok := cx.fieldRange(pkg, e); ok {
			return iv, true
		}
		return tb, true
	}
	return tb, true
}

// evalBinary applies one arithmetic transfer function and clamps the
// result to the expression's type: a result that fits is exact, one
// that could wrap degrades to the full type range (the declared flag
// survives so valuerange still reports the wrapping site).
func (cx *ivCtx) evalBinary(pkg *Package, env ivEnv, op token.Token, xe, ye ast.Expr, t types.Type) (ival, bool) {
	tb, ok := typeIval(t)
	if !ok {
		return ival{}, false
	}
	x, okX := cx.eval(pkg, env, xe)
	y, okY := cx.eval(pkg, env, ye)
	if !okX || !okY {
		return tb, true
	}
	var r ival
	switch op {
	case token.ADD:
		r = ivAdd(x, y)
	case token.SUB:
		r = exactSub(pkg, env, xe, ye, x, y)
	case token.MUL:
		r = ivMul(x, y)
	case token.QUO:
		q, ok := ivQuo(x, y)
		if !ok {
			return tb, true
		}
		r = q
	case token.REM:
		q, ok := ivRem(x, y)
		if !ok {
			return tb, true
		}
		r = q
	case token.SHL:
		if y.lo.Sign() < 0 {
			return tb, true // possibly-negative count panics, not wraps
		}
		r = ivShl(x, y)
	case token.SHR:
		if y.lo.Sign() < 0 {
			return tb, true
		}
		r = ivShr(x, y)
	case token.AND, token.OR, token.XOR, token.AND_NOT:
		q, ok := ivBitOp(op, x, y)
		if !ok {
			return tb, true
		}
		r = q
	default:
		return tb, true
	}
	return clampToType(r, tb), true
}

// clampToType degrades an exact result that escapes its machine type
// to the full type range: the concrete operation wraps, so nothing
// tighter is sound. The declared flag survives.
func clampToType(r, tb ival) ival {
	if tb.contains(r) {
		return r
	}
	return ival{lo: tb.lo, hi: tb.hi, declared: r.declared}
}

// evalCall handles conversions, the len/cap builtins, and static calls
// seeded with interprocedural return summaries.
func (cx *ivCtx) evalCall(pkg *Package, env ivEnv, call *ast.CallExpr, t types.Type, tb ival) (ival, bool) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		inner, ok := cx.eval(pkg, env, call.Args[0])
		if !ok {
			return tb, true // float or other non-integer source
		}
		if tb.contains(inner) {
			return inner, true
		}
		return ival{lo: tb.lo, hi: tb.hi, declared: inner.declared}, true
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				return ival{lo: big.NewInt(0), hi: tb.hi}, true
			}
			return tb, true
		}
	}
	if fn := staticCallee(pkg, cx.cg, call); fn != nil {
		if iv, ok := cx.retIval(fn); ok {
			return ivMeet(iv, tb), true
		}
	}
	return tb, true
}

// staticCallee resolves a call to its single static target: a named
// function, a package-qualified function, or a concrete method.
// Interface calls and func values resolve to nil.
func staticCallee(pkg *Package, cg *callGraph, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// retIval computes (and memoizes) a function's return interval: the
// join of its reachable single-result returns, evaluated under the
// function's own interval fixpoint. This is how declared ranges and
// their flag cross call boundaries — costOf's [0, 2^40] cost, built
// from a declared PacketLen, reaches every admission site that calls
// it. Recursion and multi-result or bodiless functions yield no
// summary (callers fall back to the result's type range).
func (cx *ivCtx) retIval(fn *types.Func) (ival, bool) {
	if iv, ok := cx.rets[fn]; ok {
		return iv, cx.retOK[fn]
	}
	if cx.retBusy[fn] {
		return ival{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return ival{}, false
	}
	resT := sig.Results().At(0).Type()
	tb, ok := typeIval(resT)
	if !ok {
		return ival{}, false
	}
	fi := cx.cg.funcs[fn]
	if fi == nil || fi.decl.Body == nil {
		return ival{}, false
	}
	cx.retBusy[fn] = true
	defer delete(cx.retBusy, fn)

	g, in := cx.flowBody(fi.pkg, fi.decl.Body)
	out := ival{lo: tb.hi, hi: tb.lo} // bottom: no reachable return yet
	resultName := ""
	if res := fi.decl.Type.Results; res != nil && len(res.List) == 1 && len(res.List[0].Names) == 1 {
		resultName = res.List[0].Names[0].Name
	}
	for _, blk := range g.blocks {
		env := in[blk.index]
		if env == nil {
			continue
		}
		env = cloneIvEnv(env)
		for _, n := range blk.nodes {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				var iv ival
				evald := false
				if len(ret.Results) == 1 {
					iv, evald = cx.eval(fi.pkg, env, ret.Results[0])
				} else if len(ret.Results) == 0 && resultName != "" {
					if ent, ok := env[resultName]; ok {
						iv, evald = ent.iv, true
					}
				}
				if !evald {
					iv = tb
				}
				out = ivJoin(out, ivMeet(iv, tb))
			}
			cx.applyNode(fi.pkg, env, n)
		}
	}
	if out.isBottom() {
		out = tb
	}
	cx.rets[fn] = out
	cx.retOK[fn] = true
	return out, true
}

// ---------------------------------------------------------------------
// The per-function fixpoint.

// widenDelay is how many joins a block absorbs before widening kicks
// in; small enough to terminate fast, large enough that short counting
// loops converge exactly first.
const widenDelay = 3

// flowBody runs the ascending widened fixpoint plus one descending
// narrowing sweep over one function body, returning the entry
// environment per block (nil for unreachable blocks).
func (cx *ivCtx) flowBody(pkg *Package, body *ast.BlockStmt) (*cfgGraph, []ivEnv) {
	g := buildCFG(body)
	in := make([]ivEnv, len(g.blocks))
	visits := make([]int, len(g.blocks))
	in[g.entry.index] = ivEnv{}
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		out := cloneIvEnv(in[blk.index])
		for _, n := range blk.nodes {
			cx.applyNode(pkg, out, n)
		}
		for _, e := range blk.succs {
			ef := out
			if e.cond != nil {
				ef = cloneIvEnv(out)
				cx.refineEdge(pkg, ef, e.cond, e.branch)
			}
			cur := in[e.to.index]
			if cur == nil {
				in[e.to.index] = cloneIvEnv(ef)
				work = append(work, e.to)
				continue
			}
			merged := joinIvEnv(cur, ef)
			visits[e.to.index]++
			if visits[e.to.index] > widenDelay {
				merged = widenIvEnv(cur, merged)
			}
			if !ivEnvEqual(merged, cur) {
				in[e.to.index] = merged
				work = append(work, e.to)
			}
		}
	}

	// Descending pass: recompute each block's entry from its
	// predecessors once, without widening, and narrow toward it. Sound
	// because the transfer functions are monotone and we start from a
	// post-fixpoint.
	type edgeIn struct {
		from   *cfgBlock
		cond   ast.Expr
		branch bool
	}
	preds := make([][]edgeIn, len(g.blocks))
	for _, blk := range g.blocks {
		for _, e := range blk.succs {
			preds[e.to.index] = append(preds[e.to.index], edgeIn{from: blk, cond: e.cond, branch: e.branch})
		}
	}
	for _, blk := range g.blocks {
		if blk == g.entry || in[blk.index] == nil {
			continue
		}
		var merged ivEnv
		for _, pe := range preds[blk.index] {
			if in[pe.from.index] == nil {
				continue
			}
			out := cloneIvEnv(in[pe.from.index])
			for _, n := range pe.from.nodes {
				cx.applyNode(pkg, out, n)
			}
			if pe.cond != nil {
				cx.refineEdge(pkg, out, pe.cond, pe.branch)
			}
			if merged == nil {
				merged = out
			} else {
				merged = joinIvEnv(merged, out)
			}
		}
		if merged != nil {
			in[blk.index] = narrowIvEnv(in[blk.index], merged)
		}
	}
	return g, in
}

// applyNode advances the environment across one CFG node: evaluate
// effects, kill what the node may invalidate (killNode), and store new
// bindings for keyable integer targets.
func (cx *ivCtx) applyNode(pkg *Package, env ivEnv, n ast.Node) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		cx.applyAssign(pkg, env, s)
		return
	case *ast.IncDecStmt:
		t := exprType(pkg, s.X)
		var val ival
		okVal := false
		if t != nil && isInteger(t) {
			if tb, okT := typeIval(t); okT {
				if x, ok := cx.eval(pkg, env, s.X); ok {
					one := mkIval(1, 1)
					if s.Tok == token.DEC {
						val = ivSub(x, one)
					} else {
						val = ivAdd(x, one)
					}
					val, okVal = clampToType(val, tb), true
				}
			}
		}
		cx.killNode(pkg, env, n)
		if okVal && keyableExpr(pkg, s.X) {
			if def, ok := cx.defaultIval(pkg, s.X, t); ok {
				setEntry(pkg, env, s.X, val, def, t)
			}
		}
		return
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			cx.killNode(pkg, env, n)
			return
		}
		type binding struct {
			id  *ast.Ident
			iv  ival
			t   types.Type
			okV bool
		}
		var binds []binding
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj, _ := pkg.Info.Defs[name].(*types.Var)
				if obj == nil || !isInteger(obj.Type()) {
					continue
				}
				b := binding{id: name, t: obj.Type()}
				switch {
				case len(vs.Values) == len(vs.Names):
					b.iv, b.okV = cx.eval(pkg, env, vs.Values[i])
				case len(vs.Values) == 0:
					b.iv, b.okV = mkIval(0, 0), true // zero value
				}
				binds = append(binds, b)
			}
		}
		cx.killNode(pkg, env, n)
		for _, b := range binds {
			if !b.okV || b.id.Name == "_" {
				continue
			}
			if def, ok := typeIval(b.t); ok {
				setEntry(pkg, env, b.id, b.iv, def, b.t)
			}
		}
		return
	case *ast.RangeStmt:
		var keyIv ival
		keyOK := false
		if s.Key != nil {
			if t := exprType(pkg, s.Key); t != nil && isInteger(t) {
				tb, okT := typeIval(t)
				if !okT {
					cx.killNode(pkg, env, n)
					return
				}
				keyIv, keyOK = ival{lo: big.NewInt(0), hi: tb.hi}, true
				if xt := exprType(pkg, s.X); xt != nil && isInteger(xt) {
					// range-over-int: key in [0, n-1].
					if xv, ok := cx.eval(pkg, env, s.X); ok {
						hi := new(big.Int).Sub(xv.hi, big.NewInt(1))
						if hi.Sign() < 0 {
							hi = big.NewInt(0)
						}
						keyIv = ival{lo: big.NewInt(0), hi: hi, declared: xv.declared}
					}
				} else if xt != nil {
					switch xt.Underlying().(type) {
					case *types.Map, *types.Chan:
						keyIv = tb // arbitrary keys/values
					}
				}
			}
		}
		cx.killNode(pkg, env, n)
		if keyOK {
			if id, ok := s.Key.(*ast.Ident); ok && id.Name != "_" {
				t := exprType(pkg, s.Key)
				if def, ok := typeIval(t); ok {
					setEntry(pkg, env, id, ivMeet(keyIv, def), def, t)
				}
			}
		}
		return
	}
	cx.killNode(pkg, env, n)
}

// applyAssign handles plain, define, and compound assignments.
func (cx *ivCtx) applyAssign(pkg *Package, env ivEnv, s *ast.AssignStmt) {
	type binding struct {
		lhs ast.Expr
		iv  ival
		t   types.Type
		okV bool
	}
	var binds []binding
	switch {
	case s.Tok == token.ASSIGN || s.Tok == token.DEFINE:
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				t := exprType(pkg, lhs)
				if t == nil {
					// A := definition's target ident is recorded in Defs,
					// not Types.
					if id, ok := unparen(lhs).(*ast.Ident); ok {
						if obj, ok := pkg.Info.Defs[id].(*types.Var); ok {
							t = obj.Type()
						}
					}
				}
				if t == nil || !isInteger(t) {
					continue
				}
				iv, ok := cx.eval(pkg, env, s.Rhs[i])
				if tb, okT := typeIval(t); ok && okT {
					iv = ivMeet(iv, tb)
				} else {
					ok = false
				}
				binds = append(binds, binding{lhs: lhs, iv: iv, t: t, okV: ok})
			}
		}
	default:
		// Compound assignment: lhs op= rhs.
		op, ok := assignOp(s.Tok)
		if !ok {
			cx.killNode(pkg, env, s)
			return
		}
		lhs := s.Lhs[0]
		t := exprType(pkg, lhs)
		if t != nil && isInteger(t) {
			iv, ok := cx.evalBinary(pkg, env, op, lhs, s.Rhs[0], t)
			binds = append(binds, binding{lhs: lhs, iv: iv, t: t, okV: ok})
		}
	}
	cx.killNode(pkg, env, s)
	for _, b := range binds {
		if !b.okV || !keyableExpr(pkg, b.lhs) {
			continue
		}
		if def, ok := cx.defaultIval(pkg, b.lhs, b.t); ok {
			setEntry(pkg, env, b.lhs, b.iv, def, b.t)
		}
	}
}

// assignOp maps a compound assignment token (+=, &^=, ...) to the
// binary operator it applies. go/token declares the two runs in the
// same order, as go/types relies on too.
func assignOp(tok token.Token) (token.Token, bool) {
	if token.ADD_ASSIGN <= tok && tok <= token.AND_NOT_ASSIGN {
		return tok + (token.ADD - token.ADD_ASSIGN), true
	}
	return token.ILLEGAL, false
}

// killNode drops the entries a node may invalidate: assigned roots
// (everything, when a target has no identifier root), range variables,
// declared names, address-taken identifiers, plus — the effect-summary
// refinement — anything rooted at a pointer-carrying argument or
// receiver of a call whose callee may write through that parameter. A
// callee whose summary proves it writes no parameter kills nothing.
func (cx *ivCtx) killNode(pkg *Package, env ivEnv, n ast.Node) {
	names := map[string]bool{}
	killAll := false
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			if lvalRoots(l, names) {
				killAll = true
			}
		}
	case *ast.IncDecStmt:
		if lvalRoots(s.X, names) {
			killAll = true
		}
	case *ast.RangeStmt:
		if s.Key != nil && lvalRoots(s.Key, names) {
			killAll = true
		}
		if s.Value != nil && lvalRoots(s.Value, names) {
			killAll = true
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						names[name.Name] = true
					}
				}
			}
		}
	}
	walkNode(n, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				collectIdents(m.X, names)
			}
		case *ast.CallExpr:
			cx.callKillNames(pkg, m, names)
		}
	})
	if killAll {
		clear(env)
		return
	}
	killIvIdents(env, names)
}

// callKillNames adds the identifiers a call site may mutate through
// pointer-carrying arguments or receivers, consulting the callee's
// effect summary when one exists.
func (cx *ivCtx) callKillNames(pkg *Package, call *ast.CallExpr, names map[string]bool) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	var exprs []ast.Expr
	recvByRef := false // a pointer method on an addressable value takes &x
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			exprs = append(exprs, sel.X)
			if sig, ok := s.Obj().Type().(*types.Signature); ok && sig.Recv() != nil {
				_, recvByRef = sig.Recv().Type().(*types.Pointer)
			}
		}
	}
	exprs = append(exprs, call.Args...)
	fn := staticCallee(pkg, cx.cg, call)
	var sum *effectSummary
	if fn != nil {
		sum = cx.cg.summaries[fn]
	}
	for j, a := range exprs {
		t := exprType(pkg, a)
		byRef := j == 0 && recvByRef || t != nil && indirectType(t.Underlying())
		if !byRef {
			continue // value argument: callee writes stay in its copy
		}
		if sum != nil && j < len(sum.writesParam) && !sum.writesParam[j] {
			continue // summary proves this slot is read-only
		}
		collectIdents(a, names)
	}
}

// refineEdge refines the environment along one branch edge: true
// conjunctions and false disjunctions recurse into both operands,
// negation flips the edge, comparisons refine both sides and their
// difference.
func (cx *ivCtx) refineEdge(pkg *Package, env ivEnv, cond ast.Expr, branch bool) {
	switch c := unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			cx.refineEdge(pkg, env, c.X, !branch)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if branch {
				cx.refineEdge(pkg, env, c.X, true)
				cx.refineEdge(pkg, env, c.Y, true)
			}
		case token.LOR:
			if !branch {
				cx.refineEdge(pkg, env, c.X, false)
				cx.refineEdge(pkg, env, c.Y, false)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			op := c.Op
			if !branch {
				op = negateCmp(op)
			}
			cx.refineCompare(pkg, env, c.X, c.Y, op)
		}
	}
}

// refineCompare narrows both operands of `x op y` known to hold, and
// records that their exact difference satisfies (x − y) op 0.
func (cx *ivCtx) refineCompare(pkg *Package, env ivEnv, xe, ye ast.Expr, op token.Token) {
	x, okX := cx.eval(pkg, env, xe)
	y, okY := cx.eval(pkg, env, ye)
	if !okX || !okY {
		return
	}
	cx.storeRefined(pkg, env, xe, refineLeft(op, x, y))
	cx.storeRefined(pkg, env, ye, refineLeft(flipCmp(op), y, x))
	storeDiff(pkg, env, xe, ye, op, x, y)
}

// storeDiff records the difference entry for a comparison `x op y`
// known to hold between keyable operands with intervals x and y.
func storeDiff(pkg *Package, env ivEnv, xe, ye ast.Expr, op token.Token, x, y ival) {
	k, swapped, ok := diffKey(pkg, xe, ye)
	if !ok {
		return
	}
	cur := exactSub(pkg, env, xe, ye, x, y)
	d := refineLeft(op, cur, mkIval(0, 0))
	if d.eq(cur) {
		return
	}
	tx, _ := typeIval(exprType(pkg, xe))
	ty, _ := typeIval(exprType(pkg, ye))
	def := ivSub(tx, ty)
	if swapped {
		d, def = ivNeg(d), ivNeg(def)
	}
	ids := map[string]bool{}
	collectIdents(xe, ids)
	collectIdents(ye, ids)
	env[k] = ivEntry{iv: d, def: def, idents: ids, diff: true}
}

// storeRefined records a refinement for a keyable non-constant
// expression when it is strictly tighter than what eval already knows.
func (cx *ivCtx) storeRefined(pkg *Package, env ivEnv, e ast.Expr, iv ival) {
	e = unparen(e)
	if constVal(pkg, e) != nil || !keyableExpr(pkg, e) {
		return
	}
	t := exprType(pkg, e)
	if t == nil || !isInteger(t) {
		return
	}
	cur, ok := cx.eval(pkg, env, e)
	if ok && cur.eq(iv) {
		return
	}
	if def, ok := cx.defaultIval(pkg, e, t); ok {
		setEntry(pkg, env, e, iv, def, t)
	}
}
