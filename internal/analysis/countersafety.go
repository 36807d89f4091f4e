package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// CounterSafety flags the arithmetic bug class behind the PR 1 glbound
// underflow: operations on unsigned counters (raw uint64 and the
// noc.Cycle / noc.VTime domains) that can silently wrap or truncate.
//
// Four rules:
//
//  1. Unguarded subtraction: `a - b` (or `a -= b`) on an unsigned type
//     whose exact difference the interval engine (interval.go) cannot
//     bound below by zero. A comparison edge between two keyable
//     operands records the bounds of their difference, so
//     `if a < b { return 0 }; return a - b` — the shape of noc.SatSub —
//     passes, as do guards on selectors and indexes, guards established
//     by loop conditions, &&-chains, negations and tagless switch
//     cases. The operands' own intervals prove the rest: a constant
//     bound like `x > 0` (with `x != 0` on an unsigned x recognized as
//     exactly that, admitting the bitmask-iteration idiom
//     `for m != 0 { m &= m - 1 }`), a subtraction from the type
//     maximum, and — a step local to this rule — the positive constant
//     base of `1<<k` as the shift's lower bound. Assignments, taken
//     addresses and calls whose effect summary writes an operand's
//     root all drop the guard.
//  2. Narrowing conversion: a non-constant 64-bit unsigned value
//     converted to an integer type narrower than 64 bits ('int' and
//     'uint' count as 64-bit; the simulator only targets 64-bit
//     platforms).
//  3. Over-shift: shifting by a constant at least as large as the
//     operand's bit width, which always yields zero (use noc.SatShl for
//     variable shifts).
//  4. Wrap-dead comparison: an unsigned expression compared against
//     zero with < or >= (e.g. `x - y < 0`), which unsigned wrap makes
//     constant-valued.
//
// The sanctioned escape hatches are the saturating helpers in
// internal/noc (SatSub, SatAdd, SatShl) — their own bodies pass rule 1
// because they carry the guards the analyzer looks for.
func CounterSafety(l *Loader, packages []string) ([]Diagnostic, error) {
	var pkgs []*Package
	for _, rel := range packages {
		ip := l.Module
		if rel != "" && rel != "." {
			ip = l.Module + "/" + rel
		}
		pkg, err := l.Load(ip)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return counterSafetyWithCG(l, buildCallGraph(l), pkgs), nil
}

// counterSafetyWithCG is the core shared with the parallel RunAll
// driver, which runs it as one whole-tree task on the shared call
// graph: the interval context memoizes return summaries in maps that
// are not safe for concurrent use.
func counterSafetyWithCG(l *Loader, cg *callGraph, pkgs []*Package) []Diagnostic {
	cx, _ := newIvCtx(l, cg) // malformed annotations are valuerange's to report
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			diags = append(diags, counterExprChecks(l, pkg, file)...)
			for _, body := range functionBodies(file) {
				diags = append(diags, unguardedSubs(cx, pkg, body)...)
			}
		}
	}
	return diags
}

// functionBodies returns every function body in the file — declarations
// and literals — each analyzed as its own CFG. A literal's body sees
// none of the enclosing function's guards (conservative: the literal
// may run at any time).
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, n.Body)
		}
		return true
	})
	return bodies
}

// unsignedSub returns the operands of m when it is a rule 1 site: a
// subtraction or -= assignment on an unsigned type, whose result is not
// a constant and whose subtrahend is not the constant zero.
func unsignedSub(pkg *Package, m ast.Node) (x, y ast.Expr, ok bool) {
	switch m := m.(type) {
	case *ast.BinaryExpr:
		if m.Op != token.SUB || constVal(pkg, m) != nil {
			return nil, nil, false // a constant result is checked by the compiler
		}
		x, y = m.X, m.Y
	case *ast.AssignStmt:
		if m.Tok != token.SUB_ASSIGN {
			return nil, nil, false
		}
		x, y = m.Lhs[0], m.Rhs[0]
	default:
		return nil, nil, false
	}
	if t := exprType(pkg, x); t == nil || !isUnsignedInt(t) {
		return nil, nil, false
	}
	if yv := constVal(pkg, y); yv != nil && constant.Sign(yv) == 0 {
		return nil, nil, false // x - 0
	}
	return x, y, true
}

// unguardedSubs applies rule 1 to one function body. Only bodies that
// hold a rule 1 site pay for the interval fixpoint; the replay then
// checks each site against the environment in force just before it.
func unguardedSubs(cx *ivCtx, pkg *Package, body *ast.BlockStmt) []Diagnostic {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, lit := n.(*ast.FuncLit); lit || found {
			return false // literals are bodies of their own
		}
		if _, _, ok := unsignedSub(pkg, n); ok {
			found = true
		}
		return !found
	})
	if !found {
		return nil
	}
	g, in := cx.flowBody(pkg, body)
	var diags []Diagnostic
	for _, blk := range g.blocks {
		env := in[blk.index]
		if env == nil {
			continue // unreachable
		}
		env = cloneIvEnv(env)
		for _, n := range blk.nodes {
			walkNode(n, func(m ast.Node) {
				if x, y, ok := unsignedSub(pkg, m); ok && mayWrap(cx, pkg, env, x, y) {
					xs, ys := types.ExprString(x), types.ExprString(y)
					file, line := cx.l.Rel(m.Pos())
					diags = append(diags, Diagnostic{
						File: file, Line: line, Analyzer: "countersafety",
						Message: fmt.Sprintf("unsigned subtraction %s - %s may wrap below zero: no dominating %s >= %s guard on some path; guard it or use noc.SatSub",
							xs, ys, xs, ys),
					})
				}
			})
			cx.applyNode(pkg, env, n)
		}
	}
	return diags
}

// mayWrap reports whether the exact difference x − y may fall below
// zero under env. A left shift of a positive constant base is taken to
// be at least the base whenever the shift is meaningful (the 1<<k mask
// idiom); the step stays local to this rule, since valuerange must see
// the shift's true range.
func mayWrap(cx *ivCtx, pkg *Package, env ivEnv, xe, ye ast.Expr) bool {
	x, okX := cx.eval(pkg, env, xe)
	y, okY := cx.eval(pkg, env, ye)
	if !okX || !okY {
		return true
	}
	if sh, ok := unparen(xe).(*ast.BinaryExpr); ok && sh.Op == token.SHL {
		if bv := constVal(pkg, sh.X); bv != nil {
			if b := bigFromConst(bv); b != nil && b.Sign() > 0 && b.Cmp(x.lo) > 0 {
				x = ival{lo: b, hi: x.hi}
			}
		}
	}
	d := exactSub(pkg, env, xe, ye, x, y)
	return !d.isBottom() && d.lo.Sign() < 0
}

// counterExprChecks applies the context-free rules 2-4 to a whole file.
func counterExprChecks(l *Loader, pkg *Package, file *ast.File) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		f, line := l.Rel(pos)
		diags = append(diags, Diagnostic{
			File: f, Line: line, Analyzer: "countersafety",
			Message: fmt.Sprintf(format, args...),
		})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Rule 2: narrowing conversion of a 64-bit unsigned value.
			tv, ok := pkg.Info.Types[n.Fun]
			if !ok || !tv.IsType() || len(n.Args) != 1 {
				return true
			}
			src := exprType(pkg, n.Args[0])
			if src == nil || constVal(pkg, n.Args[0]) != nil {
				return true // constant conversions are compiler-checked
			}
			dst := tv.Type
			if isUnsignedInt(src) && bitWidth(src) == 64 && isInteger(dst) {
				if w := bitWidth(dst); w > 0 && w < 64 {
					report(n.Pos(), "narrowing conversion %s truncates a 64-bit counter to %d bits",
						types.ExprString(n), w)
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.SHL, token.SHR:
				// Rule 3: constant shift >= bit width.
				diags = append(diags, overShift(l, pkg, n.X, n.Y, n.Pos())...)
			case token.LSS, token.GEQ:
				// Rule 4: unsigned < 0 / unsigned >= 0.
				if isDeadZeroCompare(pkg, n.X, n.Y) {
					report(n.Pos(), "comparison %s is decided by unsigned wrap: an unsigned value is never negative",
						types.ExprString(n))
				}
			case token.GTR, token.LEQ:
				// Mirrored spelling: 0 > x / 0 <= x.
				if isDeadZeroCompare(pkg, n.Y, n.X) {
					report(n.Pos(), "comparison %s is decided by unsigned wrap: an unsigned value is never negative",
						types.ExprString(n))
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN {
				diags = append(diags, overShift(l, pkg, n.Lhs[0], n.Rhs[0], n.Pos())...)
			}
		}
		return true
	})
	return diags
}

func overShift(l *Loader, pkg *Package, x, k ast.Expr, pos token.Pos) []Diagnostic {
	if constVal(pkg, x) != nil {
		return nil // constant shifts are compiler-checked
	}
	kv := constVal(pkg, k)
	if kv == nil {
		return nil // variable shifts are noc.SatShl's job
	}
	t := exprType(pkg, x)
	if t == nil || !isInteger(t) {
		return nil
	}
	w := bitWidth(t)
	if amt, ok := constant.Uint64Val(kv); ok && w > 0 && amt >= uint64(w) {
		f, line := l.Rel(pos)
		return []Diagnostic{{
			File: f, Line: line, Analyzer: "countersafety",
			Message: fmt.Sprintf("shift of a %d-bit value by %d always discards every bit; use noc.SatShl or a smaller constant", w, amt),
		}}
	}
	return nil
}

// isDeadZeroCompare reports whether e is a non-constant unsigned
// expression and z is the constant zero.
func isDeadZeroCompare(pkg *Package, e, z ast.Expr) bool {
	zv := constVal(pkg, z)
	if zv == nil || constant.Sign(zv) != 0 {
		return false
	}
	if constVal(pkg, e) != nil {
		return false
	}
	t := exprType(pkg, e)
	return t != nil && isUnsignedInt(t)
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func exprType(pkg *Package, e ast.Expr) types.Type {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

func constVal(pkg *Package, e ast.Expr) constant.Value {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return nil
	}
	return constant.ToInt(tv.Value)
}

// isUnsignedInt reports whether t is an unsigned integer type,
// including named types (noc.Cycle, noc.VTime) and type parameters
// whose constraint admits only unsigned terms (noc.Counter).
func isUnsignedInt(t types.Type) bool {
	t = types.Unalias(t)
	if tp, ok := t.(*types.TypeParam); ok {
		return typeParamAllUnsigned(tp)
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}

func isInteger(t types.Type) bool {
	t = types.Unalias(t)
	if tp, ok := t.(*types.TypeParam); ok {
		return typeParamAllUnsigned(tp)
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func typeParamAllUnsigned(tp *types.TypeParam) bool {
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	seen := false
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch et := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < et.Len(); j++ {
				b, ok := et.Term(j).Type().Underlying().(*types.Basic)
				if !ok || b.Info()&types.IsUnsigned == 0 {
					return false
				}
				seen = true
			}
		default:
			b, ok := et.Underlying().(*types.Basic)
			if !ok || b.Info()&types.IsUnsigned == 0 {
				return false
			}
			seen = true
		}
	}
	return seen
}

// bitWidth returns the width of an integer type in bits; int, uint and
// uintptr count as 64 (the simulator targets 64-bit platforms). Type
// parameters are counters (~uint64), hence 64.
func bitWidth(t types.Type) int {
	t = types.Unalias(t)
	if _, ok := t.(*types.TypeParam); ok {
		return 64
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	case types.Int, types.Int64, types.Uint, types.Uint64, types.Uintptr:
		return 64
	}
	return 0
}
