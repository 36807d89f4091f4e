package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ValueRange proves overflow- and bounds-safety of the declared-critical
// integer arithmetic: the Frame-scaled cost products of the admission
// budget rule, the Eq 1-3 schedulability terms, and the shift/mask
// widths of the datapath kernels. Input contracts are declared at
// config structs with //ssvc:range annotations (grammar at MarkRange in
// interval.go); the interval engine then propagates those ranges
// through assignments, arithmetic, comparison-edge refinements, loops
// (with widening/narrowing), and static calls (return summaries), and
// the analyzer reports every operation on a flagged path whose exact
// result cannot be shown to fit its machine type. DESIGN.md invariant 9
// documents the rule.
//
// Four checks:
//
//  1. Possibly-wrapping arithmetic: +, -, *, << (and their assignment
//     and ++/-- forms) with at least one declared-range operand whose
//     exact result interval escapes the expression's type. A left
//     shift whose count may be negative is skipped — that path panics
//     at runtime rather than wrapping silently, and countersafety's
//     over-shift rule covers constant counts.
//  2. Narrowing conversion: an integer-to-integer conversion whose
//     declared-range source does not provably fit the destination.
//  3. Unchecked float-to-integer conversion: non-constant, and the Go
//     spec leaves out-of-range conversions platform-dependent, so every
//     one must live inside a //ssvc:barrier clamp (noc.ClampUint64) —
//     the enforced generalization of the PR 8 NaN/Inf fix.
//  4. Declared-range stores: writing a value to an annotated field is
//     flagged only when the value's interval is provably disjoint from
//     the declaration (lenient by design: config constructors narrow
//     trusted values into annotated fields, and the barriers validate
//     at runtime; a provably-disjoint store is a contract violation no
//     runtime check will save).
func ValueRange(l *Loader, packages []string) ([]Diagnostic, error) {
	var pkgs []*Package
	for _, rel := range packages {
		pkg, err := l.Load(l.Module + "/" + rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	cg := buildCallGraph(l)
	return valueRangeWithCG(l, cg, pkgs)
}

// valueRangeWithCG is the core shared with the parallel RunAll driver,
// which builds one call graph for every interprocedural analyzer.
func valueRangeWithCG(l *Loader, cg *callGraph, pkgs []*Package) ([]Diagnostic, error) {
	cx, diags := newIvCtx(l, cg)
	vc := &vrChecker{cx: cx, l: l}
	for _, pkg := range pkgs {
		vc.pkg = pkg
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					barrier := cx.barriers[declFunc(pkg, d)]
					vc.checkBody(d.Body, barrier)
					for _, lit := range nestedFuncLits(d.Body) {
						vc.checkBody(lit.Body, barrier)
					}
				default:
					ast.Inspect(decl, func(n ast.Node) bool {
						if lit, ok := n.(*ast.FuncLit); ok {
							vc.checkBody(lit.Body, false)
							return false
						}
						return true
					})
				}
			}
		}
	}
	diags = append(diags, vc.diags...)
	SortDiagnostics(diags)
	return diags, nil
}

// nestedFuncLits returns the function literals directly or transitively
// inside body. Each is analyzed as its own flow with an empty
// environment (it may run at any time), but it inherits the enclosing
// declaration's barrier exemption — a clamp helper's deferred cleanup
// is still inside the clamp.
func nestedFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	return lits
}

type vrChecker struct {
	cx      *ivCtx
	l       *Loader
	pkg     *Package
	barrier bool
	diags   []Diagnostic
}

func (vc *vrChecker) report(pos token.Pos, format string, args ...any) {
	file, line := vc.l.Rel(pos)
	vc.diags = append(vc.diags, Diagnostic{
		File: file, Line: line, Analyzer: "valuerange",
		Message: fmt.Sprintf(format, args...),
	})
}

// checkBody runs the interval fixpoint over one function body, then
// replays each reachable block deterministically, checking every
// expression against the intervals in force just before it executes
// (the same check-then-kill replay unguardedSubs uses).
func (vc *vrChecker) checkBody(body *ast.BlockStmt, barrier bool) {
	vc.barrier = barrier
	g, in := vc.cx.flowBody(vc.pkg, body)
	for _, blk := range g.blocks {
		env := in[blk.index]
		if env == nil {
			continue // unreachable
		}
		env = cloneIvEnv(env)
		for _, n := range blk.nodes {
			walkNode(n, func(m ast.Node) {
				vc.checkNode(env, m)
			})
			vc.cx.applyNode(vc.pkg, env, n)
		}
	}
}

func (vc *vrChecker) checkNode(env ivEnv, m ast.Node) {
	switch m := m.(type) {
	case *ast.BinaryExpr:
		switch m.Op {
		case token.ADD, token.SUB, token.MUL, token.SHL:
			if constVal(vc.pkg, m) != nil {
				return // constant expressions are the compiler's job
			}
			vc.checkArith(m.Pos(), env, m.Op, exprType(vc.pkg, m), m.X, m.Y)
		}
	case *ast.AssignStmt:
		if op, ok := assignOp(m.Tok); ok {
			vc.checkArith(m.Pos(), env, op, exprType(vc.pkg, m.Lhs[0]), m.Lhs[0], m.Rhs[0])
			return
		}
		if (m.Tok == token.ASSIGN || m.Tok == token.DEFINE) && len(m.Lhs) == len(m.Rhs) {
			for i, lhs := range m.Lhs {
				vc.checkFieldStore(env, lhs, m.Rhs[i])
			}
		}
	case *ast.IncDecStmt:
		t := exprType(vc.pkg, m.X)
		x, ok := vc.cx.eval(vc.pkg, env, m.X)
		if !ok || !x.declared {
			return
		}
		tb, okT := typeIval(t)
		if !okT {
			return
		}
		one := mkIval(1, 1)
		exact := ivAdd(x, one)
		if m.Tok == token.DEC {
			exact = ivSub(x, one)
		}
		if !tb.contains(exact) {
			vc.report(m.Pos(), "%s on declared range %s may wrap outside %s",
				m.Tok, x, t)
		}
	case *ast.CallExpr:
		vc.checkConversion(env, m)
	case *ast.CompositeLit:
		vc.checkCompositeLit(env, m)
	}
}

// checkArith applies check 1 to one arithmetic site.
func (vc *vrChecker) checkArith(pos token.Pos, env ivEnv, op token.Token, t types.Type, xe, ye ast.Expr) {
	if t == nil || !isInteger(t) {
		return
	}
	tb, okT := typeIval(t)
	if !okT {
		return
	}
	x, okX := vc.cx.eval(vc.pkg, env, xe)
	y, okY := vc.cx.eval(vc.pkg, env, ye)
	if !okX || !okY || !(x.declared || y.declared) {
		return
	}
	var exact ival
	switch op {
	case token.ADD:
		exact = ivAdd(x, y)
	case token.SUB:
		exact = ivSub(x, y)
	case token.MUL:
		exact = ivMul(x, y)
	case token.SHL:
		if y.lo.Sign() < 0 {
			return // possibly-negative count panics instead of wrapping
		}
		exact = ivShl(x, y)
	default:
		return
	}
	if tb.contains(exact) {
		return
	}
	vc.report(pos, "declared-range arithmetic %s %s %s gives %s, which may exceed %s (operands %s, %s); tighten the //ssvc:range bounds, add a dominating guard, or use the saturating noc helpers",
		types.ExprString(xe), op, types.ExprString(ye), exact, t, x, y)
}

// checkConversion applies checks 2 and 3 to a conversion expression.
func (vc *vrChecker) checkConversion(env ivEnv, call *ast.CallExpr) {
	tv, ok := vc.pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	dst := exprType(vc.pkg, call)
	tb, okT := typeIval(dst)
	if !okT {
		return // destination is not integer
	}
	arg := call.Args[0]
	if atv, ok := vc.pkg.Info.Types[arg]; ok && atv.Value != nil {
		return // constant conversions are checked by the compiler
	}
	srcT := exprType(vc.pkg, arg)
	if srcT == nil {
		return
	}
	if b, ok := srcT.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
		if !vc.barrier {
			vc.report(call.Pos(), "unchecked %s conversion of a float: out-of-range values (including NaN and Inf) convert platform-dependently; clamp through a //ssvc:barrier helper such as noc.ClampUint64",
				dst)
		}
		return
	}
	if !isInteger(srcT) {
		return
	}
	x, ok := vc.cx.eval(vc.pkg, env, arg)
	if !ok || !x.declared {
		return
	}
	if !tb.contains(x) {
		vc.report(call.Pos(), "narrowing conversion %s(%s): declared range %s does not fit in %s",
			dst, types.ExprString(arg), x, dst)
	}
}

// checkFieldStore applies check 4 to a plain assignment whose target is
// an annotated struct field.
func (vc *vrChecker) checkFieldStore(env ivEnv, lhs, rhs ast.Expr) {
	sel, ok := unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fv := fieldVarOf(vc.pkg.Info, sel)
	if fv == nil {
		return
	}
	decl, ok := vc.cx.ranges[fv]
	if !ok {
		return
	}
	v, ok := vc.cx.eval(vc.pkg, env, rhs)
	if !ok {
		return
	}
	if ivMeet(v, decl).isBottom() {
		vc.report(lhs.Pos(), "store to %s is provably outside its declared range: value %s vs %s %s",
			types.ExprString(lhs), v, MarkRange, decl)
	}
}

// checkCompositeLit applies check 4 to annotated fields of a struct
// literal, keyed or positional.
func (vc *vrChecker) checkCompositeLit(env ivEnv, cl *ast.CompositeLit) {
	t := exprType(vc.pkg, cl)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	check := func(fv *types.Var, val ast.Expr) {
		decl, ok := vc.cx.ranges[fv]
		if !ok {
			return
		}
		v, ok := vc.cx.eval(vc.pkg, env, val)
		if !ok {
			return
		}
		if ivMeet(v, decl).isBottom() {
			vc.report(val.Pos(), "literal for field %s is provably outside its declared range: value %s vs %s %s",
				fv.Name(), v, MarkRange, decl)
		}
	}
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if fv, ok := vc.pkg.Info.Uses[key].(*types.Var); ok {
				check(fv, kv.Value)
			}
			continue
		}
		if i < st.NumFields() {
			check(st.Field(i), elt)
		}
	}
}
