package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math/big"
	"testing"
)

// The interval engine's transfer functions are exact arithmetic over
// ℤ; these tests pin the lattice operations, the widening/narrowing
// pair, and every corner rule the valuerange analyzer's soundness
// rests on. All cases are closed-form — a wrong bound here is a wrong
// proof over the real tree.

func decl(v ival) ival {
	v.declared = true
	return v
}

func wantIval(t *testing.T, name string, got, want ival) {
	t.Helper()
	if !got.eq(want) {
		t.Fatalf("%s = %v (declared=%v), want %v (declared=%v)",
			name, got, got.declared, want, want.declared)
	}
}

func TestIvalLattice(t *testing.T) {
	a := mkIval(1, 5)
	b := mkIval(3, 9)
	wantIval(t, "join", ivJoin(a, b), mkIval(1, 9))
	wantIval(t, "meet", ivMeet(a, b), mkIval(3, 5))

	// Disjoint meet is bottom.
	if m := ivMeet(mkIval(0, 2), mkIval(5, 9)); !m.isBottom() {
		t.Fatalf("disjoint meet = %v, want bottom", m)
	}

	// Bottom is the join identity and is contained in everything.
	bot := mkIval(4, 1)
	if !bot.isBottom() {
		t.Fatalf("mkIval(4,1).isBottom() = false")
	}
	wantIval(t, "join with bottom", ivJoin(bot, a), a)
	wantIval(t, "join onto bottom", ivJoin(a, bot), a)
	if !a.contains(bot) {
		t.Fatalf("interval does not contain bottom")
	}
	if !a.contains(mkIval(2, 4)) || a.contains(mkIval(0, 4)) {
		t.Fatalf("contains: subset/superset misjudged")
	}

	// The declared flag survives joins and meets through either side,
	// including the bottom shortcut paths.
	if !ivJoin(decl(a), b).declared || !ivJoin(a, decl(b)).declared {
		t.Fatalf("join dropped declared flag")
	}
	if !ivMeet(a, decl(b)).declared {
		t.Fatalf("meet dropped declared flag")
	}
	if !ivJoin(decl(bot), b).declared {
		t.Fatalf("join with declared bottom dropped the flag")
	}
}

func TestIvalWidenNarrow(t *testing.T) {
	bound := mkIval(0, 255)
	prev := mkIval(0, 10)

	// A bound that moved jumps to the type bound; a stable bound stays.
	wantIval(t, "widen hi", ivWiden(prev, mkIval(0, 11), bound), mkIval(0, 255))
	wantIval(t, "widen lo", ivWiden(mkIval(5, 10), mkIval(4, 10), bound), mkIval(0, 10))
	wantIval(t, "widen stable", ivWiden(prev, prev, bound), prev)
	if !ivWiden(prev, decl(mkIval(0, 11)), bound).declared {
		t.Fatalf("widen dropped declared flag")
	}

	// Narrowing is the meet of the widened invariant and the
	// recomputed value: it recovers the exit-condition bound.
	wantIval(t, "narrow", ivNarrow(mkIval(0, 255), mkIval(0, 16)), mkIval(0, 16))
}

func TestTypeIval(t *testing.T) {
	cases := []struct {
		kind   types.BasicKind
		lo, hi string
	}{
		{types.Uint8, "0", "255"},
		{types.Uint16, "0", "65535"},
		{types.Uint32, "0", "4294967295"},
		{types.Uint64, "0", "18446744073709551615"},
		{types.Uint, "0", "18446744073709551615"},
		{types.Int8, "-128", "127"},
		{types.Int16, "-32768", "32767"},
		{types.Int32, "-2147483648", "2147483647"},
		{types.Int64, "-9223372036854775808", "9223372036854775807"},
		{types.Int, "-9223372036854775808", "9223372036854775807"},
	}
	for _, c := range cases {
		v, ok := typeIval(types.Typ[c.kind])
		if !ok {
			t.Fatalf("typeIval(%v) not ok", types.Typ[c.kind])
		}
		if v.lo.String() != c.lo || v.hi.String() != c.hi {
			t.Fatalf("typeIval(%v) = %v, want [%s, %s]", types.Typ[c.kind], v, c.lo, c.hi)
		}
	}
	if _, ok := typeIval(types.Typ[types.Float64]); ok {
		t.Fatalf("typeIval accepted float64")
	}
	if _, ok := typeIval(types.Typ[types.String]); ok {
		t.Fatalf("typeIval accepted string")
	}
}

func TestIvalArith(t *testing.T) {
	wantIval(t, "add", ivAdd(mkIval(1, 5), mkIval(10, 20)), mkIval(11, 25))
	wantIval(t, "sub", ivSub(mkIval(1, 5), mkIval(10, 20)), mkIval(-19, -5))
	wantIval(t, "neg", ivNeg(mkIval(-3, 7)), mkIval(-7, 3))

	// Multiplication takes the extreme of all four corner products:
	// [-2,3] * [-5,7] has corners 10, -14, -15, 21.
	wantIval(t, "mul signed", ivMul(mkIval(-2, 3), mkIval(-5, 7)), mkIval(-15, 21))
	wantIval(t, "mul unsigned", ivMul(mkIval(2, 4), mkIval(3, 5)), mkIval(6, 20))
	if !ivMul(decl(mkIval(1, 2)), mkIval(1, 2)).declared {
		t.Fatalf("mul dropped declared flag")
	}
}

func TestIvalQuo(t *testing.T) {
	// Straightforward positive division.
	q, ok := ivQuo(mkIval(10, 100), mkIval(2, 5))
	if !ok {
		t.Fatalf("quo not ok")
	}
	wantIval(t, "quo", q, mkIval(2, 50))

	// A divisor range straddling zero must include the ±1 corners —
	// the extreme quotients — while excluding zero itself.
	q, ok = ivQuo(mkIval(10, 100), mkIval(-3, 3))
	if !ok {
		t.Fatalf("straddling quo not ok")
	}
	wantIval(t, "quo straddle", q, mkIval(-100, 100))

	// A divisor that is exactly zero on every path panics at runtime;
	// the transfer function reports no result.
	if _, ok := ivQuo(mkIval(1, 10), mkIval(0, 0)); ok {
		t.Fatalf("division by the zero singleton reported a result")
	}
}

func TestIvalRem(t *testing.T) {
	// |x % y| < max(|y.lo|, |y.hi|) and the result follows x's sign.
	r, ok := ivRem(mkIval(0, 1000), mkIval(1, 7))
	if !ok {
		t.Fatalf("rem not ok")
	}
	wantIval(t, "rem", r, mkIval(0, 6))

	r, _ = ivRem(mkIval(-1000, -1), mkIval(3, 10))
	wantIval(t, "rem negative", r, mkIval(-9, 0))

	// The dividend's own range clamps the bound when tighter.
	r, _ = ivRem(mkIval(0, 3), mkIval(1, 100))
	wantIval(t, "rem clamped", r, mkIval(0, 3))

	if _, ok := ivRem(mkIval(1, 10), mkIval(0, 0)); ok {
		t.Fatalf("remainder by the zero singleton reported a result")
	}
}

func TestShiftClamp(t *testing.T) {
	if got := clampShiftAmount(big.NewInt(-4)); got != 0 {
		t.Fatalf("clampShiftAmount(-4) = %d, want 0", got)
	}
	if got := clampShiftAmount(big.NewInt(63)); got != 63 {
		t.Fatalf("clampShiftAmount(63) = %d, want 63", got)
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 100)
	if got := clampShiftAmount(huge); got != shiftCap {
		t.Fatalf("clampShiftAmount(2^100) = %d, want %d", got, shiftCap)
	}

	wantIval(t, "shl", ivShl(mkIval(1, 1), mkIval(0, 6)), mkIval(1, 64))
	wantIval(t, "shr", ivShr(mkIval(16, 64), mkIval(2, 2)), mkIval(4, 16))

	// A hostile declared count caps at shiftCap rather than making
	// big.Int allocate a gigabit number; the result still compares as
	// overflow against any machine type.
	wide := ivShl(mkIval(1, 1), mkIval(0, 1<<40))
	capBound := new(big.Int).Lsh(big.NewInt(1), shiftCap)
	if wide.hi.Cmp(capBound) != 0 {
		t.Fatalf("capped shl hi = %v, want 2^%d", wide.hi, shiftCap)
	}
}

func TestIvalBitOps(t *testing.T) {
	a, b := mkIval(0, 100), mkIval(0, 37)

	and, ok := ivBitOp(token.AND, a, b)
	if !ok {
		t.Fatalf("AND not ok")
	}
	wantIval(t, "and", and, mkIval(0, 37))

	andNot, _ := ivBitOp(token.AND_NOT, a, b)
	wantIval(t, "and-not", andNot, mkIval(0, 100))

	// OR and XOR cannot reach the next power of two above both
	// operands: max hi is 100, BitLen 7, so the bound is 127.
	or, _ := ivBitOp(token.OR, a, b)
	wantIval(t, "or", or, mkIval(0, 127))
	xor, _ := ivBitOp(token.XOR, a, b)
	wantIval(t, "xor", xor, mkIval(0, 127))

	// Negative operands fall back to the type range.
	if _, ok := ivBitOp(token.AND, mkIval(-1, 5), b); ok {
		t.Fatalf("AND accepted a possibly-negative operand")
	}
	if !mustBitOp(t, token.OR, decl(a), b).declared {
		t.Fatalf("bit op dropped declared flag")
	}
}

func mustBitOp(t *testing.T, op token.Token, a, b ival) ival {
	t.Helper()
	v, ok := ivBitOp(op, a, b)
	if !ok {
		t.Fatalf("ivBitOp(%v) not ok", op)
	}
	return v
}

func TestRefineLeft(t *testing.T) {
	x := mkIval(0, 100)
	y := mkIval(10, 20)

	wantIval(t, "x < y", refineLeft(token.LSS, x, y), mkIval(0, 19))
	wantIval(t, "x <= y", refineLeft(token.LEQ, x, y), mkIval(0, 20))
	wantIval(t, "x > y", refineLeft(token.GTR, x, y), mkIval(11, 100))
	wantIval(t, "x >= y", refineLeft(token.GEQ, x, y), mkIval(10, 100))
	wantIval(t, "x == y", refineLeft(token.EQL, x, y), mkIval(10, 20))

	// Disequality only trims singleton endpoints.
	wantIval(t, "x != 0", refineLeft(token.NEQ, x, mkIval(0, 0)), mkIval(1, 100))
	wantIval(t, "x != 100", refineLeft(token.NEQ, x, mkIval(100, 100)), mkIval(0, 99))
	wantIval(t, "x != interior", refineLeft(token.NEQ, x, mkIval(50, 50)), x)
	wantIval(t, "x != range", refineLeft(token.NEQ, x, y), x)

	// An impossible comparison refines to bottom: the path is dead.
	if r := refineLeft(token.GTR, mkIval(0, 5), mkIval(10, 10)); !r.isBottom() {
		t.Fatalf("impossible refinement = %v, want bottom", r)
	}

	// Refinement never widens.
	if r := refineLeft(token.LEQ, mkIval(0, 5), mkIval(0, 1000)); !mkIval(0, 5).contains(r) {
		t.Fatalf("refinement widened: %v", r)
	}
}

func TestCmpHelpers(t *testing.T) {
	negate := map[token.Token]token.Token{
		token.LSS: token.GEQ, token.GEQ: token.LSS,
		token.LEQ: token.GTR, token.GTR: token.LEQ,
		token.EQL: token.NEQ, token.NEQ: token.EQL,
	}
	for op, want := range negate {
		if got := negateCmp(op); got != want {
			t.Fatalf("negateCmp(%v) = %v, want %v", op, got, want)
		}
	}
	flip := map[token.Token]token.Token{
		token.LSS: token.GTR, token.GTR: token.LSS,
		token.LEQ: token.GEQ, token.GEQ: token.LEQ,
		token.EQL: token.EQL, token.NEQ: token.NEQ,
	}
	for op, want := range flip {
		if got := flipCmp(op); got != want {
			t.Fatalf("flipCmp(%v) = %v, want %v", op, got, want)
		}
	}
}

// diffSrc is the snippet the difference-entry tests run on: diffExpr
// picks a comparison or subtraction out of f's body, and its last two
// statements are the kills. uint8 keeps the bounds short.
const diffSrc = `package p

func f(a, b uint8) {
	_ = a < b
	_ = b >= a
	_ = a > b
	_ = a - b
	a = 3
	b = 3
}
`

// snippet type-checks one import-free Go file and returns it as a
// Package together with the body of its function f.
func snippet(t *testing.T, src string) (*Package, *ast.BlockStmt) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tp, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return &Package{ImportPath: "p", Files: []*ast.File{f}, Types: tp, Info: info}, fd.Body
		}
	}
	t.Fatal("snippet has no func f")
	return nil, nil
}

// diffExpr returns the right-hand side of the `_ = expr` statement i.
func diffExpr(body *ast.BlockStmt, i int) ast.Expr {
	return body.List[i].(*ast.AssignStmt).Rhs[0]
}

// wantDiff checks the exact difference x − y the environment proves.
func wantDiff(t *testing.T, name string, pkg *Package, env ivEnv, x, y ast.Expr, want ival) {
	t.Helper()
	full := mkIval(0, 255)
	wantIval(t, name, exactSub(pkg, env, x, y, full, full), want)
}

func TestDiffEntryEdges(t *testing.T) {
	pkg, body := snippet(t, diffSrc)
	cx := &ivCtx{}
	lt := diffExpr(body, 0).(*ast.BinaryExpr) // a < b
	ge := diffExpr(body, 1)                   // b >= a
	a, b := lt.X, lt.Y
	for _, c := range []struct {
		name   string
		cond   ast.Expr
		branch bool
		ab     ival // bounds of a − b on the edge
	}{
		{"a < b", lt, true, mkIval(-255, -1)},
		{"!(a < b)", lt, false, mkIval(0, 255)},
		{"b >= a", ge, true, mkIval(-255, 0)},
		{"!(b >= a)", ge, false, mkIval(1, 255)},
	} {
		env := ivEnv{}
		cx.refineEdge(pkg, env, c.cond, c.branch)
		wantDiff(t, c.name+": a - b", pkg, env, a, b, c.ab)
		wantDiff(t, c.name+": b - a", pkg, env, b, a, ivNeg(c.ab))
		if _, ok := env["a - b"]; ok {
			t.Fatalf("%s: difference stored under the expression key", c.name)
		}
	}

	// Both spellings of one guard share the pair's entry.
	env := ivEnv{}
	cx.refineEdge(pkg, env, lt, true)
	cx.refineEdge(pkg, env, ge, true)
	n := 0
	for _, e := range env {
		if e.diff {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("a < b and b >= a left %d diff entries, want 1", n)
	}
}

func TestDiffEntryJoin(t *testing.T) {
	pkg, body := snippet(t, diffSrc)
	cx := &ivCtx{}
	lt, gt := diffExpr(body, 0), diffExpr(body, 2) // a < b, a > b
	a, b := lt.(*ast.BinaryExpr).X, lt.(*ast.BinaryExpr).Y

	guarded := ivEnv{}
	cx.refineEdge(pkg, guarded, lt, true)
	for _, j := range []ivEnv{joinIvEnv(guarded, ivEnv{}), joinIvEnv(ivEnv{}, guarded)} {
		for k, e := range j {
			if e.diff {
				t.Fatalf("one-sided diff entry %q survived the join", k)
			}
		}
		wantDiff(t, "one-sided join", pkg, j, a, b, mkIval(-255, 255))
	}

	other := ivEnv{}
	cx.refineEdge(pkg, other, gt, true)
	wantDiff(t, "two-sided join", pkg, joinIvEnv(guarded, other), a, b, mkIval(-255, 255))
	wantDiff(t, "two-sided join of one guard", pkg, joinIvEnv(guarded, cloneIvEnv(guarded)), a, b, mkIval(-255, -1))
}

func TestDiffEntryKill(t *testing.T) {
	pkg, body := snippet(t, diffSrc)
	cx := &ivCtx{}
	lt := diffExpr(body, 0).(*ast.BinaryExpr) // a < b
	for _, i := range []int{4, 5} {           // a = 3, b = 3
		env := ivEnv{}
		cx.refineEdge(pkg, env, lt, true)
		cx.applyNode(pkg, env, body.List[i])
		for k, e := range env {
			if e.diff {
				t.Fatalf("%s left diff entry %q", types.ExprString(body.List[i].(*ast.AssignStmt).Lhs[0]), k)
			}
		}
	}
}

func TestEvalSubMeetsDiff(t *testing.T) {
	pkg, body := snippet(t, diffSrc)
	cx := &ivCtx{}
	sub := diffExpr(body, 3) // a - b
	env := ivEnv{}
	got, _ := cx.eval(pkg, env, sub)
	wantIval(t, "a - b unguarded", got, mkIval(0, 255))
	cx.refineEdge(pkg, env, diffExpr(body, 2), true) // a > b
	got, _ = cx.eval(pkg, env, sub)
	wantIval(t, "a - b under a > b", got, mkIval(1, 255))
}

func TestAssignOp(t *testing.T) {
	for tok, want := range map[token.Token]token.Token{
		token.ADD_ASSIGN: token.ADD, token.SUB_ASSIGN: token.SUB,
		token.MUL_ASSIGN: token.MUL, token.QUO_ASSIGN: token.QUO,
		token.REM_ASSIGN: token.REM, token.AND_ASSIGN: token.AND,
		token.OR_ASSIGN: token.OR, token.XOR_ASSIGN: token.XOR,
		token.SHL_ASSIGN: token.SHL, token.SHR_ASSIGN: token.SHR,
		token.AND_NOT_ASSIGN: token.AND_NOT,
	} {
		if got, ok := assignOp(tok); !ok || got != want {
			t.Fatalf("assignOp(%v) = %v, %v; want %v", tok, got, ok, want)
		}
	}
	for _, tok := range []token.Token{token.ASSIGN, token.DEFINE, token.INC, token.ADD} {
		if _, ok := assignOp(tok); ok {
			t.Fatalf("assignOp(%v) accepted a non-compound token", tok)
		}
	}
}
