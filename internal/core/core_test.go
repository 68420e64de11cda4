package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/pattern"
)

func q1() *pattern.Pattern { return pattern.SingleEdge("person", "create", "product") }

func phi1() *GFD {
	return New(q1(), []Literal{Const(1, "type", "film")}, Const(0, "type", "producer"))
}

func TestLiteralBasics(t *testing.T) {
	c := Const(0, "type", "film")
	if c.String() != `x0.type="film"` {
		t.Fatalf("String = %q", c.String())
	}
	v := Vars(1, "name", 2, "name")
	if v.String() != "x1.name=x2.name" {
		t.Fatalf("String = %q", v.String())
	}
	if False().String() != "false" {
		t.Fatal("false literal rendering")
	}
	// LVar symmetry.
	if !Vars(2, "name", 1, "name").Equal(v) {
		t.Fatal("symmetric LVar literals must be Equal")
	}
	if Vars(1, "name", 2, "addr").Equal(v) {
		t.Fatal("different attributes must not be Equal")
	}
	// Remap.
	f := []int{2, 0, 1}
	r := v.Remap(f)
	if r.X != 0 || r.Y != 1 {
		t.Fatalf("Remap = %v", r)
	}
	if c2 := c.Remap(f); c2.X != 2 {
		t.Fatalf("Remap const = %v", c2)
	}
	if fl := False().Remap(f); fl.Kind != LFalse {
		t.Fatal("Remap must keep false")
	}
}

func TestGFDBasics(t *testing.T) {
	g := phi1()
	if g.IsNegative() {
		t.Fatal("phi1 is positive")
	}
	if g.K() != 2 || g.Size() != 1 {
		t.Fatalf("K=%d Size=%d", g.K(), g.Size())
	}
	if !strings.Contains(g.String(), "→") {
		t.Fatalf("String = %q", g.String())
	}
	neg := New(q1(), nil, False())
	if !neg.IsNegative() {
		t.Fatal("negative GFD not recognised")
	}
	if !strings.Contains(neg.String(), "∅") {
		t.Fatalf("empty X should render as ∅: %q", neg.String())
	}
}

func TestKeyDedup(t *testing.T) {
	a := New(q1(), []Literal{Const(1, "type", "film"), Const(0, "name", "x")}, Const(0, "type", "producer"))
	b := New(q1(), []Literal{Const(0, "name", "x"), Const(1, "type", "film")}, Const(0, "type", "producer"))
	if a.Key() != b.Key() {
		t.Fatal("literal order must not affect Key")
	}
	c := New(q1(), []Literal{Const(1, "type", "film")}, Const(0, "type", "producer"))
	if a.Key() == c.Key() {
		t.Fatal("different X must give different Keys")
	}
}

// fmtLiteral and fmtKey are String and Key as rendered through fmt
// before both moved to strconv, which must stay byte-identical: output
// digests hash Key, and gfddiscover prints String.
func fmtLiteral(l Literal) string {
	switch l.Kind {
	case LConst:
		return fmt.Sprintf("x%d.%s=%q", l.X, l.A, l.C)
	case LVar:
		return fmt.Sprintf("x%d.%s=x%d.%s", l.X, l.A, l.Y, l.B)
	default:
		return "false"
	}
}

func fmtKey(g *GFD) string {
	xs := make([]string, len(g.X))
	for i, l := range g.X {
		xs[i] = fmtLiteral(l.normalised())
	}
	sort.Strings(xs)
	return g.Q.CanonicalCode() + "#" + strings.Join(xs, "&") + "=>" + fmtLiteral(g.RHS.normalised())
}

func TestKeyMatchesFmt(t *testing.T) {
	consts := []string{"", "film", `say "hi"`, `back\slash`, "naïve 東京", "tab\tnew\nline\x00\x7f", "\xff\xfe", "🎬"}
	lits := []Literal{False(), Vars(0, "name", 1, "name"), Vars(1, "name", 0, "name"), Vars(2, "a", 2, "b"), Vars(2, "b", 2, "a"), Vars(12, "a", 3, "a")}
	for i, c := range consts {
		lits = append(lits, Const(i%3, "type", c), Const(10+i, "weird \"attr\"", c))
	}
	for _, l := range lits {
		if got, want := l.String(), fmtLiteral(l); got != want {
			t.Fatalf("String = %s, fmt renders %s", got, want)
		}
	}
	for i, rhs := range lits {
		for n := 0; n <= 3; n++ {
			x := make([]Literal, n)
			for j := range x {
				x[j] = lits[(i*7+j*5+n)%len(lits)]
			}
			g := New(q1(), x, rhs)
			if got, want := g.Key(), fmtKey(g); got != want {
				t.Fatalf("Key = %s, fmt renders %s", got, want)
			}
		}
	}
}

func TestLiteralSetHelpers(t *testing.T) {
	x := []Literal{Const(0, "a", "1"), Vars(0, "b", 1, "c")}
	if !ContainsLiteral(x, Vars(1, "c", 0, "b")) {
		t.Fatal("ContainsLiteral must respect LVar symmetry")
	}
	if ContainsLiteral(x, Const(0, "a", "2")) {
		t.Fatal("ContainsLiteral false positive")
	}
}

func TestTrivial(t *testing.T) {
	// X unsatisfiable: x0.a=1 ∧ x0.a=2.
	g := New(q1(), []Literal{Const(0, "a", "1"), Const(0, "a", "2")}, Const(1, "b", "3"))
	if !g.Trivial() {
		t.Fatal("conflicting X must be trivial")
	}
	// RHS follows by transitivity: x0.a=x1.b ∧ x1.b=c ⊨ x0.a=c.
	g2 := New(q1(), []Literal{Vars(0, "a", 1, "b"), Const(1, "b", "c")}, Const(0, "a", "c"))
	if !g2.Trivial() {
		t.Fatal("transitively implied RHS must be trivial")
	}
	// RHS equal-constant chain: x0.a=c ∧ x1.b=c ⊨ x0.a=x1.b.
	g3 := New(q1(), []Literal{Const(0, "a", "c"), Const(1, "b", "c")}, Vars(0, "a", 1, "b"))
	if !g3.Trivial() {
		t.Fatal("equal constants entail variable equality")
	}
	if phi1().Trivial() {
		t.Fatal("phi1 is nontrivial")
	}
	// Negative GFD with satisfiable X is nontrivial.
	neg := New(q1(), []Literal{Const(0, "a", "1")}, False())
	if neg.Trivial() {
		t.Fatal("negative GFD with satisfiable X is not trivial")
	}
	// Negative GFD with unsatisfiable X is trivial.
	negBad := New(q1(), []Literal{Const(0, "a", "1"), Const(0, "a", "2")}, False())
	if !negBad.Trivial() {
		t.Fatal("negative GFD with unsatisfiable X is trivial")
	}
}

func TestReducesGFD(t *testing.T) {
	// φ with smaller X reduces φ with larger X on the same pattern.
	small := New(q1(), nil, Const(0, "type", "producer"))
	big := New(q1(), []Literal{Const(1, "type", "film")}, Const(0, "type", "producer"))
	if !Reduces(small, big) {
		t.Fatal("∅→l must reduce {film}→l")
	}
	if Reduces(big, small) {
		t.Fatal("reduction must be antisymmetric here")
	}
	// Same GFD does not reduce itself.
	if Reduces(big, phi1()) {
		t.Fatal("identical GFDs must not strictly reduce")
	}
	// Pattern reduction: single person node vs Q1 (pivot preserved).
	node := New(pattern.SingleNode("person"), nil, Const(0, "type", "producer"))
	whole := New(q1(), nil, Const(0, "type", "producer"))
	if !Reduces(node, whole) {
		t.Fatal("single-node pattern must reduce the single-edge one")
	}
	// Wildcard label upgrade is strict.
	gen := New(pattern.SingleEdge("person", "create", pattern.Wildcard), nil, Const(0, "type", "producer"))
	if !Reduces(gen, whole) {
		t.Fatal("wildcard pattern must reduce concrete pattern")
	}
	// RHS must correspond.
	other := New(q1(), []Literal{Const(1, "type", "film")}, Const(0, "type", "director"))
	if Reduces(small, other) {
		t.Fatal("different RHS must block reduction")
	}
	// Negative RHS only reduces negative RHS.
	negSmall := New(q1(), []Literal{Const(0, "a", "1")}, False())
	posBig := New(q1(), []Literal{Const(0, "a", "1"), Const(0, "b", "2")}, Const(1, "c", "3"))
	if Reduces(negSmall, posBig) {
		t.Fatal("negative must not reduce positive")
	}
	negBig := New(q1(), []Literal{Const(0, "a", "1"), Const(0, "b", "2")}, False())
	if !Reduces(negSmall, negBig) {
		t.Fatal("negative with smaller X must reduce negative with larger X")
	}
}

// closureOf chases x with no rules over x's own terms.
func closureOf(x ...Literal) *Closure { return ComputeClosure(nil, nil, x) }

func TestClosureTransitivity(t *testing.T) {
	x := []Literal{Vars(0, "a", 1, "b"), Vars(1, "b", 2, "c")}
	cl := closureOf(x...)
	if !cl.Holds(Vars(0, "a", 2, "c")) {
		t.Fatal("transitivity of equality broken")
	}
	x = append(x, Const(0, "a", "v"))
	cl = closureOf(x...)
	if !cl.Holds(Const(2, "c", "v")) {
		t.Fatal("constant propagation through classes broken")
	}
	if cl.Conflicting() {
		t.Fatal("no conflict expected")
	}
	x = append(x, Const(1, "b", "w"))
	cl = closureOf(x...)
	if !cl.Conflicting() {
		t.Fatal("conflicting constants must be detected")
	}
	if !cl.Holds(Const(0, "zzz", "anything")) {
		t.Fatal("a conflicting closure entails everything")
	}
}

func TestClosureUnknownTerms(t *testing.T) {
	x := []Literal{Const(0, "a", "v")}
	cl := closureOf(x...)
	if cl.Holds(Const(1, "b", "v")) {
		t.Fatal("unasserted term must not hold")
	}
	if cl.Holds(Vars(0, "a", 1, "b")) {
		t.Fatal("equality with unknown term must not hold")
	}
	if cl.Holds(False()) {
		t.Fatal("false must not hold in a consistent closure")
	}
	// Equal constants entail equality.
	x = append(x, Const(1, "b", "v"))
	cl = closureOf(x...)
	if !cl.Holds(Vars(0, "a", 1, "b")) {
		t.Fatal("equal constants entail term equality")
	}
}

func TestImplication(t *testing.T) {
	// Σ = {Q1: ∅ → x0.type=producer}; φ = Q1: {x1.type=film} → x0.type=producer.
	base := New(q1(), nil, Const(0, "type", "producer"))
	phi := phi1()
	if !Implies([]*GFD{base}, phi) {
		t.Fatal("weaker premises must imply stronger-premise GFD")
	}
	// The converse fails.
	if Implies([]*GFD{phi}, base) {
		t.Fatal("implication direction wrong")
	}
	// Transitive chain through two GFDs.
	a := New(q1(), nil, Const(0, "t", "1"))
	b := New(q1(), []Literal{Const(0, "t", "1")}, Const(1, "u", "2"))
	goal := New(q1(), nil, Const(1, "u", "2"))
	if !Implies([]*GFD{a, b}, goal) {
		t.Fatal("chained implication failed")
	}
	// Implication via sub-pattern embedding: single-node rule lifts to Q1.
	nodeRule := New(pattern.SingleNode("person"), nil, Const(0, "kind", "human"))
	lifted := New(q1(), nil, Const(0, "kind", "human"))
	if !Implies([]*GFD{nodeRule}, lifted) {
		t.Fatal("embedded sub-pattern rule must lift")
	}
	// A wildcard-pattern rule applies to concrete patterns...
	wcRule := New(pattern.SingleNode(pattern.Wildcard), nil, Const(0, "kind", "entity"))
	if !Implies([]*GFD{wcRule}, New(q1(), nil, Const(0, "kind", "entity"))) {
		t.Fatal("wildcard rule must lift to concrete pattern")
	}
	// ... but not vice versa.
	concRule := New(pattern.SingleNode("person"), nil, Const(0, "kind", "human"))
	wcGoal := New(pattern.SingleNode(pattern.Wildcard), nil, Const(0, "kind", "human"))
	if Implies([]*GFD{concRule}, wcGoal) {
		t.Fatal("concrete rule must not lift to wildcard pattern")
	}
	// Conflicting closure implies anything, including negative GFDs.
	c1 := New(q1(), nil, Const(0, "t", "1"))
	c2 := New(q1(), []Literal{Const(0, "t", "1")}, Const(0, "t", "2"))
	anything := New(q1(), nil, False())
	if !Implies([]*GFD{c1, c2}, anything) {
		t.Fatal("conflicting Σ must imply the negative GFD")
	}
	// Negative GFD propagates: Q1(∅→false) implies Q1-with-extra-literal(X→false).
	neg := New(q1(), nil, False())
	negMore := New(q1(), []Literal{Const(0, "a", "b")}, False())
	if !Implies([]*GFD{neg}, negMore) {
		t.Fatal("negative GFD must imply its literal extensions")
	}
	// Empty Σ implies nothing nontrivial.
	if Implies(nil, phi) {
		t.Fatal("empty Σ must not imply phi1")
	}
}

func TestSatisfiability(t *testing.T) {
	if Satisfiable(nil) {
		t.Fatal("empty Σ is unsatisfiable by definition (no applicable GFD)")
	}
	if !Satisfiable([]*GFD{phi1()}) {
		t.Fatal("phi1 alone is satisfiable")
	}
	// Two rules that force x0.t to 1 and 2 simultaneously on the same
	// pattern: unsatisfiable.
	a := New(q1(), nil, Const(0, "t", "1"))
	b := New(q1(), nil, Const(0, "t", "2"))
	if Satisfiable([]*GFD{a, b}) {
		t.Fatal("conflicting enforcements must be unsatisfiable")
	}
	// Adding an unrelated satisfiable GFD on a different pattern rescues Σ:
	// its pattern can be matched without triggering a/b.
	c := New(pattern.SingleNode("city"), nil, Const(0, "k", "v"))
	if !Satisfiable([]*GFD{a, b, c}) {
		t.Fatal("a pattern with non-conflicting enforcement makes Σ satisfiable")
	}
	// Conflict caused through an embedded single-node rule.
	n1 := New(pattern.SingleNode("person"), nil, Const(0, "t", "1"))
	n2 := New(pattern.SingleNode("person"), nil, Const(0, "t", "2"))
	if Satisfiable([]*GFD{n1, n2}) {
		t.Fatal("single-node conflicting rules must be unsatisfiable")
	}
}

func TestKBounded(t *testing.T) {
	sigma := []*GFD{phi1(), New(pattern.SingleNode("a"), nil, Const(0, "x", "1"))}
	if MaxK(sigma) != 2 {
		t.Fatalf("MaxK = %d", MaxK(sigma))
	}
	if !KBounded(sigma, 2) || KBounded(sigma, 1) {
		t.Fatal("KBounded wrong")
	}
	if MaxK(nil) != 0 {
		t.Fatal("MaxK(nil) must be 0")
	}
}

func TestComputeClosureWithRules(t *testing.T) {
	// enforced(ΣQ): rules with empty X fire unconditionally; a rule whose
	// pattern is not embedded in Q never fires.
	r1 := New(pattern.SingleNode("person"), nil, Const(0, "species", "human"))
	r2 := New(pattern.SingleEdge("city", "located", pattern.Wildcard), nil, Const(0, "k", "v"))
	cl := Enforced([]*GFD{r1, r2}, q1())
	if !cl.Holds(Const(0, "species", "human")) {
		t.Fatal("enforced closure must contain fired literal")
	}
	if cl.Holds(Const(1, "species", "human")) {
		t.Fatal("literal must fire only at person positions")
	}
	for v := 0; v < 2; v++ {
		if cl.Holds(Const(v, "k", "v")) {
			t.Fatal("a rule not embedded in Q must not fire")
		}
	}
}
