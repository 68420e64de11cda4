package core

import (
	"slices"
	"sync"

	"repro/internal/pattern"
)

// This file implements the closure characterisation of GFD satisfiability
// and implication (Section 3, after Lemmas 3 and 7 of Fan-Wu-Xu 2016):
//
//   - Σ is satisfiable iff some pattern Q in Σ has a non-conflicting
//     enforced(Σ_Q);
//   - Σ ⊨ φ = Q[x̄](X → l) iff closure(Σ_Q, X) is conflicting or contains l,
//
// where Σ_Q is the set of GFDs of Σ embedded in Q, and closure(Σ_Q, X) is
// the set of literals deduced by applying Σ_Q's dependencies through their
// embeddings into Q, closed under transitivity of equality.
//
// The closure is computed by one compiled chase, the chase of relational
// dependency theory specialised to equality atoms. An Implier interns
// attributes and constants and compiles each GFD's literals once. For a
// host pattern Q it lays Q's terms x.A out densely by (variable,
// attribute) and builds every (GFD, embedding) rule of Σ_Q once, indexing
// the rules by the terms of their premises. A run is a union–find over
// those terms with at most one constant tag per class: it asserts X, fires
// the rules with no premise, and whenever two classes merge or a class
// gets a constant it re-checks only the premises that watch the terms
// whose state changed. A rule fires when its last premise holds. This is
// Beeri and Bernstein's linear-time closure of functional dependencies
// (TODS 1979) adapted to equality classes. A conflicting closure stops the
// run and entails everything.
//
// A term that neither X nor a fired rule has mentioned entails nothing,
// not even x.A = x.A: the closure holds only the terms its literals
// mention.

// clit is a literal compiled over an Implier's interned attributes and
// constants.
type clit struct {
	kind LiteralKind
	x, y int32 // variables
	a, b int32 // attributes
	c    int32 // constant (LConst)
}

// tlit is a literal over a host's terms: t2 is the right term of a
// variable literal, c the constant of a constant literal.
type tlit struct {
	kind   LiteralKind
	t1, t2 int32
	c      int32
}

// premise is one literal of a rule's X, watched by its terms.
type premise struct {
	tlit
	rule int32
}

// hrule is one GFD of the chase fired through one embedding into the host.
type hrule struct {
	owner int32 // the GFD's index in its chase, for switching it off
	need  int32 // number of premises
	rhs   tlit
}

// host is the compiled rule set of one host pattern: term v.a is
// v*na + a, and the premises watching term t are watch[wstart[t]:wstart[t+1]].
type host struct {
	q      *pattern.Pattern
	n, na  int32
	prem   []premise
	rules  []hrule
	empty  []int32 // rules with X = ∅, which fire at the start
	wstart []int32
	watch  []int32
	refl   bool // some premise is x.A = x.A, which a mention satisfies
}

func (h *host) term(v, a int32) int32 { return v*h.na + a }

// lower translates a compiled literal into the host's terms through the
// embedding f (nil for the identity).
func (h *host) lower(l clit, f []int) tlit {
	x, y := l.x, l.y
	if f != nil && l.kind != LFalse {
		x = int32(f[x])
		if l.kind == LVar {
			y = int32(f[y])
		}
	}
	switch l.kind {
	case LConst:
		return tlit{kind: LConst, t1: h.term(x, l.a), c: l.c}
	case LVar:
		return tlit{kind: LVar, t1: h.term(x, l.a), t2: h.term(y, l.b)}
	default:
		return tlit{kind: LFalse}
	}
}

// index builds the watch lists: a premise is watched by each of its
// terms; false premises are watched by none and never hold.
func (h *host) index() {
	nt := int(h.n * h.na)
	ws := resize(h.wstart, nt+2)
	clear(ws)
	for _, p := range h.prem {
		switch p.kind {
		case LConst:
			ws[p.t1+2]++
		case LVar:
			ws[p.t1+2]++
			if p.t2 != p.t1 {
				ws[p.t2+2]++
			}
		}
	}
	for t := 2; t < len(ws); t++ {
		ws[t] += ws[t-1]
	}
	h.watch = resize(h.watch, int(ws[nt+1]))
	for i, p := range h.prem {
		switch p.kind {
		case LConst:
			h.watch[ws[p.t1+1]] = int32(i)
			ws[p.t1+1]++
		case LVar:
			h.watch[ws[p.t1+1]] = int32(i)
			ws[p.t1+1]++
			if p.t2 != p.t1 {
				h.watch[ws[p.t2+1]] = int32(i)
				ws[p.t2+1]++
			}
		}
	}
	h.wstart = ws[:nt+1]
}

// resize returns s with length n, reusing its capacity.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// tstate is one term's union–find state, valid in the run it was stamped
// in: an unstamped term is unmentioned, a class of its own with no
// constant.
type tstate struct {
	stamp  uint32
	parent int32
	size   int32
	next   int32 // the class's terms form a cycle through next
	cst    int32 // the class's constant at its root, or -1
}

// rstate is one rule's count of premises not yet holding in the run it
// was stamped in.
type rstate struct {
	stamp uint32
	need  int32
}

// chase is the run state over one host: stamping a fresh epoch resets it,
// so a run costs what it touches, not the host's size.
type chase struct {
	h        *host
	off      []bool // per owner: its rules do not fire
	epoch    uint32
	conflict bool
	terms    []tstate
	rules    []rstate
	prem     []uint32 // stamp of the run each premise held in
	queue    []int32  // rules whose premises all hold
}

// begin starts a run over h with the rules of the owners marked in off
// switched off; off may be nil only for a host with no rules.
func (c *chase) begin(h *host, off []bool) {
	c.h, c.off, c.conflict = h, off, false
	c.queue = c.queue[:0]
	if nt := int(h.n * h.na); nt > len(c.terms) {
		c.terms = append(c.terms, make([]tstate, nt-len(c.terms))...)
	}
	if len(h.rules) > len(c.rules) {
		c.rules = append(c.rules, make([]rstate, len(h.rules)-len(c.rules))...)
	}
	if len(h.prem) > len(c.prem) {
		c.prem = append(c.prem, make([]uint32, len(h.prem)-len(c.prem))...)
	}
	if c.epoch++; c.epoch == 0 {
		for i := range c.terms {
			c.terms[i].stamp = 0
		}
		for i := range c.rules {
			c.rules[i].stamp = 0
		}
		clear(c.prem)
		c.epoch = 1
	}
}

func (c *chase) stamped(t int32) bool { return c.terms[t].stamp == c.epoch }

// touch mentions term t, making it a class of its own on first mention.
func (c *chase) touch(t int32) {
	s := &c.terms[t]
	if s.stamp == c.epoch {
		return
	}
	*s = tstate{stamp: c.epoch, parent: t, size: 1, next: t, cst: -1}
	if c.h.refl {
		c.scan(t)
	}
}

func (c *chase) find(t int32) int32 {
	ts := c.terms
	for ts[t].parent != t {
		ts[t].parent = ts[ts[t].parent].parent
		t = ts[t].parent
	}
	return t
}

// assert adds a literal to the closure.
func (c *chase) assert(l tlit) {
	switch l.kind {
	case LConst:
		c.touch(l.t1)
		r := c.find(l.t1)
		switch cs := c.terms[r].cst; {
		case cs < 0:
			c.terms[r].cst = l.c
			c.scanClass(r)
		case cs != l.c:
			c.conflict = true
		}
	case LVar:
		c.touch(l.t1)
		c.touch(l.t2)
		c.union(l.t1, l.t2)
	default: // LFalse
		c.conflict = true
	}
}

// union merges the classes of a and b. Only premises with a term whose
// state changed can start to hold, so it scans the smaller class when
// neither has a constant, the class that gains a constant when one has,
// and nothing when both have the same; distinct constants conflict.
func (c *chase) union(a, b int32) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	ts := c.terms
	if ts[ra].size < ts[rb].size {
		ra, rb = rb, ra
	}
	ca, cb := ts[ra].cst, ts[rb].cst
	if ca >= 0 && cb >= 0 && ca != cb {
		c.conflict = true
		return
	}
	ts[rb].parent = ra
	ts[ra].size += ts[rb].size
	switch {
	case ca < 0 && cb < 0:
		c.scanClass(rb)
	case ca < 0:
		ts[ra].cst = cb
		c.scanClass(ra)
	case cb < 0:
		c.scanClass(rb)
	}
	ts[ra].next, ts[rb].next = ts[rb].next, ts[ra].next
}

// scanClass scans every term on the cycle through t.
func (c *chase) scanClass(t int32) {
	if len(c.h.watch) == 0 {
		return
	}
	for u := t; ; {
		c.scan(u)
		if u = c.terms[u].next; u == t {
			return
		}
	}
}

// scan re-checks the premises watching term t that do not hold yet, and
// queues each rule whose last premise now holds unless it is switched off.
func (c *chase) scan(t int32) {
	h := c.h
	for _, p := range h.watch[h.wstart[t]:h.wstart[t+1]] {
		if c.prem[p] == c.epoch || !c.holds(h.prem[p].tlit) {
			continue
		}
		c.prem[p] = c.epoch
		ri := h.prem[p].rule
		rs := &c.rules[ri]
		if rs.stamp != c.epoch {
			rs.stamp, rs.need = c.epoch, h.rules[ri].need
		}
		if rs.need--; rs.need == 0 && !c.off[h.rules[ri].owner] {
			c.queue = append(c.queue, ri)
		}
	}
}

// holds reports whether the closure, unless conflicting, entails l.
func (c *chase) holds(l tlit) bool {
	switch l.kind {
	case LConst:
		return c.stamped(l.t1) && c.terms[c.find(l.t1)].cst == l.c
	case LVar:
		if !c.stamped(l.t1) || !c.stamped(l.t2) {
			return false
		}
		r1, r2 := c.find(l.t1), c.find(l.t2)
		if r1 == r2 {
			return true
		}
		// Equal constants entail equality by transitivity.
		cs := c.terms[r1].cst
		return cs >= 0 && cs == c.terms[r2].cst
	default: // LFalse
		return c.conflict
	}
}

// entails fires the rules with no premise that are switched on, then
// every rule queued, until the closure conflicts, holds goal, or reaches
// its fixpoint; it reports whether the closure entails goal. With goal
// false the run reaches the fixpoint unless it conflicts.
func (c *chase) entails(goal tlit) bool {
	for _, r := range c.h.empty {
		if !c.off[c.h.rules[r].owner] {
			c.queue = append(c.queue, r)
		}
	}
	for !c.conflict && !c.holds(goal) && len(c.queue) > 0 {
		r := c.queue[len(c.queue)-1]
		c.queue = c.queue[:len(c.queue)-1]
		c.assert(c.h.rules[r].rhs)
	}
	return c.conflict || c.holds(goal)
}

// Implier decides closures, implication, satisfiability, triviality and
// reduction. It is the package's single implementation of each: Implies,
// ComputeClosure, Enforced, Satisfiable, GFD.Trivial and Reduces are
// wrappers over a fresh Implier (Implies over a pooled one emptied to
// the same state), and every closure is one run of its chase. A long-lived Implier reuses its scratch: its interned
// attributes and constants, the compiled literals of each GFD it has seen,
// its hosts' rule and watch lists, and the embeddings of each (sub, super)
// pattern pair, so tests over many GFDs that share a few patterns
// enumerate each pair's embeddings once. Both memos are keyed by pointer,
// never by canonical code: embeddings depend on the variable numbering,
// which isomorphic patterns need not share. GFDs and patterns must not be
// mutated while an Implier may hold them. The zero value is ready to use;
// an Implier is not safe for concurrent use.
type Implier struct {
	attrs  map[string]int32
	consts map[string]int32
	gfds   map[*GFD]int32 // offset of a GFD's compiled X, then its RHS, in lits
	lits   []clit
	embeds map[embedKey][][]int

	hosts []host // the current Chase's hosts; their slices are reused
	srcs  []source
	ch    chase
	cur   Chase
	one   [1]*GFD

	pool  []clit // the pool of TrivialPool
	poolN int32  // variables the pool spans
	tl    []clit // Trivial's compiled arguments
	tidx  []int
	bare  host // the rule-free host of triviality tests
}

type embedKey struct {
	sub, super *pattern.Pattern
	opts       pattern.EmbedOptions
}

// embeddings returns every embedding of sub into super under opts,
// enumerated once per pattern pair.
func (im *Implier) embeddings(sub, super *pattern.Pattern, opts pattern.EmbedOptions) [][]int {
	key := embedKey{sub, super, opts}
	if fs, ok := im.embeds[key]; ok {
		return fs
	}
	var fs [][]int
	pattern.Embeddings(sub, super, opts, func(f []int) bool {
		fs = append(fs, append([]int(nil), f...))
		return true
	})
	if im.embeds == nil {
		im.embeds = make(map[embedKey][][]int)
	}
	im.embeds[key] = fs
	return fs
}

func intern(m *map[string]int32, s string) int32 {
	id, ok := (*m)[s]
	if !ok {
		if *m == nil {
			*m = make(map[string]int32)
		}
		id = int32(len(*m))
		(*m)[s] = id
	}
	return id
}

// compile interns l's attributes and constant.
func (im *Implier) compile(l Literal) clit {
	cl := clit{kind: l.Kind, x: int32(l.X), y: int32(l.Y)}
	switch l.Kind {
	case LConst:
		cl.a, cl.c = intern(&im.attrs, l.A), intern(&im.consts, l.C)
	case LVar:
		cl.a, cl.b = intern(&im.attrs, l.A), intern(&im.attrs, l.B)
	}
	return cl
}

// lookup translates l into h's terms without interning; it reports false
// when l names a term outside h or a constant never seen, which no
// consistent closure over h entails.
func (im *Implier) lookup(h *host, l Literal) (tlit, bool) {
	term := func(v int, a string) (int32, bool) {
		id, ok := im.attrs[a]
		if !ok || v < 0 || int32(v) >= h.n || id >= h.na {
			return 0, false
		}
		return h.term(int32(v), id), true
	}
	switch l.Kind {
	case LConst:
		t, ok := term(l.X, l.A)
		c, okc := im.consts[l.C]
		return tlit{kind: LConst, t1: t, c: c}, ok && okc
	case LVar:
		t1, ok1 := term(l.X, l.A)
		t2, ok2 := term(l.Y, l.B)
		return tlit{kind: LVar, t1: t1, t2: t2}, ok1 && ok2
	default:
		return tlit{kind: LFalse}, true
	}
}

// compiled returns the offset of g's compiled literals in im.lits:
// len(g.X) premises, then the right-hand side.
func (im *Implier) compiled(g *GFD) int32 {
	if off, ok := im.gfds[g]; ok {
		return off
	}
	off := int32(len(im.lits))
	for _, l := range g.X {
		im.lits = append(im.lits, im.compile(l))
	}
	im.lits = append(im.lits, im.compile(g.RHS))
	if im.gfds == nil {
		im.gfds = make(map[*GFD]int32)
	}
	im.gfds[g] = off
	return off
}

// reserve grows the compiled-literal memo once for the owners not yet
// compiled, instead of once per doubling as compiled appends them.
func (im *Implier) reserve(owners []*GFD) {
	fresh, lits := 0, 0
	for _, g := range owners {
		if _, ok := im.gfds[g]; !ok {
			fresh++
			lits += len(g.X) + 1
		}
	}
	if im.gfds == nil {
		im.gfds = make(map[*GFD]int32, fresh)
	}
	im.lits = slices.Grow(im.lits, lits)
}

// maxVar returns the largest variable of l, or -1.
func (l clit) maxVar() int32 {
	switch l.kind {
	case LConst:
		return l.x
	case LVar:
		return max(l.x, l.y)
	}
	return -1
}

// maxVar returns the largest variable of the literals, or -1.
func maxVar(ls []clit) int32 {
	m := int32(-1)
	for _, l := range ls {
		m = max(m, l.maxVar())
	}
	return m
}

// Chase is the compiled chase of one rule set: for each host pattern it
// asks about, every (GFD, embedding) rule is built once, and each test
// switches rules off instead of rebuilding the set. A Chase stays valid
// until its Implier builds the next one.
type Chase struct {
	im     *Implier
	owners []*GFD  // the rule GFDs: the rules, then the members
	off    []bool  // per owner: switched off
	base   int     // the owner index of member 0
	seeds  []int32 // per member: its compiled literals
	hostOf []int32 // per member: the host of its pattern
}

// Chase compiles the chase of rules ∪ members for the host patterns of
// members, one host per distinct pattern pointer. Member i is tested
// with Implied(i); rules stay switched on throughout.
func (im *Implier) Chase(rules, members []*GFD) *Chase {
	ch := &im.cur
	ch.im, ch.base = im, len(rules)
	ch.owners = append(append(ch.owners[:0], rules...), members...)
	ch.off = append(ch.off[:0], make([]bool, len(ch.owners))...)
	ch.seeds, ch.hostOf = ch.seeds[:0], ch.hostOf[:0]
	im.reserve(ch.owners)
	im.hosts = im.hosts[:0]
	for _, phi := range members {
		off := im.compiled(phi)
		h := -1
		for j := range im.hosts {
			if im.hosts[j].q == phi.Q {
				h = j
				break
			}
		}
		if h < 0 {
			// A new host takes the next slot, whose slices build reuses.
			if h = len(im.hosts); h < cap(im.hosts) {
				im.hosts = im.hosts[:h+1]
			} else {
				im.hosts = append(im.hosts, host{})
			}
			im.hosts[h].q, im.hosts[h].n = phi.Q, int32(phi.Q.N())
		}
		im.hosts[h].n = max(im.hosts[h].n, maxVar(im.lits[off:off+int32(len(phi.X))+1])+1)
		ch.seeds = append(ch.seeds, off)
		ch.hostOf = append(ch.hostOf, int32(h))
	}
	for j := range im.hosts {
		im.build(&im.hosts[j], ch.owners)
	}
	return ch
}

// source is an owner with its embeddings into the host being built.
type source struct {
	owner, off int32
	fs         [][]int
}

// build compiles every rule of owners through every embedding of its
// pattern into h.q, over h's term space. Only owners embedded in h.q
// are compiled.
func (im *Implier) build(h *host, owners []*GFD) {
	im.srcs = im.srcs[:0]
	if h.q.N() == 0 {
		owners = nil // a pattern with no variables hosts no rule
	}
	var sub *pattern.Pattern // GFDs sharing a pattern tend to be adjacent
	var fs [][]int
	for o, g := range owners {
		if g.Q != sub {
			sub, fs = g.Q, im.embeddings(g.Q, h.q, pattern.EmbedOptions{})
		}
		if len(fs) > 0 {
			im.srcs = append(im.srcs, source{owner: int32(o), off: im.compiled(g), fs: fs})
		}
	}
	// The term space is fixed only now that every literal is compiled.
	h.na = int32(len(im.attrs))
	h.prem, h.rules, h.empty, h.refl = h.prem[:0], h.rules[:0], h.empty[:0], false
	for _, s := range im.srcs {
		nx := int32(len(owners[s.owner].X))
		x, rhs := im.lits[s.off:s.off+nx], im.lits[s.off+nx]
		for _, f := range s.fs {
			r := int32(len(h.rules))
			for _, l := range x {
				p := h.lower(l, f)
				h.refl = h.refl || p.kind == LVar && p.t1 == p.t2
				h.prem = append(h.prem, premise{tlit: p, rule: r})
			}
			h.rules = append(h.rules, hrule{owner: s.owner, need: nx, rhs: h.lower(rhs, f)})
			if nx == 0 {
				h.empty = append(h.empty, r)
			}
		}
	}
	h.index()
}

// Implied reports whether the rules and the members other than member i
// and those dropped imply member i.
func (ch *Chase) Implied(i int) bool {
	im, o := ch.im, ch.base+i
	was := ch.off[o]
	ch.off[o] = true
	h := &im.hosts[ch.hostOf[i]]
	im.ch.begin(h, ch.off)
	nx := int32(len(ch.owners[o].X))
	ls := im.lits[ch.seeds[i] : ch.seeds[i]+nx+1]
	for _, l := range ls[:nx] {
		im.ch.assert(h.lower(l, nil))
	}
	ok := im.ch.entails(h.lower(ls[nx], nil))
	ch.off[o] = was
	return ok
}

// Drop switches member i's rules off for the tests that follow.
func (ch *Chase) Drop(i int) { ch.off[ch.base+i] = true }

// conflicting reports whether enforced(Σ_Q) is conflicting for member
// i's pattern Q, with the rules that are switched on.
func (ch *Chase) conflicting(i int) bool {
	im := ch.im
	im.ch.begin(&im.hosts[ch.hostOf[i]], ch.off)
	return im.ch.entails(tlit{kind: LFalse})
}

// Implies reports Σ ⊨ φ by the characterisation of Section 3: closure(Σ_Q,
// X) is conflicting or contains φ's right-hand side (false only in the
// former case). The caller passes sigma without φ itself when testing
// redundancy.
func (im *Implier) Implies(sigma []*GFD, phi *GFD) bool {
	im.one[0] = phi
	return im.Chase(sigma, im.one[:]).Implied(0)
}

// CompilePool compiles pool for TrivialPool, replacing the pool compiled
// before.
func (im *Implier) CompilePool(pool []Literal) {
	im.pool = im.pool[:0]
	for _, l := range pool {
		im.pool = append(im.pool, im.compile(l))
	}
	im.poolN = maxVar(im.pool) + 1
}

// PoolFalse stands for the literal false as TrivialPool's right-hand side.
const PoolFalse = -1

// TrivialPool reports Trivial for the X made of the pool literals at the
// indexes x and the pool literal at index rhs, or false for PoolFalse.
// The pool is the one last given to CompilePool; x is only read.
func (im *Implier) TrivialPool(x []int, rhs int) bool {
	r := clit{kind: LFalse}
	if rhs != PoolFalse {
		r = im.pool[rhs]
	}
	return im.trivial(im.pool, x, r, im.poolN)
}

// Trivial reports whether X → rhs is trivial (Section 4.1): X cannot be
// satisfied (it equates one term with two distinct constants), or rhs
// already follows from X by transitivity of equality alone — that is, the
// empty set implies it. x is only read.
func (im *Implier) Trivial(x []Literal, rhs Literal) bool {
	im.tl, im.tidx = im.tl[:0], im.tidx[:0]
	for i, l := range x {
		im.tl = append(im.tl, im.compile(l))
		im.tidx = append(im.tidx, i)
	}
	r := im.compile(rhs)
	return im.trivial(im.tl, im.tidx, r, max(maxVar(im.tl), r.maxVar())+1)
}

// trivial is the triviality test of X = {lits[i] : i ∈ x} over n
// variables: a chase with no rules.
//
// Most candidates are answered without a run. An X with no false and at
// most one constant literal tags at most one class with a constant, so
// its closure is never conflicting. It then entails neither false nor a
// literal with a term that no literal of X mentions, since the closure
// holds only the terms X mentions.
func (im *Implier) trivial(lits []clit, x []int, rhs clit, n int32) bool {
	if !mayConflict(lits, x) {
		switch rhs.kind {
		case LFalse:
			return false
		case LConst:
			if !mentions(lits, x, rhs.x, rhs.a) {
				return false
			}
		case LVar:
			if !mentions(lits, x, rhs.x, rhs.a) || !mentions(lits, x, rhs.y, rhs.b) {
				return false
			}
		}
	}
	h := &im.bare
	h.n, h.na = n, int32(len(im.attrs))
	im.ch.begin(h, nil)
	for _, i := range x {
		im.ch.assert(h.lower(lits[i], nil))
	}
	return im.ch.entails(h.lower(rhs, nil))
}

// mayConflict reports whether X holds false or two constant literals,
// without which a closure of X alone is never conflicting.
func mayConflict(lits []clit, x []int) bool {
	consts := 0
	for _, i := range x {
		switch lits[i].kind {
		case LFalse:
			return true
		case LConst:
			consts++
		}
	}
	return consts >= 2
}

// mentions reports whether some literal of X has the term v.a.
func mentions(lits []clit, x []int, v, a int32) bool {
	for _, i := range x {
		switch l := &lits[i]; l.kind {
		case LConst:
			if l.x == v && l.a == a {
				return true
			}
		case LVar:
			if l.x == v && l.a == a || l.y == v && l.b == a {
				return true
			}
		}
	}
	return false
}

// Reduces reports φ1 ≪ φ2 (see the package-level Reduces). An embedding
// renames variables only, so when some literal of X1 has no literal of X2
// with its kind, attributes (either order for x.A = y.B) and constant, no
// embedding maps X1 into X2 and none is looked up.
func (im *Implier) Reduces(g1, g2 *GFD) bool {
	for _, l := range g1.X {
		if !hasShape(g2.X, l) {
			return false
		}
	}
	for _, f := range im.embeddings(g1.Q, g2.Q, pattern.EmbedOptions{PivotPreserving: true}) {
		if reducesVia(g1, g2, f) {
			return true
		}
	}
	return false
}

// hasShape reports whether x holds a literal that l can be renamed into:
// the same kind, attributes and constant, with the attributes of a
// variable literal in either order.
func hasShape(x []Literal, l Literal) bool {
	for _, m := range x {
		if m.Kind == l.Kind && m.C == l.C &&
			(m.A == l.A && m.B == l.B || l.Kind == LVar && m.A == l.B && m.B == l.A) {
			return true
		}
	}
	return false
}

// Closure is closure(Σ_Q, X) as a chase left it.
type Closure struct {
	im *Implier
	h  *host
}

// Conflicting reports whether the closure contains x.A = c and x.A = d for
// distinct constants c ≠ d (equivalently, false was derived).
func (c *Closure) Conflicting() bool { return c.im.ch.conflict }

// Holds reports whether the closure entails l.
func (c *Closure) Holds(l Literal) bool {
	if c.im.ch.conflict {
		return true
	}
	tl, ok := c.im.lookup(c.h, l)
	return ok && c.im.ch.holds(tl)
}

// ComputeClosure computes closure(Σ_Q, X) for host pattern q (nil: no
// rule fires); GFDs of sigma not embedded in q never fire. It is the run
// that tests X → false against sigma.
func ComputeClosure(sigma []*GFD, q *pattern.Pattern, x []Literal) *Closure {
	if q == nil {
		q = new(pattern.Pattern)
	}
	im := new(Implier)
	im.Chase(sigma, []*GFD{New(q, x, False())}).Implied(0)
	return &Closure{im: im, h: &im.hosts[0]}
}

// Enforced computes enforced(Σ_Q) = closure(Σ_Q, ∅) for the pattern q.
func Enforced(sigma []*GFD, q *pattern.Pattern) *Closure {
	return ComputeClosure(sigma, q, nil)
}

// Implies reports Σ ⊨ φ (see Implier.Implies).
func Implies(sigma []*GFD, phi *GFD) bool {
	im := impliers.Get().(*Implier)
	defer im.release()
	return im.Implies(sigma, phi)
}

// impliers recycles the scratch of Implies's Impliers between calls.
var impliers = sync.Pool{New: func() any { return new(Implier) }}

// release empties im's memos, keeping their capacity, so that its next
// call starts as a fresh Implier would, and puts im back in the pool.
func (im *Implier) release() {
	clear(im.attrs)
	clear(im.consts)
	clear(im.gfds)
	clear(im.embeds)
	im.lits = im.lits[:0]
	impliers.Put(im)
}

// Satisfiable reports whether Σ has a model with at least one applicable
// GFD: per the algorithm of Theorem 1(a), it checks whether some GFD's
// pattern Q has a non-conflicting enforced(Σ_Q). The empty set is not
// satisfiable under the paper's definition (condition (b) requires an
// applicable GFD).
func Satisfiable(sigma []*GFD) bool {
	ch := new(Implier).Chase(nil, sigma)
	for i := range sigma {
		if !ch.conflicting(i) {
			return true
		}
	}
	return false
}

// MaxK returns the parameter k = max |x̄| over sigma (0 for empty sigma).
func MaxK(sigma []*GFD) int {
	k := 0
	for _, g := range sigma {
		if g.K() > k {
			k = g.K()
		}
	}
	return k
}

// KBounded reports whether every GFD in sigma has at most k variables.
func KBounded(sigma []*GFD, k int) bool {
	for _, g := range sigma {
		if g.K() > k {
			return false
		}
	}
	return true
}
