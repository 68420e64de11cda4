// Package bitset provides a fixed-size bit vector shared by the layers
// that index match-table rows: discovery's candidate validation reduces to
// bit algebra over per-literal satisfaction sets, and match's columnar
// tables use bit vectors for pivot deduplication and row filtering.
package bitset

import "math/bits"

// Bitset is a fixed-size bit vector.
type Bitset []uint64

// New returns a bitset able to hold n bits, all zero.
func New(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bitset) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports bit i.
func (b Bitset) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Fill sets the first n bits.
func (b Bitset) Fill(n int) {
	for i := 0; i < n>>6; i++ {
		b[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		b[n>>6] = (1 << uint(r)) - 1
	}
}

// CopyFrom overwrites b with src (same length).
func (b Bitset) CopyFrom(src Bitset) { copy(b, src) }

// AndWith intersects b with o in place.
func (b Bitset) AndWith(o Bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}

// Any reports whether any bit is set.
func (b Bitset) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// AnyAndNot reports whether b ∧ ¬o is nonempty.
func (b Bitset) AnyAndNot(o Bitset) bool {
	for i := range b {
		if b[i]&^o[i] != 0 {
			return true
		}
	}
	return false
}

// AnyAnd reports whether b ∧ o is nonempty.
func (b Bitset) AnyAnd(o Bitset) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every set bit index, in ascending order.
func (b Bitset) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			fn(wi<<6 | t)
			w &= w - 1
		}
	}
}

// ForEachAnd calls fn for every index set in both b and o.
func (b Bitset) ForEachAnd(o Bitset, fn func(i int)) {
	for wi := range b {
		w := b[wi] & o[wi]
		for w != 0 {
			t := bits.TrailingZeros64(w)
			fn(wi<<6 | t)
			w &= w - 1
		}
	}
}
