// Package truthtable implements packed truth tables of Boolean functions,
// the input representation assumed by the Friedman–Supowit dynamic program
// (Theorem 5 of the restatement: "Suppose that the truth table of
// f : {0,1}^n → {0,1} is given as input").
//
// A Table stores the 2^n function values as a packed bit vector. The cell
// index of an assignment (x_0, …, x_{n−1}) is Σ x_i·2^i: variable i
// contributes bit i of the index. All cofactor and compaction index
// arithmetic throughout the repository relies on this convention.
//
// The package also defines Ordering, the shared representation of variable
// orderings. Following the papers' convention (§2.2 of the restatement),
// orderings are stored bottom-up: Ordering[0] is the variable read last
// (level 1, adjacent to the terminals) and Ordering[n−1] the variable read
// first (the root). Variables are 0-based in code; display helpers render
// the 1-based x_i names used in the papers.
package truthtable

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"

	"obddopt/internal/bitops"
)

// MaxVars bounds the number of variables a Table supports. 2^30 bits is
// 128 MiB, already far past the reach of the exponential algorithms.
const MaxVars = 30

// Table is the truth table of a Boolean function over n variables, packed
// 64 values per word.
type Table struct {
	n     int
	words []uint64
}

// New returns the all-false function over n variables. It panics when n
// is out of range; NewChecked is the error-returning variant for callers
// handling untrusted input.
func New(n int) *Table {
	t, err := NewChecked(n)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// NewChecked is New returning an error instead of panicking when the
// variable count is outside [0, MaxVars].
func NewChecked(n int) (*Table, error) {
	if n < 0 || n > MaxVars {
		return nil, fmt.Errorf("truthtable: variable count %d out of range [0,%d]", n, MaxVars)
	}
	return &Table{n: n, words: make([]uint64, wordsFor(n))}, nil
}

func wordsFor(n int) int {
	size := uint64(1) << uint(n)
	return int((size + 63) / 64)
}

// FromFunc builds the table of f by evaluating it on all 2^n assignments.
// The assignment slice passed to f has x[i] = value of variable i.
func FromFunc(n int, f func(x []bool) bool) *Table {
	t := New(n)
	x := make([]bool, n)
	size := uint64(1) << uint(n)
	for idx := uint64(0); idx < size; idx++ {
		for i := 0; i < n; i++ {
			x[i] = idx>>uint(i)&1 == 1
		}
		if f(x) {
			t.setBit(idx)
		}
	}
	return t
}

// NumVars returns n, the number of variables.
func (t *Table) NumVars() int { return t.n }

// Size returns 2^n, the number of cells.
func (t *Table) Size() uint64 { return 1 << uint(t.n) }

// Bit returns the function value at cell index idx.
func (t *Table) Bit(idx uint64) bool {
	return t.words[idx>>6]>>(idx&63)&1 == 1
}

func (t *Table) setBit(idx uint64)   { t.words[idx>>6] |= 1 << (idx & 63) }
func (t *Table) clearBit(idx uint64) { t.words[idx>>6] &^= 1 << (idx & 63) }

// Set assigns the function value at cell index idx.
func (t *Table) Set(idx uint64, v bool) {
	if v {
		t.setBit(idx)
	} else {
		t.clearBit(idx)
	}
}

// Eval evaluates the function on an assignment given as a bool slice
// (x[i] = variable i). It panics if len(x) != NumVars().
func (t *Table) Eval(x []bool) bool {
	if len(x) != t.n {
		panic("truthtable: Eval assignment length mismatch")
	}
	var idx uint64
	for i, v := range x {
		if v {
			idx |= 1 << uint(i)
		}
	}
	return t.Bit(idx)
}

// EvalMask evaluates the function on the assignment encoded as an index.
func (t *Table) EvalMask(idx uint64) bool { return t.Bit(idx) }

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	c := &Table{n: t.n, words: make([]uint64, len(t.words))}
	copy(c.words, t.words)
	return c
}

// Equal reports whether t and o are the same function over the same
// variable count.
func (t *Table) Equal(o *Table) bool {
	if t.n != o.n {
		return false
	}
	// Mask off unused high bits of the last word for n < 6.
	mask := lastWordMask(t.n)
	for i := range t.words {
		a, b := t.words[i], o.words[i]
		if i == len(t.words)-1 {
			a &= mask
			b &= mask
		}
		if a != b {
			return false
		}
	}
	return true
}

func lastWordMask(n int) uint64 {
	size := uint64(1) << uint(n)
	if size%64 == 0 {
		return ^uint64(0)
	}
	return uint64(1)<<(size%64) - 1
}

// CountOnes returns the number of satisfying assignments.
func (t *Table) CountOnes() uint64 {
	var c uint64
	mask := lastWordMask(t.n)
	for i, w := range t.words {
		if i == len(t.words)-1 {
			w &= mask
		}
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

// IsConst reports whether the function is constant, and which constant.
func (t *Table) IsConst() (isConst, value bool) {
	ones := t.CountOnes()
	switch ones {
	case 0:
		return true, false
	case t.Size():
		return true, true
	}
	return false, false
}

// Cofactor returns the (n−1)-variable function f|_{x_v = val}. Variables
// above v shift down by one position (variable v+1 becomes variable v, …).
func (t *Table) Cofactor(v int, val bool) *Table {
	if v < 0 || v >= t.n {
		panic("truthtable: Cofactor variable out of range")
	}
	c := New(t.n - 1)
	b := uint64(0)
	if val {
		b = 1
	}
	half := uint64(1) << uint(t.n-1)
	for idx := uint64(0); idx < half; idx++ {
		if t.Bit(bitops.SpliceIndex(idx, uint(v), b)) {
			c.setBit(idx)
		}
	}
	return c
}

// DependsOn reports whether the function value depends on variable v,
// i.e. the two cofactors differ.
func (t *Table) DependsOn(v int) bool {
	half := uint64(1) << uint(t.n-1)
	for idx := uint64(0); idx < half; idx++ {
		if t.Bit(bitops.SpliceIndex(idx, uint(v), 0)) != t.Bit(bitops.SpliceIndex(idx, uint(v), 1)) {
			return true
		}
	}
	return false
}

// Support returns the mask of variables the function actually depends on.
func (t *Table) Support() bitops.Mask {
	var m bitops.Mask
	for v := 0; v < t.n; v++ {
		if t.DependsOn(v) {
			m = m.With(v)
		}
	}
	return m
}

// binaryOp applies op wordwise. Both tables must have the same n.
func (t *Table) binaryOp(o *Table, op func(a, b uint64) uint64) *Table {
	if t.n != o.n {
		panic("truthtable: variable count mismatch in binary operation")
	}
	r := New(t.n)
	for i := range t.words {
		r.words[i] = op(t.words[i], o.words[i])
	}
	return r
}

// And returns t ∧ o.
func (t *Table) And(o *Table) *Table {
	return t.binaryOp(o, func(a, b uint64) uint64 { return a & b })
}

// Or returns t ∨ o.
func (t *Table) Or(o *Table) *Table {
	return t.binaryOp(o, func(a, b uint64) uint64 { return a | b })
}

// Xor returns t ⊕ o.
func (t *Table) Xor(o *Table) *Table {
	return t.binaryOp(o, func(a, b uint64) uint64 { return a ^ b })
}

// Not returns ¬t.
func (t *Table) Not() *Table {
	r := New(t.n)
	for i := range t.words {
		r.words[i] = ^t.words[i]
	}
	return r
}

// Permute returns g(x_0, …, x_{n−1}) = f(x_{sigma[0]}, …, x_{sigma[n−1]}):
// the function obtained by relabeling variable sigma[i] to position i.
// sigma must be a permutation of {0, …, n−1}. The minimum diagram size is
// invariant under Permute (orderings relabel bijectively).
func (t *Table) Permute(sigma []int) *Table {
	if len(sigma) != t.n {
		panic("truthtable: Permute permutation length mismatch")
	}
	seen := make([]bool, t.n)
	for _, v := range sigma {
		if v < 0 || v >= t.n || seen[v] {
			panic("truthtable: Permute argument is not a permutation")
		}
		seen[v] = true
	}
	g := New(t.n)
	size := t.Size()
	for idx := uint64(0); idx < size; idx++ {
		// f's argument i takes the value of x_{sigma[i]}.
		var src uint64
		for i := 0; i < t.n; i++ {
			if idx>>uint(sigma[i])&1 == 1 {
				src |= 1 << uint(i)
			}
		}
		if t.Bit(src) {
			g.setBit(idx)
		}
	}
	return g
}

// Var returns the projection function x_v over n variables.
func Var(n, v int) *Table {
	if v < 0 || v >= n {
		panic("truthtable: Var index out of range")
	}
	t := New(n)
	size := t.Size()
	for idx := uint64(0); idx < size; idx++ {
		if idx>>uint(v)&1 == 1 {
			t.setBit(idx)
		}
	}
	return t
}

// Const returns the constant function over n variables.
func Const(n int, v bool) *Table {
	t := New(n)
	if v {
		for i := range t.words {
			t.words[i] = ^uint64(0)
		}
	}
	return t
}

// Random returns a uniformly random function over n variables drawn from rng.
func Random(n int, rng *rand.Rand) *Table {
	t := New(n)
	for i := range t.words {
		t.words[i] = rng.Uint64()
	}
	// Zero the unused tail so Equal/CountOnes invariants hold trivially.
	t.words[len(t.words)-1] &= lastWordMask(n)
	return t
}

// Hex serializes the table as a big-endian hex string of the packed bits
// (most significant cell first), prefixed by the variable count:
// "n:hexdigits". Tables with n < 2 are padded to one hex digit.
func (t *Table) Hex() string {
	size := t.Size()
	digits := (size + 3) / 4
	buf := strconv.AppendInt(make([]byte, 0, 4+digits), int64(t.n), 10)
	buf = append(buf, ':')
	out := buf[len(buf) : len(buf)+int(digits)]
	// Digit d holds cells 4d..4d+3, which sit in one word: nibble d&15 of
	// word d/16. Digits are written most significant first.
	for d := range out {
		c := digits - 1 - uint64(d)
		nib := t.words[c>>4] >> ((c & 15) * 4) & 0xf
		if size < 4 {
			nib &= 1<<size - 1
		}
		out[d] = hexDigits[nib]
	}
	return string(buf[:len(buf)+len(out)])
}

const hexDigits = "0123456789abcdef"

// ParseHex parses the format produced by Hex.
func ParseHex(s string) (*Table, error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return nil, errors.New("truthtable: missing ':' in hex literal")
	}
	n, err := strconv.Atoi(s[:colon])
	if err != nil {
		return nil, fmt.Errorf("truthtable: bad variable count %q", s[:colon])
	}
	if n < 0 || n > MaxVars {
		return nil, fmt.Errorf("truthtable: variable count %d out of range", n)
	}
	// Validate the digit count before allocating: a bare "30:" must not
	// cost a 128 MiB table just to be rejected.
	hexpart := s[colon+1:]
	size := uint64(1) << uint(n)
	digits := int((size + 3) / 4)
	if len(hexpart) != digits {
		return nil, fmt.Errorf("truthtable: expected %d hex digits for n=%d, got %d", digits, n, len(hexpart))
	}
	t := New(n)
	for pos, ch := range hexpart {
		d := uint64(digits - 1 - pos) // digit index from least significant
		var nib uint64
		switch {
		case ch >= '0' && ch <= '9':
			nib = uint64(ch - '0')
		case ch >= 'a' && ch <= 'f':
			nib = uint64(ch-'a') + 10
		case ch >= 'A' && ch <= 'F':
			nib = uint64(ch-'A') + 10
		default:
			return nil, fmt.Errorf("truthtable: invalid hex digit %q", ch)
		}
		if size < 4 {
			nib &= 1<<size - 1 // bits past the last cell are ignored
		}
		t.words[d>>4] |= nib << ((d & 15) * 4)
	}
	return t, nil
}

// String renders small tables as their hex literal.
func (t *Table) String() string { return t.Hex() }
