package truthtable

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"obddopt/internal/bitops"
)

func TestNewAndSize(t *testing.T) {
	for n := 0; n <= 10; n++ {
		tt := New(n)
		if tt.NumVars() != n {
			t.Errorf("NumVars = %d, want %d", tt.NumVars(), n)
		}
		if tt.Size() != 1<<uint(n) {
			t.Errorf("Size = %d, want %d", tt.Size(), 1<<uint(n))
		}
		if c, v := tt.IsConst(); !c || v {
			t.Errorf("New(%d) should be constant false", n)
		}
	}
}

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, MaxVars + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestSetAndBit(t *testing.T) {
	tt := New(7)
	idxs := []uint64{0, 1, 63, 64, 65, 127}
	for _, i := range idxs {
		tt.Set(i, true)
	}
	for i := uint64(0); i < tt.Size(); i++ {
		want := false
		for _, j := range idxs {
			if i == j {
				want = true
			}
		}
		if tt.Bit(i) != want {
			t.Errorf("Bit(%d) = %v, want %v", i, tt.Bit(i), want)
		}
	}
	tt.Set(63, false)
	if tt.Bit(63) {
		t.Errorf("clear failed")
	}
}

func TestFromFuncAndEval(t *testing.T) {
	// Majority of three variables.
	maj := FromFunc(3, func(x []bool) bool {
		c := 0
		for _, v := range x {
			if v {
				c++
			}
		}
		return c >= 2
	})
	cases := []struct {
		x    []bool
		want bool
	}{
		{[]bool{false, false, false}, false},
		{[]bool{true, false, false}, false},
		{[]bool{true, true, false}, true},
		{[]bool{true, true, true}, true},
		{[]bool{false, true, true}, true},
	}
	for _, c := range cases {
		if maj.Eval(c.x) != c.want {
			t.Errorf("maj(%v) = %v, want %v", c.x, maj.Eval(c.x), c.want)
		}
	}
	if maj.CountOnes() != 4 {
		t.Errorf("CountOnes = %d, want 4", maj.CountOnes())
	}
}

func TestVarAndConst(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for v := 0; v < n; v++ {
			x := Var(n, v)
			for idx := uint64(0); idx < x.Size(); idx++ {
				if x.Bit(idx) != (idx>>uint(v)&1 == 1) {
					t.Fatalf("Var(%d,%d) wrong at %d", n, v, idx)
				}
			}
		}
	}
	tr := Const(4, true)
	if c, v := tr.IsConst(); !c || !v {
		t.Errorf("Const(4,true) not constant true")
	}
	if tr.CountOnes() != 16 {
		t.Errorf("Const true CountOnes = %d", tr.CountOnes())
	}
}

func TestAlgebra(t *testing.T) {
	n := 5
	rng := rand.New(rand.NewSource(1))
	a, b := Random(n, rng), Random(n, rng)
	and, or, xor, nota := a.And(b), a.Or(b), a.Xor(b), a.Not()
	for idx := uint64(0); idx < a.Size(); idx++ {
		av, bv := a.Bit(idx), b.Bit(idx)
		if and.Bit(idx) != (av && bv) {
			t.Fatalf("And wrong at %d", idx)
		}
		if or.Bit(idx) != (av || bv) {
			t.Fatalf("Or wrong at %d", idx)
		}
		if xor.Bit(idx) != (av != bv) {
			t.Fatalf("Xor wrong at %d", idx)
		}
		if nota.Bit(idx) != !av {
			t.Fatalf("Not wrong at %d", idx)
		}
	}
	// De Morgan: ¬(a ∧ b) == ¬a ∨ ¬b.
	if !and.Not().Equal(a.Not().Or(b.Not())) {
		t.Errorf("De Morgan violated")
	}
}

func TestCofactorShannon(t *testing.T) {
	// Shannon expansion: f = x̄_v f0 + x_v f1, checked by re-evaluation.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		f := Random(n, rng)
		v := rng.Intn(n)
		f0, f1 := f.Cofactor(v, false), f.Cofactor(v, true)
		if f0.NumVars() != n-1 || f1.NumVars() != n-1 {
			t.Fatalf("cofactor variable count wrong")
		}
		for idx := uint64(0); idx < f.Size(); idx++ {
			sub, bit := bitops.ExtractIndex(idx, uint(v))
			var want bool
			if bit == 1 {
				want = f1.Bit(sub)
			} else {
				want = f0.Bit(sub)
			}
			if f.Bit(idx) != want {
				t.Fatalf("Shannon expansion fails: n=%d v=%d idx=%d", n, v, idx)
			}
		}
	}
}

func TestDependsOnAndSupport(t *testing.T) {
	// f = x0 XOR x2 over 4 variables: depends on 0 and 2 only.
	f := Var(4, 0).Xor(Var(4, 2))
	wantDep := []bool{true, false, true, false}
	for v, want := range wantDep {
		if f.DependsOn(v) != want {
			t.Errorf("DependsOn(%d) = %v, want %v", v, f.DependsOn(v), want)
		}
	}
	if f.Support() != bitops.Mask(0b0101) {
		t.Errorf("Support = %#b", f.Support())
	}
	c := Const(3, true)
	if c.Support() != 0 {
		t.Errorf("constant function should have empty support")
	}
}

func TestHexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 9; n++ {
		f := Random(n, rng)
		s := f.Hex()
		g, err := ParseHex(s)
		if err != nil {
			t.Fatalf("ParseHex(%q): %v", s, err)
		}
		if !f.Equal(g) {
			t.Errorf("hex round trip failed for n=%d: %q", n, s)
		}
	}
}

func TestHexKnownValues(t *testing.T) {
	// x0 over 2 vars: cells 1,3 true → bits 1010 → hex "a".
	if got := Var(2, 0).Hex(); got != "2:a" {
		t.Errorf("Var(2,0).Hex() = %q, want 2:a", got)
	}
	// AND of two vars: cell 3 only → 1000 → "8".
	if got := Var(2, 0).And(Var(2, 1)).Hex(); got != "2:8" {
		t.Errorf("AND hex = %q, want 2:8", got)
	}
}

func TestParseHexErrors(t *testing.T) {
	bad := []string{"", "3", "abc", "2:xyz", "2:aaa", "-1:a", "99:0"}
	for _, s := range bad {
		if _, err := ParseHex(s); err == nil {
			t.Errorf("ParseHex(%q) should fail", s)
		}
	}
}

// hexReference is the original digit-at-a-time encoder, kept as the
// oracle the word-at-a-time Hex must match byte for byte.
func hexReference(t *Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:", t.n)
	size := t.Size()
	digits := int((size + 3) / 4)
	for d := digits - 1; d >= 0; d-- {
		var nib uint64
		for b := 0; b < 4; b++ {
			idx := uint64(d*4 + b)
			if idx < size && t.Bit(idx) {
				nib |= 1 << uint(b)
			}
		}
		fmt.Fprintf(&sb, "%x", nib)
	}
	return sb.String()
}

func TestHexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 16; n++ {
		for _, f := range []*Table{Random(n, rng), Random(n, rng), Const(n, false), Const(n, true)} {
			got, want := f.Hex(), hexReference(f)
			if got != want {
				t.Fatalf("n=%d: Hex = %.40q…, reference %.40q…", n, got, want)
			}
			g, err := ParseHex(got)
			if err != nil {
				t.Fatalf("ParseHex(Hex) n=%d: %v", n, err)
			}
			if !f.Equal(g) {
				t.Fatalf("n=%d: round trip changed the table", n)
			}
		}
	}
	// Digits past the last cell of a sub-nibble table are ignored.
	for _, c := range []struct{ in, out string }{{"0:f", "0:1"}, {"1:e", "1:2"}, {"1:F", "1:3"}} {
		f, err := ParseHex(c.in)
		if err != nil {
			t.Fatalf("ParseHex(%q): %v", c.in, err)
		}
		if got := f.Hex(); got != c.out {
			t.Errorf("ParseHex(%q).Hex() = %q, want %q", c.in, got, c.out)
		}
	}
}

func TestParseHexErrorMessages(t *testing.T) {
	for _, c := range []struct{ in, msg string }{
		{"", "truthtable: missing ':' in hex literal"},
		{"abc", "truthtable: missing ':' in hex literal"},
		{"x:0", `truthtable: bad variable count "x"`},
		{":0", `truthtable: bad variable count ""`},
		{"-1:a", "truthtable: variable count -1 out of range"},
		{"99:0", "truthtable: variable count 99 out of range"},
		{"2:aaa", "truthtable: expected 1 hex digits for n=2, got 3"},
		{"30:", "truthtable: expected 268435456 hex digits for n=30, got 0"},
		{"3:xy", "truthtable: invalid hex digit 'x'"},
		{"3:g0", "truthtable: invalid hex digit 'g'"},
	} {
		_, err := ParseHex(c.in)
		if err == nil || err.Error() != c.msg {
			t.Errorf("ParseHex(%q) error = %v, want %q", c.in, err, c.msg)
		}
	}
}

var hexSink string

func BenchmarkHex(b *testing.B) {
	f := Random(12, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hexSink = f.Hex()
	}
}

func BenchmarkParseHex(b *testing.B) {
	s := Random(12, rand.New(rand.NewSource(1))).Hex()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseHex(s); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEqualDifferentN(t *testing.T) {
	if New(3).Equal(New(4)) {
		t.Errorf("tables of different n must not be Equal")
	}
}

func TestRandomIsSeedDeterministic(t *testing.T) {
	a := Random(8, rand.New(rand.NewSource(5)))
	b := Random(8, rand.New(rand.NewSource(5)))
	if !a.Equal(b) {
		t.Errorf("Random not deterministic for fixed seed")
	}
}

// Property: cofactoring on val and !val partitions the ones count.
func TestCofactorCountProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, vRaw uint8) bool {
		n := 1 + int(nRaw%7)
		v := int(vRaw) % n
		tt := Random(n, rand.New(rand.NewSource(seed)))
		return tt.Cofactor(v, false).CountOnes()+tt.Cofactor(v, true).CountOnes() == tt.CountOnes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := Random(4, rng)
	sigma := []int{2, 0, 3, 1}
	g := f.Permute(sigma)
	x := make([]bool, 4)
	y := make([]bool, 4)
	for idx := uint64(0); idx < 16; idx++ {
		for i := 0; i < 4; i++ {
			x[i] = idx>>uint(i)&1 == 1
		}
		for i := 0; i < 4; i++ {
			y[i] = x[sigma[i]]
		}
		if g.Eval(x) != f.Eval(y) {
			t.Fatalf("Permute wrong at %v", x)
		}
	}
	// Identity permutation is a fixed point; inverse composes to identity.
	if !f.Permute([]int{0, 1, 2, 3}).Equal(f) {
		t.Errorf("identity Permute changed the function")
	}
	inv := make([]int, 4)
	for i, v := range sigma {
		inv[v] = i
	}
	if !g.Permute(inv).Equal(f) {
		t.Errorf("inverse Permute does not round trip")
	}
	for _, bad := range [][]int{{0, 1}, {0, 0, 1, 2}, {0, 1, 2, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Permute(%v) did not panic", bad)
				}
			}()
			f.Permute(bad)
		}()
	}
}
