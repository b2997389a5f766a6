package arena

import (
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	var a Arena
	b := a.GetU32(8)
	if len(b) != 8 {
		t.Fatalf("GetU32(8) len = %d", len(b))
	}
	for i := range b {
		b[i] = uint32(i) + 100
	}
	a.PutU32(b)
	c := a.GetU32(8)
	if len(c) != 8 {
		t.Fatalf("reused block len = %d", len(c))
	}
	if &c[0] != &b[0] {
		t.Fatalf("expected the same backing array back")
	}
	// Contract: blocks come back dirty — the old contents are visible.
	if c[3] != 103 {
		t.Fatalf("block unexpectedly cleared: c[3] = %d", c[3])
	}
	gets, reuses := a.Stats()
	if gets != 2 || reuses != 1 {
		t.Fatalf("Stats = (%d, %d), want (2, 1)", gets, reuses)
	}
}

func TestOffClassNotRecycled(t *testing.T) {
	var a Arena
	b := a.GetU32(12) // not a power of two
	if len(b) != 12 {
		t.Fatalf("GetU32(12) len = %d", len(b))
	}
	a.PutU32(b)
	c := a.GetU32(12)
	if len(b) > 0 && len(c) > 0 && &c[0] == &b[0] {
		// cap(make([]uint32, 12)) may round up; only exact pow2 caps recycle.
		if cap(b) == 12 {
			t.Fatalf("off-class block should not be recycled")
		}
	}
	if a.GetU32(0) != nil {
		t.Fatalf("GetU32(0) should be nil")
	}
	a.PutU32(nil)
}

func TestReset(t *testing.T) {
	var a Arena
	b := a.GetU32(16)
	a.PutU32(b)
	a.Reset()
	c := a.GetU32(16)
	if len(b) > 0 && &c[0] == &b[0] {
		t.Fatalf("Reset should drop free lists")
	}
}

func TestAcquireRelease(t *testing.T) {
	a := Acquire()
	if a == nil {
		t.Fatalf("Acquire returned nil")
	}
	a.PutU32(a.GetU32(4))
	Release(a)
	// Pool reuse is best-effort; just exercise the path again.
	b := Acquire()
	b.GetU32(4)
	Release(b)
}

func TestDedupMatchesMapReference(t *testing.T) {
	var d Dedup
	// Two rounds with different sizes exercise Reset's grow and re-slice
	// paths and verify no state bleeds between compactions.
	for round, nkeys := range []uint64{500, 37} {
		d.Reset(nkeys)
		ref := make(map[uint64]uint32)
		next := uint32(0)
		// A mix of fresh and repeated keys, none zero.
		for i := uint64(0); i < nkeys; i++ {
			key := (i%17)*0x1f3d + i/3 + 1
			wantID, seen := ref[key]
			got, fresh := d.FindOrAssign(key, next)
			if seen {
				if fresh || got != wantID {
					t.Fatalf("round %d key %#x: got (%d, %v), want (%d, false)", round, key, got, fresh, wantID)
				}
			} else {
				if !fresh || got != next {
					t.Fatalf("round %d key %#x: got (%d, %v), want fresh %d", round, key, got, fresh, next)
				}
				ref[key] = next
				next++
			}
		}
	}
}

func TestDedupResetClearsState(t *testing.T) {
	var d Dedup
	d.Reset(4)
	if got, fresh := d.FindOrAssign(42, 7); !fresh || got != 7 {
		t.Fatalf("first insert: (%d, %v)", got, fresh)
	}
	d.Reset(4)
	if got, fresh := d.FindOrAssign(42, 9); !fresh || got != 9 {
		t.Fatalf("after Reset, key should be gone: (%d, %v)", got, fresh)
	}
}

func TestDedupGrowAfterShrink(t *testing.T) {
	var d Dedup
	d.Reset(1000)
	d.Reset(4) // shrink the view
	d.Reset(1000)
	// The original backing array must be back in full (no truncated len).
	for i := uint64(0); i < 1000; i++ {
		if got, fresh := d.FindOrAssign(i+1, uint32(i)); !fresh || got != uint32(i) {
			t.Fatalf("key %d: (%d, %v)", i+1, got, fresh)
		}
	}
}

func TestRebalanceEvensAndCaps(t *testing.T) {
	var a, b Arena
	var blocks [][]uint32
	for i := 0; i < 7; i++ {
		blocks = append(blocks, a.GetU32(4))
	}
	for i := 0; i < 3; i++ {
		blocks = append(blocks, a.GetU32(16))
	}
	for _, blk := range blocks {
		a.PutU32(blk) // every retired block lands in one arena
	}
	// 7 blocks of 4 cells fit whole (28 cells); the 36 left admit two of
	// the three 16-cell blocks.
	Rebalance([]*Arena{&a, &b}, 64)
	if got := [2]int{len(a.free[2]), len(b.free[2])}; got != [2]int{4, 3} {
		t.Errorf("4-cell blocks per arena = %v, want [4 3]", got)
	}
	if got := [2]int{len(a.free[4]), len(b.free[4])}; got != [2]int{1, 1} {
		t.Errorf("16-cell blocks per arena = %v, want [1 1]", got)
	}
	// The dropped block's slot is cleared, so the list does not keep it alive.
	if l := a.free[4]; cap(l) > len(l) && l[:cap(l)][len(l)] != nil {
		t.Error("a dropped block is still referenced past the end of the free list")
	}
	Rebalance([]*Arena{&a, &b}, 0)
	for c := range a.free {
		if len(a.free[c])+len(b.free[c]) != 0 {
			t.Fatalf("class %d keeps blocks under a zero limit", c)
		}
	}
}
