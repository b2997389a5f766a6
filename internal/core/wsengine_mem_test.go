package core

import (
	"math/rand"
	"runtime"
	"testing"

	"obddopt/internal/truthtable"
)

// TestParallelRetainedMemoryBounded guards the pooled workspaces of the
// parallel solver: table blocks retire into whichever worker's arena
// completes a layer, so without a cap on what the pool keeps, repeated
// solves move blocks from arena to arena and the heap grows with every
// run (17 MiB more heap after 200 n=11 solves on 2 workers, before the
// cap). After a few warm-up solves, the heap in use may grow by at most
// twice one run's peak table bytes.
func TestParallelRetainedMemoryBounded(t *testing.T) {
	tt := truthtable.Random(11, rand.New(rand.NewSource(8)))
	opts := &SolveOptions{Workers: 2}
	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	solve := func(runs int) {
		for i := 0; i < runs; i++ {
			if _, err := OptimalOrderingParallel(nil, tt, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	solve(5)
	warm := heapInUse()
	solve(200)
	after := heapInUse()
	bound := 2 * 4 * dpPeakCells(tt.NumVars())
	t.Logf("heap in use: %d KiB after warm-up, %d KiB after 200 more solves (bound +%d KiB)", warm>>10, after>>10, bound>>10)
	if after > warm+bound {
		t.Errorf("heap in use grew from %d to %d bytes over 200 solves, more than %d", warm, after, bound)
	}
}
