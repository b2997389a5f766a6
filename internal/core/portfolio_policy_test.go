package core

import (
	"math/rand"
	"testing"

	"obddopt/internal/truthtable"
)

// TestPortfolioPeakPrediction pins the portfolio policy's memory model:
// the serial dynamic program's Meter.PeakCells is a function of n alone,
// and dpPeakCells predicts it exactly, for random and constant functions
// under both rules.
func TestPortfolioPeakPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 0; n <= 14; n++ {
		want := dpPeakCells(n)
		for _, rule := range []Rule{OBDD, ZDD} {
			for _, tt := range []*truthtable.Table{truthtable.Random(n, rng), truthtable.Const(n, true)} {
				var m Meter
				OptimalOrdering(tt, &SolveOptions{Rule: rule, Meter: &m})
				if m.PeakCells != want {
					t.Errorf("n=%d rule %v: fs PeakCells = %d, predicted %d", n, rule, m.PeakCells, want)
				}
			}
		}
		if bnb := bnbPeakCells(n); n >= 2 && bnb >= want {
			t.Errorf("n=%d: branch-and-bound peak %d not below the DP's %d", n, bnb, want)
		}
	}
}
