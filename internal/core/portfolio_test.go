package core_test

// The portfolio tests live in the external test package so they can link
// internal/heuristics — which installs core.DefaultSeeder from its init —
// the same way real users get it via the top-level facade. Inside package
// core that import would be a cycle.

import (
	stdctx "context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"obddopt/internal/core"
	_ "obddopt/internal/heuristics" // installs core.DefaultSeeder
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// TestPortfolioMatchesDP is the acceptance equality check: on random
// functions of up to 10 variables, under both diagram rules, the
// portfolio returns exactly the dynamic program's optimal cost.
func TestPortfolioMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, rule := range []core.Rule{core.OBDD, core.ZDD} {
		for i := 0; i < 8; i++ {
			n := 4 + rng.Intn(7) // 4..10
			tt := truthtable.Random(n, rng)
			want := core.OptimalOrdering(tt, &core.SolveOptions{Rule: rule})
			got, err := core.Portfolio(nil, tt, &core.SolveOptions{Rule: rule})
			if err != nil {
				t.Fatalf("rule %v n=%d: %v", rule, n, err)
			}
			if got.MinCost != want.MinCost {
				t.Errorf("rule %v n=%d: portfolio MinCost = %d, DP = %d", rule, n, got.MinCost, want.MinCost)
			}
			if got.Size != core.SizeUnder(tt, got.Ordering, rule, nil) {
				t.Errorf("rule %v n=%d: reported size %d not achieved by returned ordering", rule, n, got.Size)
			}
		}
	}
}

// TestPortfolioDeadlineReturnsIncumbent is the acceptance deadline check:
// on a function large enough that no exact lane can finish in 50ms, the
// portfolio returns ErrCanceled promptly, carrying the heuristic
// incumbent — a valid ordering — instead of hanging.
func TestPortfolioDeadlineReturnsIncumbent(t *testing.T) {
	n := 14
	tt := truthtable.Random(n, rand.New(rand.NewSource(123)))
	ctx, cancel := stdctx.WithTimeout(stdctx.Background(), 50*time.Millisecond)
	defer cancel()
	m := &core.Meter{}
	start := time.Now()
	res, err := core.Portfolio(ctx, tt, &core.SolveOptions{Meter: m})
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("no incumbent returned; the heuristic phase always yields one")
	}
	if len(res.Ordering) != n || !res.Ordering.Valid() {
		t.Fatalf("incumbent ordering %v is not a permutation of %d variables", res.Ordering, n)
	}
	if got := core.SizeUnder(tt, res.Ordering, core.OBDD, nil); got != res.Size {
		t.Errorf("incumbent size %d but ordering achieves %d", res.Size, got)
	}
	// Promptness: the cooperative checkpoints fire per transition, so the
	// return should follow the deadline closely, not by seconds.
	if elapsed > 5*time.Second {
		t.Errorf("portfolio took %v past a 50ms deadline", elapsed)
	}
	if m.LiveCells != 0 {
		t.Errorf("LiveCells = %d after the race, want 0", m.LiveCells)
	}
}

// TestPortfolioTraceShowsWinner is the acceptance trace check: a
// completed portfolio run emits lane_start for the seeder and the DP
// lane, exactly one race_won naming the DP lane, and a final event for
// the seeder (lane_result if it finished first, lane_canceled if the
// DP's success stopped it).
func TestPortfolioTraceShowsWinner(t *testing.T) {
	tt := truthtable.Random(8, rand.New(rand.NewSource(5)))
	rec := obs.NewRecorder()
	res, err := core.Portfolio(nil, tt, &core.SolveOptions{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count(obs.KindLaneStart) != 2 {
		t.Errorf("lane_start events = %d, want 2 (heuristic + DP lane)", rec.Count(obs.KindLaneStart))
	}
	var won []obs.Event
	seederEnds := 0
	for _, ev := range rec.Events() {
		switch {
		case ev.Kind == obs.KindRaceWon:
			won = append(won, ev)
		case ev.Lane == "heuristic" && (ev.Kind == obs.KindLaneResult || ev.Kind == obs.KindLaneCanceled):
			seederEnds++
		}
	}
	if seederEnds != 1 {
		t.Errorf("seeder lane_result/lane_canceled events = %d, want exactly 1", seederEnds)
	}
	if len(won) != 1 {
		t.Fatalf("race_won events = %d, want exactly 1", len(won))
	}
	if lane := won[0].Lane; lane != "fs" {
		t.Errorf("race won by %q, want the DP lane fs", lane)
	}
	if won[0].Cost != res.MinCost {
		t.Errorf("race_won cost %d != result MinCost %d", won[0].Cost, res.MinCost)
	}
	// The collector folds the same stream into a portfolio report section.
	col := obs.NewCollector()
	for _, ev := range rec.Events() {
		col.Emit(ev)
	}
	rep := col.Report()
	if rep.Portfolio == nil || rep.Portfolio.Winner != "fs" {
		t.Errorf("collector report portfolio winner = %+v, want fs", rep.Portfolio)
	}
}

// TestPortfolioBudget verifies budget exhaustion degrades to the
// heuristic incumbent with ErrBudgetExceeded.
func TestPortfolioBudget(t *testing.T) {
	tt := truthtable.Random(10, rand.New(rand.NewSource(77)))
	res, err := core.Portfolio(nil, tt, &core.SolveOptions{Budget: core.Budget{MaxNodes: 30}})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil {
		t.Fatal("no incumbent returned")
	}
	if len(res.Ordering) != 10 || !res.Ordering.Valid() {
		t.Fatalf("incumbent ordering %v invalid", res.Ordering)
	}
}

// TestPortfolioMatchesFSExactly checks that a completed default-branch
// run is the dynamic program itself: the same optimum, ordering and
// profile as "fs", and — since the DP runs on the caller's meter — the
// same CellOps, Compactions and PeakCells.
func TestPortfolioMatchesFSExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, rule := range []core.Rule{core.OBDD, core.ZDD} {
		for n := 0; n <= 12; n++ {
			tt := truthtable.Random(n, rng)
			var mf, mp core.Meter
			want, err := core.OptimalOrderingCtx(stdctx.Background(), tt, &core.SolveOptions{Rule: rule, Meter: &mf})
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Portfolio(stdctx.Background(), tt, &core.SolveOptions{Rule: rule, Meter: &mp})
			if err != nil {
				t.Fatalf("rule %v n=%d: %v", rule, n, err)
			}
			if got.MinCost != want.MinCost || !got.Ordering.Equal(want.Ordering) || !equalU64(got.Profile, want.Profile) {
				t.Errorf("rule %v n=%d: portfolio (%d, %v, %v) != fs (%d, %v, %v)", rule, n,
					got.MinCost, got.Ordering, got.Profile, want.MinCost, want.Ordering, want.Profile)
			}
			if mp != mf {
				t.Errorf("rule %v n=%d: portfolio meter %+v != fs meter %+v", rule, n, mp, mf)
			}
		}
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPortfolioBudgetBranch checks the low-memory branch: a cell budget
// that admits branch-and-bound's 2^(n+1)−1 peak but not the DP's still
// gets the exact optimum, proven by branch-and-bound.
func TestPortfolioBudgetBranch(t *testing.T) {
	const n = 10
	rng := rand.New(rand.NewSource(41))
	for _, rule := range []core.Rule{core.OBDD, core.ZDD} {
		tt := truthtable.Random(n, rng)
		want := core.OptimalOrdering(tt, &core.SolveOptions{Rule: rule})
		for _, cells := range []uint64{1<<(n+1) - 1, 10000} {
			rec := obs.NewRecorder()
			m := &core.Meter{}
			got, err := core.Portfolio(stdctx.Background(), tt, &core.SolveOptions{
				Rule: rule, Meter: m, Trace: rec, Budget: core.Budget{MaxCells: cells},
			})
			if err != nil {
				t.Fatalf("rule %v MaxCells %d: %v", rule, cells, err)
			}
			if got.MinCost != want.MinCost {
				t.Errorf("rule %v MaxCells %d: MinCost %d, fs optimum %d", rule, cells, got.MinCost, want.MinCost)
			}
			if got.Size != core.SizeUnder(tt, got.Ordering, rule, nil) {
				t.Errorf("rule %v MaxCells %d: reported size not achieved by the ordering", rule, cells)
			}
			if m.PeakCells > cells || m.LiveCells != 0 {
				t.Errorf("rule %v MaxCells %d: peak %d live %d", rule, cells, m.PeakCells, m.LiveCells)
			}
			for _, ev := range rec.Events() {
				if ev.Kind == obs.KindRaceWon && ev.Lane != "bnb" {
					t.Errorf("rule %v MaxCells %d: won by %q, want bnb", rule, cells, ev.Lane)
				}
			}
		}
	}
}

// TestPortfolioNoGoroutineLeak checks that the seeder goroutine is
// joined before Portfolio returns, on a completed, a deadline-stopped
// and a budget-stopped solve. The seeder here takes 5ms to wind down
// after the default pipeline returns, so a solve that returned without
// joining it would leave it counted.
func TestPortfolioNoGoroutineLeak(t *testing.T) {
	slow := func(ctx stdctx.Context, tt *truthtable.Table, rule core.Rule, tr obs.Tracer) (truthtable.Ordering, uint64, bool) {
		defer time.Sleep(5 * time.Millisecond)
		return core.DefaultSeeder(ctx, tt, rule, tr)
	}
	rng := rand.New(rand.NewSource(3))
	deadline, cancel := stdctx.WithTimeout(stdctx.Background(), 20*time.Millisecond)
	defer cancel()
	for _, c := range []struct {
		name    string
		ctx     stdctx.Context
		n       int
		budget  core.Budget
		wantErr error
	}{
		{"completed", stdctx.Background(), 8, core.Budget{}, nil},
		{"deadline", deadline, 14, core.Budget{}, core.ErrCanceled},
		{"budget", stdctx.Background(), 9, core.Budget{MaxNodes: 10}, core.ErrBudgetExceeded},
	} {
		before := runtime.NumGoroutine()
		_, err := core.Portfolio(c.ctx, truthtable.Random(c.n, rng), &core.SolveOptions{Budget: c.budget, Seeder: slow})
		if !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.wantErr)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: goroutines: %d before, %d after the solve returned", c.name, before, after)
		}
	}
}

// TestRegistryNames pins the public solver names.
func TestRegistryNames(t *testing.T) {
	want := []string{"bnb", "brute", "dnc", "fs", "parallel", "portfolio"}
	got := core.SolverNames()
	if len(got) != len(want) {
		t.Fatalf("SolverNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SolverNames() = %v, want %v", got, want)
		}
	}
}
