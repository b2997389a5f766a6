package core

import (
	stdctx "context"
	"fmt"
	"sort"
	"sync"
	"time"

	"obddopt/internal/core/lattice"
	"obddopt/internal/obs"
	"obddopt/internal/truthtable"
)

// This file is the portfolio policy and the named-solver registry behind
// the top-level Solve API. The portfolio runs the Friedman–Supowit dynamic
// program — exact, with O*(3^n) work and a peak that depends on n alone —
// and keeps a cheap heuristic incumbent as the graceful-degradation answer
// for a run a deadline or budget stops. Branch-and-bound, whose one real
// advantage is its Θ(2^n) peak, runs only when a cell budget rules the
// dynamic program out.

// SolveOptions is the option set shared by every registered solver. It is
// a superset of the per-algorithm option structs: fields irrelevant to a
// given solver (Workers for the serial DP, Seeder for anything but the
// portfolio) are ignored.
type SolveOptions struct {
	// Rule selects the diagram variant (OBDD or ZDD).
	Rule Rule
	// Meter, if non-nil, accumulates operation counts. The portfolio runs
	// its exact lane on it directly, so its counters equal that solver's.
	Meter *Meter
	// Trace, if non-nil, receives the solver's events; the portfolio
	// additionally emits lane_start / lane_result / race_won /
	// lane_canceled events. Implementations must be safe for concurrent
	// Emit calls (all of internal/obs's are): the portfolio's seeder
	// emits from its own goroutine.
	Trace obs.Tracer
	// Budget bounds the run's resources; the zero value is unlimited.
	// The portfolio picks its exact lane by the cell budget and applies
	// the budget to it.
	Budget Budget
	// Workers is the goroutine count for the parallel DP; 0 selects
	// GOMAXPROCS.
	Workers int
	// ShardBits overrides the work-stealing scheduler's shard granularity:
	// when positive, each popcount layer is split into shards of 2^ShardBits
	// ranks. 0 (the default) sizes shards automatically from the layer size
	// and worker count. Setting it also keeps the pipeline engaged at
	// Workers == 1, which scheduling tests use to exercise shard seams
	// without concurrency.
	ShardBits int
	// Pinned disables work stealing: each worker runs only shards it
	// claimed itself. Useful for isolating scheduling effects; throughput
	// is generally worse than the stealing default.
	Pinned bool
	// Seeder overrides the heuristic seeding phase of the portfolio; nil
	// selects DefaultSeeder.
	Seeder Seeder
}

func (o *SolveOptions) rule() Rule {
	if o == nil {
		return OBDD
	}
	return o.Rule
}

func (o *SolveOptions) meter() *Meter {
	if o == nil {
		return nil
	}
	return o.Meter
}

func (o *SolveOptions) trace() obs.Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

func (o *SolveOptions) budget() Budget {
	if o == nil {
		return Budget{}
	}
	return o.Budget
}

func (o *SolveOptions) workers() int {
	if o == nil {
		return 0
	}
	return o.Workers
}

func (o *SolveOptions) shardBits() int {
	if o == nil {
		return 0
	}
	return o.ShardBits
}

func (o *SolveOptions) pinnedSchedule() bool {
	if o == nil {
		return false
	}
	return o.Pinned
}

// Seeder is a heuristic ordering pass: it returns an ordering of tt's
// variables, the diagram cost (nonterminals) under that ordering, and
// whether it produced anything. It must respect ctx — stopping early and
// returning its best-so-far — and must tolerate a nil tracer.
type Seeder func(ctx stdctx.Context, tt *truthtable.Table, rule Rule, tr obs.Tracer) (truthtable.Ordering, uint64, bool)

// DefaultSeeder is the heuristic phase the portfolio uses when
// SolveOptions.Seeder is nil. The heuristics package installs its
// Sift→Anneal pipeline here from an init function — a package hook in
// the database/sql-driver style, needed because heuristics imports core
// and core cannot import it back. A nil DefaultSeeder (heuristics not
// linked in) skips the seeding phase.
var DefaultSeeder Seeder

// Solver is a registered solving strategy behind one name of the Solve
// API. Implementations honor ctx and opts.Budget cooperatively and
// return ErrCanceled / ErrBudgetExceeded on early stops, with a non-nil
// *Result alongside the error when a usable incumbent exists.
type Solver func(ctx stdctx.Context, tt *truthtable.Table, opts *SolveOptions) (*Result, error)

var (
	solverMu  sync.RWMutex
	solverReg = make(map[string]Solver)
)

// RegisterSolver makes a solving strategy available under name (as used
// by Solve's WithSolver option and the CLIs' -solver flag). It panics if
// the name is empty, the solver nil, or the name already taken — the
// same contract as database/sql.Register.
func RegisterSolver(name string, s Solver) {
	solverMu.Lock()
	defer solverMu.Unlock()
	if name == "" || s == nil {
		panic("core: RegisterSolver with empty name or nil solver") //lint:allow nopanic database/sql-style registration contract: misregistration is a linker-time programmer error
	}
	if _, dup := solverReg[name]; dup {
		panic("core: RegisterSolver called twice for " + name) //lint:allow nopanic database/sql-style registration contract: misregistration is a linker-time programmer error
	}
	solverReg[name] = s
}

// LookupSolver returns the solver registered under name.
func LookupSolver(name string) (Solver, bool) {
	solverMu.RLock()
	defer solverMu.RUnlock()
	s, ok := solverReg[name]
	return s, ok
}

// SolverNames lists the registered solver names, sorted.
func SolverNames() []string {
	solverMu.RLock()
	defer solverMu.RUnlock()
	names := make([]string, 0, len(solverReg))
	for n := range solverReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterSolver("fs", OptimalOrderingCtx)
	RegisterSolver("parallel", OptimalOrderingParallel)
	RegisterSolver("bnb", func(ctx stdctx.Context, tt *truthtable.Table, opts *SolveOptions) (*Result, error) {
		return BranchAndBoundCtx(ctx, tt, &BnBOptions{Rule: opts.rule(), Meter: opts.meter(), Trace: opts.trace(), Budget: opts.budget()})
	})
	RegisterSolver("dnc", func(ctx stdctx.Context, tt *truthtable.Table, opts *SolveOptions) (*Result, error) {
		return DivideAndConquerCtx(ctx, tt, &DnCOptions{Rule: opts.rule(), Meter: opts.meter(), Trace: opts.trace(), Budget: opts.budget()})
	})
	RegisterSolver("brute", func(ctx stdctx.Context, tt *truthtable.Table, opts *SolveOptions) (*Result, error) {
		return BruteForceCtx(ctx, tt, &BruteForceOptions{Rule: opts.rule(), Meter: opts.meter(), Budget: opts.budget(), Prune: true})
	})
	RegisterSolver("portfolio", Portfolio)
}

// parallelLaneThreshold is the variable count above which the portfolio
// runs the multi-core dynamic program: below it the layers are too small
// for the fan-out to pay for goroutine coordination.
const parallelLaneThreshold = 12

// dpPeakCells predicts Meter.PeakCells of the serial dynamic program
// ("fs") on any n-variable function under either rule. Table sizes depend
// on n and the layer k alone, never on the function: while layer k is
// built, the base table, the completed layer k−1, every layer-k table and
// one transient candidate (allocated before it is kept or dropped) are
// live. At k = 1 the base table is the previous layer and no candidate is
// ever dropped, since each layer-1 subset has a single predecessor.
func dpPeakCells(n int) uint64 {
	base := uint64(1) << uint(n)
	rk := lattice.For(n)
	peak := base
	for k := 1; k <= n; k++ {
		live := base + rk.LayerSize(k)*(base>>uint(k))
		if k > 1 {
			live += rk.LayerSize(k-1)*(base>>uint(k-1)) + base>>uint(k)
		}
		peak = max(peak, live)
	}
	return peak
}

// bnbPeakCells is branch-and-bound's peak: the tables along one DFS path,
// 2^n + 2^(n−1) + … + 1 cells.
func bnbPeakCells(n int) uint64 { return uint64(2)<<uint(n) - 1 }

// Portfolio is the registered "portfolio" solver, the default behind
// Solve and the solve service: a deterministic DP-first policy around
// the Friedman–Supowit dynamic program, with the heuristic seeder
// (DefaultSeeder — Sift then simulated annealing) kept only as the
// incumbent for runs that stop early. The returned cost is exact
// whenever err is nil.
//
//   - Default: the dynamic program runs inline on the caller's Meter and
//     Tracer — "fs", or "parallel" above parallelLaneThreshold variables
//     when no cell budget is set (a cell budget keeps the serial DP, the
//     one whose peak dpPeakCells predicts exactly). The seeder runs
//     alongside on one goroutine and is canceled once the DP succeeds,
//     so a completed run returns exactly what "fs" returns.
//   - When Budget.MaxCells is below the DP's predicted peak but admits
//     branch-and-bound's Θ(2^n) path, the seeder runs first and
//     branch-and-bound runs inline, bounded by the seeder's cost plus one.
//
// On cancellation or budget exhaustion the best incumbent — the seeder's,
// or branch-and-bound's — is returned alongside the error, so callers
// degrade to a valid, merely unproven, ordering instead of nothing.
func Portfolio(ctx stdctx.Context, tt *truthtable.Table, opts *SolveOptions) (*Result, error) {
	n, rule, tr, budget := tt.NumVars(), opts.rule(), opts.trace(), opts.budget()
	sp, start := obs.SpanFromContext(ctx), time.Now()
	seeder := DefaultSeeder
	if opts != nil && opts.Seeder != nil {
		seeder = opts.Seeder
	}
	// narrate reports one lane event to the tracer and the request span.
	narrate := func(ev obs.Event) {
		if tr != nil {
			tr.Emit(ev)
		}
		if sp != nil {
			sp.Event(ev.Kind.String() + ":" + ev.Lane)
		}
	}
	var (
		incOrder truthtable.Ordering
		incCost  uint64
		haveInc  bool
	)
	seed := func(c stdctx.Context) time.Duration {
		t := time.Now()
		incOrder, incCost, haveInc = seeder(c, tt, rule, tr)
		return time.Since(t)
	}
	seedDone := func(elapsed time.Duration) {
		ev := obs.Event{Kind: obs.KindLaneResult, Lane: "heuristic", Elapsed: elapsed}
		if haveInc {
			ev.Cost = incCost
		}
		narrate(ev)
	}
	incumbent := func() *Result {
		if !haveInc {
			return nil
		}
		return finishResult(tt, nil, incOrder, incCost, rule, nil)
	}
	// exact runs one exact lane inline on the caller's meter (a private
	// one when the caller has none, so the per-lane histograms still see
	// the lane's counts); its success is the portfolio's answer.
	exact := func(name string, run func(*Meter) (*Result, error)) (*Result, error) {
		narrate(obs.Event{Kind: obs.KindLaneStart, Lane: name})
		m := opts.meter()
		if m == nil {
			m = &Meter{}
		}
		// Gauge the lane's own peak, then restore the caller's
		// high-water mark if it was higher.
		cells, live, peak := m.CellOps, m.LiveCells, m.PeakCells
		m.PeakCells = live
		t := time.Now()
		res, err := run(m)
		elapsed := time.Since(t)
		obs.Hist(obs.HistNameLaneWall, "lane", name).RecordDuration(elapsed)
		obs.Hist(obs.HistNameLaneCells, "lane", name).Record(m.CellOps - cells)
		obs.Hist(obs.HistNameLanePeak, "lane", name).Record(m.PeakCells - live)
		m.PeakCells = max(m.PeakCells, peak)
		if res != nil {
			narrate(obs.Event{Kind: obs.KindLaneResult, Lane: name, Cost: res.MinCost, Elapsed: elapsed})
		}
		if err == nil {
			narrate(obs.Event{Kind: obs.KindRaceWon, Lane: name, Cost: res.MinCost, Elapsed: time.Since(start)})
		}
		return res, err
	}

	if c := budget.MaxCells; c > 0 && c < dpPeakCells(n) && c >= bnbPeakCells(n) {
		if seeder != nil {
			narrate(obs.Event{Kind: obs.KindLaneStart, Lane: "heuristic"})
			seedDone(seed(ctx))
		}
		if ctx != nil && ctx.Err() != nil {
			return incumbent(), fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
		}
		res, err := exact("bnb", func(m *Meter) (*Result, error) {
			o := &BnBOptions{Rule: rule, Meter: m, Trace: tr, Budget: budget}
			if haveInc {
				// One above the incumbent, so a truly optimal incumbent
				// is still rediscovered (and thereby proven) rather than
				// pruned away.
				o.InitialBound = incCost + 1
			}
			return BranchAndBoundCtx(ctx, tt, o)
		})
		// Branch-and-bound's own incumbent comes from exact search below
		// the seeder's bound, so it is the better one whenever it exists.
		if err != nil && res == nil {
			res = incumbent()
		}
		return res, err
	}

	name, dp := "fs", OptimalOrderingCtx
	if n > parallelLaneThreshold && budget.MaxCells == 0 {
		name, dp = "parallel", OptimalOrderingParallel
	}
	var dpOpts SolveOptions
	if opts != nil {
		dpOpts = *opts
	}
	solveDP := func(m *Meter) (*Result, error) {
		dpOpts.Meter = m
		return dp(ctx, tt, &dpOpts)
	}
	if seeder == nil {
		return exact(name, solveDP)
	}
	seedCtx, cancelSeed := stdctx.WithCancel(ctxOrBackground(ctx))
	defer cancelSeed()
	narrate(obs.Event{Kind: obs.KindLaneStart, Lane: "heuristic"})
	seeded := make(chan time.Duration, 1)
	go func() { seeded <- seed(seedCtx) }()
	res, err := exact(name, solveDP)
	if err == nil {
		select {
		case elapsed := <-seeded:
			seedDone(elapsed)
		default:
			cancelSeed()
			<-seeded
			narrate(obs.Event{Kind: obs.KindLaneCanceled, Lane: "heuristic"})
		}
		return res, nil
	}
	// The DP stopped early and holds no incumbent. A deadline has already
	// stopped the seeder with its best-so-far; under an exhausted budget
	// it runs to completion, its answer being the only one left.
	seedDone(<-seeded)
	return incumbent(), err
}

// ctxOrBackground keeps nil-context callers working with the stdlib
// context tree (WithCancel panics on nil).
func ctxOrBackground(ctx stdctx.Context) stdctx.Context {
	if ctx == nil {
		return stdctx.Background() //lint:allow ctxcheckpoint sanctioned nil-context shim: WithCancel panics on nil, legacy callers pass nil
	}
	return ctx
}
