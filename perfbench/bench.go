package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"obddopt/internal/cache"
)

type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// part is the part of an untraced run this process measures, or -1
	// in the process that runs the parts.
	part int
}

// parts is how many processes an untraced run is split into, one after
// another, each setting the workload up and measuring it for 1/parts of
// the run. setup_s is the median of the parts' set-up times, and every
// other end-to-end metric the mean of the parts' values: five processes
// average over the host's speed, which swings by a third within seconds
// on a shared 2-core VM, and over the random steps of a process's
// memory growth, where one long process would report one draw of each.
const parts = 5

// env is what a workload's set-up receives: the seed of its inputs and,
// in a traced run, the span recorder and the solver event sink.
type env struct {
	seed   int64
	tracer *tracer
	events *eventSink
}

// instance is one set-up workload. Ops are numbered from 0 in the order
// they run; op i's input is a function of the seed and i alone.
type instance interface {
	// op runs op i and keeps its outcome for check. It returns the
	// client-observed latency of the op's call, which excludes the
	// benchmark's own input generation. rs is nil outside the traced
	// pass.
	op(ctx context.Context, i int, rs *reqSpan) (time.Duration, error)
	// replay repeats op i's layer calls on the same input under rs and
	// adds the op's deterministic counters to c (traced pass only).
	replay(ctx context.Context, i int, rs *reqSpan, c *counts) error
	// check verifies the kept outcomes of ops [0, ops) against
	// references computed here, and returns how many ops failed.
	check(ctx context.Context, ops int) int
	// cacheStats snapshots the service's result cache (zero without one).
	cacheStats() cache.Stats
	close()
}

type workload struct {
	name string
	// traced is the fixed op count of the traced pass.
	traced int
	// tailPct is the percentile latency_tail_ms reports. It is fixed per
	// workload, so that a faster program never moves it further out. It
	// leaves at least ten samples beyond it in each part of a 25-second
	// run on a 2-core host (the record stores the counts), and it is no
	// higher than steadiness allows: serve_hit's p99 and p99.9 are set by
	// how many host stalls a run catches.
	tailPct float64
	// rssOps is the op count of a part's timed phase after which
	// peak_rss_mb is read, so that a program that runs more ops in the
	// same time is not charged for the memory they hold (the parallel
	// solver's grows with every solve). It is about half of a part's ops
	// on a 2-core host; a part that has not reached it when the time is
	// up runs further ops, untimed, until it has.
	rssOps int
	setup  func(ctx context.Context, e *env) (instance, error)
}

var workloads = map[string]*workload{
	"serve_hit":   {name: "serve_hit", traced: 1000, tailPct: 90, rssOps: 4000, setup: setupHit},
	"serve_miss":  {name: "serve_miss", traced: 300, tailPct: 98, rssOps: 500, setup: setupMiss},
	"serve_batch": {name: "serve_batch", traced: 30, tailPct: 90, rssOps: 100, setup: setupBatch},
	"solve_large": {name: "solve_large", traced: 30, tailPct: 90, rssOps: 80, setup: setupLarge},
}

// report is one run's outcome: the printed metrics, the counts behind
// them, and the details stored with the result.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	details   map[string]any
	spans     []span
	firstErr  error
}

// phase is the measurement of one untraced closed-loop phase.
type phase struct {
	ops        int       // timed ops
	untimed    int       // ops run after the time was up, to reach rssOps
	lat        []float64 // seconds, one per op
	wall, cpu  time.Duration
	allocBytes uint64
	numGC      uint32
	maxRSSKB   int64
	firstErr   error
}

// execute runs an untraced run's parts, or sets the workload up and
// runs one part, or the traced pass followed by an untraced phase, and
// checks every op's answer.
func execute(ctx context.Context, w *workload, cfg config) (*report, error) {
	if !cfg.trace && cfg.part < 0 {
		return runParts(ctx, w, cfg)
	}
	e := &env{seed: cfg.seed}
	if cfg.trace {
		e.tracer, e.events = newTracer(), &eventSink{}
	} else {
		// Each part draws its own inputs.
		e.seed = cfg.seed*parts + int64(cfg.part)
	}
	inst, err := w.setup(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(processStart)
	defer inst.close()

	rep := &report{details: map[string]any{
		"peak_rss_mb_after_setup": float64(maxRSSKB()) / 1024,
	}}
	if !cfg.trace {
		ph := timedPhase(ctx, inst, 0, cfg.seconds, w.rssOps)
		rep.attempted, rep.firstErr = ph.ops+ph.untimed, ph.firstErr
		rep.failed = inst.check(ctx, rep.attempted)
		rep.metrics = endToEnd(ph, w.tailPct, rep.failed, setup, rep.details)
		return rep, nil
	}

	tp, err := tracedPass(ctx, w, inst, e)
	if err != nil {
		return nil, err
	}
	ph := timedPhase(ctx, inst, w.traced, cfg.seconds/2, 0)
	rep.attempted, rep.firstErr = w.traced+ph.ops, ph.firstErr
	rep.failed = inst.check(ctx, rep.attempted)
	rep.spans = tp.spans
	rep.metrics = layerMetrics(tp, &ph, rep.details)
	return rep, nil
}

// partRecord is the last line a part prints on its standard output.
type partRecord struct {
	Result  result         `json:"result"`
	Details map[string]any `json:"details"`
}

// runParts runs an untraced run's parts, each a child process of this
// program started after the previous one has ended, and reports the
// median of their set-up times and the mean of every other metric;
// success_rate counts the ops of all parts.
func runParts(ctx context.Context, w *workload, cfg config) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark's binary: %w", err)
	}
	rep := &report{metrics: map[string]metric{}}
	values := map[string][]float64{}
	var records []map[string]any
	beyond := math.MaxInt
	for p := 0; p < parts; p++ {
		cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds.Seconds()/parts), "--trace", "0", "--part", fmt.Sprint(p))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", p, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var pr partRecord
		if err := json.Unmarshal(lines[len(lines)-1], &pr); err != nil {
			return nil, fmt.Errorf("part %d printed no record: %w", p, err)
		}
		rep.attempted += pr.Result.Attempted
		rep.failed += pr.Result.Failed
		if msg, ok := pr.Details["first_op_error"].(string); ok && rep.firstErr == nil {
			rep.firstErr = fmt.Errorf("part %d: %s", p, msg)
		}
		for name, m := range pr.Result.Metrics {
			values[name] = append(values[name], m.Value)
			rep.metrics[name] = metric{Unit: m.Unit}
		}
		records = append(records, pr.Details)
		if n, ok := pr.Details["latency_tail_samples_beyond"].(float64); ok {
			beyond = min(beyond, int(n))
		}
	}
	for name, vs := range values {
		v := mean(vs)
		if name == "setup_s" {
			v = median(vs)
		}
		rep.metrics[name] = metric{v, rep.metrics[name].Unit}
	}
	rep.metrics["success_rate"] = metric{float64(rep.attempted-rep.failed) / float64(rep.attempted), "ratio"}
	rep.details = map[string]any{"part_metrics": values, "parts": records,
		"latency_tail_percentile": w.tailPct, "latency_tail_samples_beyond_min": beyond}
	return rep, nil
}

// tracedOutcome is what the traced pass measured.
type tracedOutcome struct {
	ops            int
	spans          []span
	events         *eventSink
	counts         *counts
	cache0, cache1 cache.Stats
}

// tracedPass runs the workload's first w.traced ops with spans around
// every call, each followed by a replay of its layer calls.
func tracedPass(ctx context.Context, w *workload, inst instance, e *env) (*tracedOutcome, error) {
	out := &tracedOutcome{ops: w.traced, events: e.events, counts: &counts{}}
	out.cache0 = inst.cacheStats()
	e.events.on.Store(true)
	for i := 0; i < w.traced; i++ {
		req := fmt.Sprintf("%s-%d", w.name, i)
		root := &reqSpan{t: e.tracer, req: req, id: e.tracer.begin(req, "op", -1)}
		_, _ = inst.op(ctx, i, root) // a failed op is counted by check
		rp := root.start("replay")
		err := inst.replay(ctx, i, rp, out.counts)
		rp.finish()
		root.finish()
		if err != nil {
			return nil, fmt.Errorf("replaying op %d: %w", i, err)
		}
	}
	e.events.on.Store(false)
	out.cache1 = inst.cacheStats()
	out.spans = e.tracer.snapshot()
	return out, nil
}

// timedPhase runs ops from index from in a closed loop (one op in
// flight) for d. It reads the peak resident set after the phase's
// rssOps-th op, running ops past d, untimed, until there is one; with
// rssOps 0 it reads it when the time is up.
func timedPhase(ctx context.Context, inst instance, from int, d time.Duration, rssOps int) phase {
	var ph phase
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	i := from
	run := func() time.Duration {
		lat, err := inst.op(ctx, i, nil)
		if err != nil && ph.firstErr == nil {
			ph.firstErr = fmt.Errorf("op %d: %w", i, err)
		}
		if i++; i-from == rssOps {
			ph.maxRSSKB = maxRSSKB()
		}
		return lat
	}
	for time.Now().Before(deadline) && ctx.Err() == nil {
		ph.lat = append(ph.lat, run().Seconds())
	}
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ph.ops = len(ph.lat)
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ph.numGC = m1.NumGC - m0.NumGC
	for i-from < rssOps && ctx.Err() == nil {
		run()
		ph.untimed++
	}
	if ph.maxRSSKB == 0 {
		ph.maxRSSKB = maxRSSKB()
	}
	return ph
}

// endToEnd derives the end-to-end metrics of one part.
func endToEnd(ph phase, tailPct float64, failed int, setup time.Duration, details map[string]any) map[string]metric {
	sorted := append([]float64(nil), ph.lat...)
	sort.Float64s(sorted)
	tail, beyond := percentile(sorted, tailPct)
	details["ops"] = ph.ops
	details["untimed_ops"] = ph.untimed
	details["latency_tail_percentile"] = tailPct
	details["latency_tail_samples_beyond"] = beyond
	details["timed_wall_s"] = ph.wall.Seconds()
	pcts := map[string]float64{}
	for _, p := range []float64{90, 99, 99.9} {
		v, _ := percentile(sorted, p)
		pcts[fmt.Sprint(p)] = v * 1e3
	}
	details["latency_percentiles_ms"] = pcts
	n := float64(ph.ops)
	all := float64(ph.ops + ph.untimed)
	return map[string]metric{
		"setup_s":         {setup.Seconds(), "s"},
		"latency_p50_ms":  {median(sorted) * 1e3, "ms"},
		"latency_tail_ms": {tail * 1e3, "ms"},
		"throughput_ops":  {n / ph.wall.Seconds(), "1/s"},
		"success_rate":    {(all - float64(failed)) / all, "ratio"},
		"cpu_ms_per_op":   {ms(ph.cpu) / n, "ms"},
		"peak_rss_mb":     {float64(ph.maxRSSKB) / 1024, "MB"},
	}
}

// percentile returns the nearest-rank pct-th percentile of sorted and
// how many samples lie beyond it.
func percentile(sorted []float64, pct float64) (value float64, beyond int) {
	// The epsilon keeps float error (99.9/100*1000 = 999.0000000000001)
	// from pushing the rank up by one.
	rank := int(math.Ceil(pct/100*float64(len(sorted)) - 1e-9))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSKB is the process's peak resident set so far, in KiB (Linux
// reports ru_maxrss in KiB).
func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// forEach runs f(0..n-1) on GOMAXPROCS goroutines and counts the calls
// that returned false. Answer checking uses it outside the timed phase.
func forEach(n int, f func(i int) bool) int {
	workers := runtime.GOMAXPROCS(0)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		next   int
		failed int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if !f(i) {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return failed
}

// print writes a human-readable summary of the run to w.
func (r *report) print(w io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.attempted, r.failed)
	if r.firstErr != nil {
		fmt.Fprintf(w, "first op error: %v\n", r.firstErr)
	}
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s", n, m.Value, m.Unit)
		if pct, ok := r.details["latency_tail_percentile"].(float64); ok && n == "latency_tail_ms" {
			fmt.Fprintf(w, " (p%v; at least %d samples beyond it in every part)", pct, r.details["latency_tail_samples_beyond_min"])
		}
		fmt.Fprintln(w)
	}
	if self, ok := r.details["span_self_ms_p50"].(map[string]float64); ok {
		fmt.Fprintln(w, "span self time (median ms):")
		keys := make([]string, 0, len(self))
		for k := range self {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-28s %14.6g\n", k, self[k])
		}
	}
}
