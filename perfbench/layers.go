package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"obddopt"
	"obddopt/internal/obs"
)

// maxLayerK is the largest popcount layer reported: solve_large's n.
const maxLayerK = 13

// endToEndMetrics and perLayerMetrics name every metric a run prints,
// with its unit; BENCHMARK.json lists the same (see bench_test.go).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops", "1/s"},
	{"success_rate", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"server.handler_ms", "ms"},
		{"server.transport_ms", "ms"},
		{"server.coscheduled_ratio", "ratio"},
		{"truthtable.hex_us", "us"},
		{"truthtable.parse_us", "us"},
		{"cache.key_us", "us"},
		{"cache.get_us", "us"},
		{"cache.hit_ratio", "ratio"},
		{"cache.evictions_per_op", "count"},
		{"cache.bytes_mb", "MB"},
		{"core.solve_ms", "ms"},
		{"core.cell_ops", "count"},
		{"core.peak_cells", "count"},
		{"core.compactions", "count"},
	}
	for k := 1; k <= maxLayerK; k++ {
		defs = append(defs, metricDef{fmt.Sprintf("core.layer_ms.k%02d", k), "ms"})
	}
	for k := 1; k <= maxLayerK; k++ {
		defs = append(defs, metricDef{fmt.Sprintf("core.layer_cells.k%02d", k), "count"})
	}
	return append(defs,
		metricDef{"core.race_won_dp_ratio", "ratio"},
		metricDef{"core.shared_ms", "ms"},
		metricDef{"heuristics.seed_ms", "ms"},
		metricDef{"artifact.build_ms", "ms"},
		metricDef{"artifact.encode_us", "us"},
		metricDef{"artifact.decode_us", "us"},
		metricDef{"artifact.verify_ms", "ms"},
		metricDef{"artifact.bytes", "bytes"},
		metricDef{"runtime.alloc_kb_per_op", "KiB"},
		metricDef{"runtime.gc_per_kop", "count"},
		metricDef{"trace.overhead_p50_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

type metricDef struct{ name, unit string }

// counts accumulates the traced pass's deterministic counters. The core
// counters are the serial Friedman–Supowit DP's (solver "fs") meter on
// every function the ops asked for, so they repeat exactly for a seed.
type counts struct {
	funcs                        int
	cellOps, peakCells, compacts uint64
	layerCells                   [maxLayerK + 1]uint64
	artifactBytes, artifacts     int
	items, coscheduled           int
}

func (c *counts) addRef(r *reference) {
	c.funcs++
	c.cellOps += r.meter.CellOps
	c.peakCells += r.meter.PeakCells
	c.compacts += r.meter.Compactions
	for k, cells := range r.layerCells {
		if k <= maxLayerK {
			c.layerCells[k] += cells
		}
	}
}

// layerMetrics derives the per-layer metrics of a traced run from the
// traced pass and the untraced phase that followed it.
func layerMetrics(tp *tracedOutcome, ph *phase, details map[string]any) map[string]metric {
	durs, self := spanStats(tp.spans)
	p50 := func(name string, scale float64) float64 { return median(durs[name]) * scale }
	c := tp.counts
	perFunc := func(v uint64) float64 {
		if c.funcs == 0 {
			return 0
		}
		return float64(v) / float64(c.funcs)
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	v := map[string]float64{
		"server.handler_ms":        p50("server.handler", 1e3),
		"server.coscheduled_ratio": ratio(c.coscheduled, c.items),
		"truthtable.hex_us":        p50("truthtable.hex", 1e6),
		"truthtable.parse_us":      p50("truthtable.parse", 1e6),
		"cache.key_us":             p50("cache.key", 1e6),
		"cache.get_us":             p50("cache.get", 1e6),
		"core.solve_ms":            p50("core.solve", 1e3),
		"core.cell_ops":            perFunc(c.cellOps),
		"core.peak_cells":          perFunc(c.peakCells),
		"core.compactions":         perFunc(c.compacts),
		"core.shared_ms":           p50("core.shared", 1e3),
		"artifact.build_ms":        p50("artifact.build", 1e3),
		"artifact.encode_us":       p50("artifact.encode", 1e6),
		"artifact.decode_us":       p50("artifact.decode", 1e6),
		"artifact.verify_ms":       p50("artifact.verify", 1e3),
		"artifact.bytes":           ratio(c.artifactBytes, c.artifacts),
	}
	if len(durs["server.handler"]) > 0 {
		// The client call's self time: what the call cost beyond the
		// handler serving it (HTTP, JSON and hex on both sides).
		v["server.transport_ms"] = median(self["client.call"]) * 1e3
	}

	hits := tp.cache1.Hits - tp.cache0.Hits
	lookups := hits + tp.cache1.Misses - tp.cache0.Misses
	v["cache.hit_ratio"] = ratio(int(hits), int(lookups))
	v["cache.evictions_per_op"] = ratio(int(tp.cache1.Evictions-tp.cache0.Evictions), tp.ops)
	v["cache.bytes_mb"] = float64(tp.cache1.Bytes) / (1 << 20)

	ev := tp.events
	for k := 1; k <= maxLayerK; k++ {
		v[fmt.Sprintf("core.layer_ms.k%02d", k)] = median(ev.layerMS[k])
		v[fmt.Sprintf("core.layer_cells.k%02d", k)] = perFunc(c.layerCells[k])
	}
	v["core.race_won_dp_ratio"] = ratio(ev.dpWins, ev.races)
	v["heuristics.seed_ms"] = median(ev.seedMS)

	n := float64(ph.ops)
	v["runtime.alloc_kb_per_op"] = float64(ph.allocBytes) / 1024 / n
	v["runtime.gc_per_kop"] = float64(ph.numGC) * 1000 / n
	traced, untraced := median(durs["client.call"])*1e3, median(ph.lat)*1e3
	v["trace.overhead_p50_ms"] = traced - untraced
	v["trace.overhead_pct"] = 100 * (traced - untraced) / untraced

	selfP50 := make(map[string]float64, len(self))
	for name, xs := range self {
		selfP50[name] = median(xs) * 1e3
	}
	details["span_self_ms_p50"] = selfP50
	details["traced_ops"] = tp.ops
	details["untraced_ops"] = ph.ops
	details["traced_call_p50_ms"] = traced
	details["untraced_call_p50_ms"] = untraced

	out := make(map[string]metric, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		out[d.name] = metric{v[d.name], d.unit}
	}
	return out
}

// reference is the serial DP's answer for one (function, rule), with its
// meter and per-layer cell operations: the checks' oracle and the
// traced pass's counters.
type reference struct {
	res        *obddopt.Result
	meter      obddopt.Meter
	layerCells map[int]uint64
}

type tracerFunc func(obs.Event)

func (f tracerFunc) Emit(ev obs.Event) { f(ev) }

// refs memoizes references by table and rule; safe for concurrent use.
// Every input table is its own value, so the pointer identifies it.
type refs struct {
	mu sync.Mutex
	m  map[refKey]*reference
}

type refKey struct {
	tt   *obddopt.Table
	rule obddopt.Rule
}

func (r *refs) get(ctx context.Context, tt *obddopt.Table, rule obddopt.Rule) (*reference, error) {
	key := refKey{tt, rule}
	r.mu.Lock()
	ref, ok := r.m[key]
	r.mu.Unlock()
	if ok {
		return ref, nil
	}
	ref = &reference{layerCells: map[int]uint64{}}
	// The serial DP emits from the calling goroutine only.
	layers := tracerFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindLayerEnd {
			ref.layerCells[ev.K] += ev.CellOps
		}
	})
	res, err := obddopt.Solve(ctx, tt, obddopt.WithSolver("fs"), obddopt.WithRule(rule),
		obddopt.WithMeter(&ref.meter), obddopt.WithTrace(layers))
	if err != nil {
		return nil, fmt.Errorf("fs reference: %w", err)
	}
	ref.res = res
	r.mu.Lock()
	if r.m == nil {
		r.m = make(map[refKey]*reference)
	}
	r.m[key] = ref
	r.mu.Unlock()
	return ref, nil
}

// answer is what the checks need of a returned result, kept small so
// that holding one per function does not inflate the run's memory.
type answer struct {
	ok    bool   // a result arrived, with an ordering that packs into order
	cost  uint64 // its MinCost
	order uint64 // its bottom-up ordering, 4 bits per variable
}

func answerOf(res *obddopt.Result, n int) answer {
	if res == nil || len(res.Ordering) != n || n > 16 {
		return answer{}
	}
	a := answer{ok: true, cost: res.MinCost}
	for i, v := range res.Ordering {
		if v < 0 || v >= 16 {
			return answer{}
		}
		a.order |= uint64(v) << (4 * i)
	}
	return a
}

func (a answer) ordering(n int) obddopt.Ordering {
	o := make(obddopt.Ordering, n)
	for i := range o {
		o[i] = int(a.order >> (4 * i) & 15)
	}
	return o
}

// checkAnswer verifies a returned result for tt under rule: its cost
// equals the reference optimum, when there is a reference, and its
// ordering, re-evaluated level by level, sums to its reported cost. The
// second check alone proves the cost is tt's true size under the
// ordering, and so at least the optimum.
func checkAnswer(tt *obddopt.Table, rule obddopt.Rule, a answer, ref *reference) error {
	if !a.ok {
		return fmt.Errorf("no result with a %d-variable ordering", tt.NumVars())
	}
	if ref != nil && a.cost != ref.res.MinCost {
		return fmt.Errorf("cost %d, optimum %d", a.cost, ref.res.MinCost)
	}
	order := a.ordering(tt.NumVars())
	if !order.Valid() {
		return fmt.Errorf("ordering %v is not a permutation", order)
	}
	var sum uint64
	for _, w := range obddopt.Profile(tt, order, rule) {
		sum += w
	}
	if sum != a.cost {
		return fmt.Errorf("ordering evaluates to %d nodes, result reports %d", sum, a.cost)
	}
	return nil
}

// checkArtifact verifies encoded artifact bytes served for tt with
// result a: they decode, re-encode to themselves, denote tt, and carry
// a's ordering and node count.
func checkArtifact(enc []byte, tt *obddopt.Table, a answer) error {
	art, err := obddopt.DecodeArtifact(enc)
	if err != nil {
		return err
	}
	if !bytes.Equal(art.Encode(), enc) {
		return fmt.Errorf("artifact does not re-encode to its bytes")
	}
	if err := obddopt.VerifyArtifact(art, tt); err != nil {
		return err
	}
	if !art.Ordering().Equal(a.ordering(tt.NumVars())) || art.NodeCount() != a.cost {
		return fmt.Errorf("artifact has %d nodes under %v, result %d under %v",
			art.NodeCount(), art.Ordering(), a.cost, a.ordering(tt.NumVars()))
	}
	return nil
}
