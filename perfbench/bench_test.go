package main

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark's command, so
// that an untraced run can start its parts as child processes of it.
func TestMain(m *testing.M) {
	if os.Getenv(asCommand) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const asCommand = "PERFBENCH_TEST_AS_COMMAND"

// TestUntracedRunParts runs a short untraced run: it must start every
// part, answer every op correctly and report setup_s as the median over
// the parts and every other end-to-end metric as their mean.
func TestUntracedRunParts(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	t.Setenv(asCommand, "1")
	rep, err := execute(context.Background(), workloads["solve_large"], config{seed: 3, seconds: time.Second, part: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("%d of %d ops failed (first error %v)", rep.failed, rep.attempted, rep.firstErr)
	}
	perPart := rep.details["part_metrics"].(map[string][]float64)
	for _, d := range endToEndMetrics {
		m, ok := rep.metrics[d.name]
		if !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
		}
		want, vs := mean(perPart[d.name]), perPart[d.name]
		if d.name == "setup_s" {
			want = median(vs)
		}
		if d.name != "success_rate" && (len(vs) != parts || m.Value != want) {
			t.Errorf("%s = %v, want %v from the parts' %v", d.name, m.Value, want, vs)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics a
// run prints in step: the same workloads, and every metric with the
// same unit.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		if !maps.Equal(got, want) {
			t.Errorf("BENCHMARK.json %s metrics %v, benchmark prints %v", kind, got, want)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestTracedCountersRepeat is the benchmark's self-test: a short traced
// pass of every workload, run twice on one seed, answers every op
// correctly and repeats its deterministic counters exactly.
func TestTracedCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	short := map[string]int{"serve_hit": 40, "serve_miss": 40, "serve_batch": 3, "solve_large": 3}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := *workloads[name]
			w.traced = short[name]
			var runs []map[string]float64
			for r := 0; r < 2; r++ {
				rep, err := execute(context.Background(), &w, config{seed: 7, seconds: 200 * time.Millisecond, trace: true})
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 {
					t.Fatalf("run %d: %d of %d ops failed (first error %v)", r, rep.failed, rep.attempted, rep.firstErr)
				}
				if len(rep.metrics) != len(perLayerMetrics) {
					t.Fatalf("run %d printed %d metrics, want %d", r, len(rep.metrics), len(perLayerMetrics))
				}
				runs = append(runs, deterministic(rep.metrics))
			}
			if len(runs[0]) == 0 || !maps.Equal(runs[0], runs[1]) {
				t.Errorf("deterministic counters differ between two runs of one seed:\n%v\n%v", runs[0], runs[1])
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct {
		pct    float64
		want   float64
		beyond int
	}{{50, 500, 500}, {90, 900, 100}, {99, 990, 10}, {99.9, 999, 1}, {100, 1000, 0}} {
		if v, beyond := percentile(sorted, c.pct); v != c.want || beyond != c.beyond {
			t.Errorf("p%v of 1..1000 = %v with %d beyond, want %v with %d", c.pct, v, beyond, c.want, c.beyond)
		}
	}
}

// deterministic returns the counters that must repeat exactly across two
// traced runs of one seed.
func deterministic(m map[string]metric) map[string]float64 {
	out := map[string]float64{}
	for name, v := range m {
		switch {
		case name == "core.cell_ops", name == "core.peak_cells", name == "cache.hit_ratio",
			name == "server.coscheduled_ratio", strings.HasPrefix(name, "core.layer_cells."):
			out[name] = v.Value
		}
	}
	return out
}
