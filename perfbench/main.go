// Command perfbench is the repository's benchmark: it drives the obddd
// solve service and the library's Solve entry point with four seeded
// workloads, checks every answer, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as one JSON object on the last
// line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload serve_hit --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the
// steadiness record.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart anchors setup_s, which counts from process start.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	part := fs.Int("part", -1, "internal: the part of an untraced run to measure, printing its raw record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *part >= parts || (*part >= 0 && *trace != 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, part: *part}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep, err := execute(ctx, w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.part >= 0 {
		if rep.firstErr != nil {
			rep.details["first_op_error"] = rep.firstErr.Error()
		}
		line, err := json.Marshal(partRecord{
			Result:  result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics},
			Details: rep.details,
		})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		return 0
	}
	rep.print(stderr)

	// The fingerprint is taken after the run so that hashing the sources
	// stays out of the set-up time.
	fp := fingerprint(*seed)
	fpLine, _ := json.Marshal(map[string]any{"fingerprint": fp})
	fmt.Fprintln(stdout, string(fpLine))

	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	if err := writeRecord(outDir, w.name, cfg, fp, &res, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing the result record: %v\n", err)
		return 1
	}
	line, err := json.Marshal(&res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// outDir, under the directory the benchmark runs from, receives the
// result records and spans.
const outDir = ".bench_out"

// result is the contract line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeRecord stores the result with the host fingerprint and the run's
// details (tail percentile, sample counts, span self times), and the
// spans of a traced run, under dir.
func writeRecord(dir, workload string, cfg config, fp map[string]string, res *result, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", workload, cfg.seed, boolInt(cfg.trace))
	rec := map[string]any{
		"fingerprint": fp,
		"workload":    workload,
		"seconds":     cfg.seconds.Seconds(),
		"trace":       cfg.trace,
		"result":      res,
		"details":     rep.details,
	}
	if err := writeJSON(filepath.Join(dir, base+".json"), rec); err != nil {
		return err
	}
	if rep.spans == nil {
		return nil
	}
	return writeJSON(filepath.Join(dir, base+"-spans.json"), rep.spans)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
