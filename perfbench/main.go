// Command perfbench is darklight's end-to-end benchmark. It builds the
// attribution daemon exactly as cmd/attributed does by default, drives one
// named workload against it from inside the same process, checks every
// output, and prints the metrics BENCHMARK.json names.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload rank-alias --seed 1 --seconds 10 --trace 0
//
// Workloads: rank-alias, match-inline, batch-link, journal-reload (see
// BENCHMARK.json for why each exists). With --trace 0 the run measures
// the end-to-end metrics with no tracing; with --trace 1 it replays the
// same inputs sequentially, times each layer around calls to its public
// functions, writes the spans to .bench_build/spans-<workload>-<seed>.jsonl
// and prints the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero when any output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one benchmark run's settings and collects its report.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string
	// conns is the load generator's connection and sender count: nproc,
	// capped at the 2 the nominal rates were fixed on, so runs on larger
	// machines drive the daemon the same way.
	conns int

	// tr records layer spans in the traced run; nil otherwise.
	tr *spanRecorder

	// layer holds the traced run's per-layer samples by metric name.
	layer map[string][]float64

	res        result
	mismatches []string
	lines      []string
}

// add records a metric for the result line and a report line with its
// sample count and any note.
func (r *run) add(name string, value float64, unit string, samples int, note string) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
	line := fmt.Sprintf("%-28s %14.6g %-6s n=%d", name, value, unit, samples)
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

// note records a report line that is not a result metric.
func (r *run) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// mismatch records a failed output check.
func (r *run) mismatch(format string, args ...any) {
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
	r.res.Correct = false
}

// ops counts operations for the result line.
func (r *run) ops(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed of the run's inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
		root     = flag.String("root", ".", "repository root; run files go under its .bench_build/")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		root:     *root,
		conns:    min(runtime.GOMAXPROCS(0), 2),
		res:      result{Correct: true, Metrics: map[string]metric{}},
	}
	if r.trace {
		r.tr = newSpanRecorder()
	}
	if err := os.MkdirAll(r.buildDir(), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	err := w(context.Background(), r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if r.trace {
		r.emitLayers()
		path := filepath.Join(r.buildDir(), fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
		if err := r.tr.writeJSONL(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		r.note("spans written to %s (%d spans)", path, len(r.tr.snapshot()))
	}
	r.print()
	if !r.res.Correct {
		os.Exit(1)
	}
}

func (r *run) buildDir() string { return filepath.Join(r.root, ".bench_build") }

// print writes the report and, last, the result line.
func (r *run) print() {
	fmt.Printf("perfbench %s seed=%d seconds=%s trace=%t conns=%d\n", r.workload, r.seed, r.seconds, r.trace, r.conns)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	fmt.Printf("operations attempted=%d succeeded=%d failed=%d\n", r.res.Attempted, r.res.Attempted-r.res.Failed, r.res.Failed)
	for _, m := range r.mismatches {
		fmt.Println("MISMATCH", m)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		panic(err) // a map of finite floats always encodes
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fmtPct renders a tail percentile for report notes.
func fmtPct(p float64) string { return "p" + strconv.FormatFloat(p, 'f', 1, 64) }
