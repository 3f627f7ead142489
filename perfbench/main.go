// Command perfbench is the repository's work-bounded ATPG benchmark. It runs
// one workload for a fixed measuring time, checks every result it measures,
// and prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"run_s": {"value": 3.21, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run is split into an untraced half and a traced half (obs.Recorder with an
// NDJSON sink for engine workloads, SSE and /metrics for the service), and
// the metrics are the per-layer metrics plus the tracing overhead.
//
// Usage (from the root of a checkout, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload ga-s298 --seed 1 --seconds 25 --trace 0
//
// See perfbench/README.md for the workloads and what each metric means.
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

// options are the command-line inputs of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	atpgd    string            // daemon binary for the service workload
	work     string            // scratch directory for traces and daemon data
	layers   map[string]string // per-layer metric units, from BENCHMARK.json
}

// metric is one reported value with its unit.
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

// workload runs one benchmark workload and returns its result. Failures of
// individual operations are counted in the result; an error means the
// workload could not be measured at all.
type workload interface {
	run(ctx context.Context, o options, log io.Writer) (*result, error)
}

var workloads = map[string]workload{
	// GA-HITEC pass 1 (Table I: population 64, 4 generations) on s298,
	// serially: GA justification dominates; deterministic justification
	// never runs.
	"ga-s298": engineWorkload{circuit: "s298", mode: "gahitec", workers: 1, stride: 1},
	// HITEC pass 1 (1000 backtracks) on every sixth collapsed fault of
	// s344, serially: reverse-time deterministic justification dominates;
	// no GA.
	"hitec-s344": engineWorkload{circuit: "s344", mode: "hitec", workers: 1, stride: 6},
	// GA-HITEC pass 1 on every eighth collapsed fault of the 16-bit
	// multiplier, one worker per CPU: forward excitation/propagation
	// dominates, through the parallel fault pipeline.
	"prop-mult": engineWorkload{circuit: "mult", mode: "gahitec", workers: 0, stride: 8},
	// Closed-loop clients against a spawned atpgd: the control plane
	// (submit, journal, checkpoints, sealed artifacts) is a large share of
	// every small job.
	"service-mix": serviceWorkload{},
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark checks its
// output against: the end-to-end metrics of an untraced run and the
// per-layer metrics of a traced one, each with its unit.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// specPath is the benchmark definition, at the root of the checkout the
// benchmark runs in.
const specPath = "BENCHMARK.json"

// loadSpec reads BENCHMARK.json and returns the metric names of an untraced
// and a traced run, each mapped to its unit.
func loadSpec(path string) (endToEnd, perLayer map[string]string, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	units := func(ms []specMetric) map[string]string {
		m := make(map[string]string, len(ms))
		for _, x := range ms {
			m[x.Name] = x.Unit
		}
		return m
	}
	return units(s.EndToEnd), units(s.PerLayer), nil
}

// serviceLayers are the per-layer metrics only the service path has.
var serviceLayers = []string{
	"atpgd.submit_p50_s", "atpgd.submit_tail_s", "jobq.queue_wait_s", "jobq.run_s",
	"jobq.overhead_s", "durable.files_per_job", "durable.bytes_per_job", "atpgd.fetch_s", "atpgd.polls_per_job",
}

// absent reports the named per-layer metrics as 0: layers that do not run
// in the workload.
func absent(m map[string]metric, units map[string]string, names ...string) {
	for _, name := range names {
		m[name] = metric{0, units[name]}
	}
}

// checkNames reports a metric set that is not exactly the expected one.
func checkNames(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok || m.Unit != unit {
			return fmt.Errorf("metric %s missing or not in %s", name, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("unexpected metric %s", name)
		}
	}
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (same seed, same inputs)")
	fs.IntVar(&o.seconds, "seconds", 25, "measuring time in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.atpgd, "atpgd", "", "atpgd binary (service workload)")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	endToEnd, perLayer, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o.layers = perLayer
	w, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", o.workload, names)
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	o.work = filepath.Join(o.work, fmt.Sprintf("%s-trace%d", o.workload, trace))
	if err := os.RemoveAll(o.work); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	// Every run must end well inside the 180 s a caller allows, however
	// slow the program under test has become.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := w.run(ctx, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if err := checkNames(res.Metrics, want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// deriveSeed returns the seed of one input stream of a benchmark seed
// (splitmix64), so every generated input follows from -seed alone.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & (1<<62 - 1))
}
