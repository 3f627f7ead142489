// Command benchjson converts `go test -bench` output into a JSON benchmark
// report: one record per benchmark with iterations, ns/op, B/op, allocs/op,
// and any custom metrics (the paper-table Det/Vec/Unt columns the benchmarks
// report). It reads the benchmark output on stdin and writes JSON to stdout
// or, with -o, atomically to a file — `make bench-json` wires it to a
// date-stamped BENCH_<date>.json so runs can be diffed across commits.
//
// With -compare it becomes the bench-regression gate: it diffs two snapshots
// and exits nonzero when a benchmark got slower (or a "/s" throughput rate
// dropped) beyond -threshold percent, when a quality metric (detected,
// vectors, untestable) moved the wrong way beyond -quality-threshold percent
// (0 = any bad move fails; the bench budgets bind, so the counts drift with
// machine speed), when the collapsed fault count changed at all, or when a
// benchmark disappeared. `make bench-check` runs it against the newest
// committed BENCH_*.json.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -o BENCH_2026-08-06.json
//	benchjson -compare BENCH_2026-08-06.json new.json -threshold 10 -quality-threshold 25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gahitec/internal/durable"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`

	// Metrics holds the benchmark's custom b.ReportMetric values by unit
	// (e.g. "detected", "vectors", "untestable").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the JSON report to this file (atomically) instead of stdout")
	compare := fs.Bool("compare", false, "compare two snapshots: benchjson -compare old.json new.json [-threshold pct]")
	threshold := fs.Float64("threshold", 10, "with -compare: allowed timing growth (or throughput drop) in percent before a regression")
	qualityThreshold := fs.Float64("quality-threshold", 0, "with -compare: allowed bad-direction drift in percent for quality metrics (detections, vectors, untestable); 0 fails on any bad move")
	// Accept flags after positionals (`-compare old.json new.json -threshold
	// 10`): re-parse whenever a flag-looking token follows a positional.
	var pos []string
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		rest = fs.Args()
		for len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
			pos = append(pos, rest[0])
			rest = rest[1:]
		}
		if len(rest) == 0 {
			break
		}
	}
	if *compare {
		if len(pos) != 2 {
			fmt.Fprintln(stderr, "benchjson: -compare needs exactly two snapshot files (old.json new.json)")
			return 2
		}
		return runCompare(pos[0], pos[1], *threshold, *qualityThreshold, stdout, stderr)
	}
	if len(pos) > 0 {
		fmt.Fprintf(stderr, "benchjson: unexpected argument %q (reads benchmark output on stdin)\n", pos[0])
		return 2
	}
	results, err := parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines in input")
		return 1
	}
	if *out != "" {
		// Unsealed: BENCH_*.json snapshots are plain JSON that -compare and
		// the committed baselines share.
		data, err := json.MarshalIndent(results, "", " ")
		if err == nil {
			err = durable.WriteFile(durable.Disk, *out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), *out)
		return 0
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	return 0
}

// parse extracts benchmark result lines from go test output. A line is a
// result when it starts with "Benchmark", its second field is the iteration
// count, and the rest are "<value> <unit>" pairs.
func parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", fields[0], fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = v
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}
