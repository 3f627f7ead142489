package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"gahitec/internal/audit"
	"gahitec/internal/circuits"
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/hybrid"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
)

// workScale stretches the Table I per-fault wall-clock limits so far that
// none can bind: backtrack limits, GA population and generations alone
// bound the work, so the quality columns are exact and time measures speed.
const workScale = 1e6

// engineSeeds is how many engine seeds (instances) one benchmark run
// covers: a single seed's amount of work varies by a tenth and more, and the
// figures of a run average that out over the instances.
const engineSeeds = 8

// engineWorkload runs hybrid.Run in process on one embedded circuit.
type engineWorkload struct {
	circuit string
	mode    string // "gahitec" (Table I schedule) or "hitec" (deterministic)
	workers int    // fault-pipeline workers; 0: one per CPU
	stride  int    // target every stride-th collapsed fault
}

// quality is the paper's Det / Vec / Unt triple for one run.
type quality struct{ det, vec, unt int }

// engineRep is one measured run with its correctness gate.
type engineRep struct {
	instance   int
	traced     bool
	wall, cpu  time.Duration
	alloc      uint64
	grade, aud time.Duration
	q          quality
	incidental int
	metrics    *obs.Metrics // traced runs: the recorder's aggregates
	err        error
}

// setup builds the circuit and its target fault list: what a user pays
// before the engine starts.
func (w engineWorkload) setup() (*netlist.Circuit, []fault.Fault, error) {
	c, err := circuits.Get(w.circuit)
	if err != nil {
		return nil, nil, err
	}
	all := fault.Collapse(c)
	if w.stride <= 1 {
		return c, all, nil
	}
	var faults []fault.Fault
	for i := 0; i < len(all); i += w.stride {
		faults = append(faults, all[i])
	}
	return c, faults, nil
}

// config builds the work-bounded schedule: its first pass only. GA-HITEC's
// pass 2 took most of a run, and its work varied by a tenth and more from
// one engine seed to the next; HITEC's later passes raise the backtrack
// limit to 20 000, where a single aborted fault takes seconds.
func (w engineWorkload) config(c *netlist.Circuit, seed int64) hybrid.Config {
	var cfg hybrid.Config
	if w.mode == "hitec" {
		cfg = hybrid.HITECConfig(1, workScale)
	} else {
		cfg = hybrid.GAHITECConfig(8*c.SeqDepth(), workScale)
		cfg.Passes = cfg.Passes[:1]
	}
	cfg.Seed = seed
	cfg.Workers = w.workers
	if cfg.Workers == 0 {
		cfg.Workers = runtime.NumCPU()
	}
	return cfg
}

func (w engineWorkload) run(ctx context.Context, o options, log io.Writer) (*result, error) {
	spans := newSpanLog()
	// setup_s is the median of one set-up before every engine run, from a
	// clean heap. Spread over the run, the set-ups sample the host's speed
	// over the same time as the engine runs do; back to back, they all fell
	// in one fast or one slow stretch of the host.
	var setups []float64
	timeSetup := func() (*netlist.Circuit, []fault.Fault, error) {
		runtime.GC()
		t0 := time.Now()
		c, faults, err := w.setup()
		d := time.Since(t0)
		spans.add("setup", "", 0, t0, d)
		setups = append(setups, d.Seconds())
		return c, faults, err
	}
	c, faults, err := timeSetup()
	if err != nil {
		return nil, err
	}
	// One engine seed per instance, all derived from -seed. Runs cycle
	// through the instances, so every instance runs at least twice.
	cfgs := make([]hybrid.Config, engineSeeds)
	for i := range cfgs {
		cfgs[i] = w.config(c, deriveSeed(o.seed, uint64(i)))
	}

	// The measuring time is spent on untraced runs; a traced run gives its
	// second half to runs with the recorder attached.
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	untracedEnd, minUntraced := start.Add(budget), 2*engineSeeds
	if o.trace {
		untracedEnd, minUntraced = start.Add(budget/2), engineSeeds
	}
	var reps []engineRep
	layer := newLayers()
	measure := func(traced bool, end time.Time, min int) error {
		for n := 0; n < min || time.Now().Add(typicalRep(reps)).Before(end); n++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if _, _, err := timeSetup(); err != nil {
				return err
			}
			var tracePath string
			if traced {
				tracePath = filepath.Join(o.work, fmt.Sprintf("trace-%d.ndjson", len(reps)))
			}
			rep := w.rep(ctx, c, faults, cfgs[n%len(cfgs)], tracePath, spans, len(reps))
			rep.instance = n % len(cfgs)
			if rep.err == nil && traced {
				rep.err = foldTrace(layer, tracePath)
				layer.addMetrics(rep.metrics)
			}
			reps = append(reps, rep)
		}
		return nil
	}
	if err := measure(false, untracedEnd, minUntraced); err != nil {
		return nil, err
	}
	loopEnd := time.Now()
	if o.trace {
		if err := measure(true, start.Add(budget), engineSeeds); err != nil {
			return nil, err
		}
	}
	if err := spans.write(filepath.Join(o.work, "spans.ndjson")); err != nil {
		return nil, err
	}

	// Work-bound guard: every run of an instance, traced or not, must
	// produce the same Det/Vec/Unt. A mismatch means a wall-clock limit
	// bound or determinism broke; the run counts as failed.
	res := &result{Metrics: map[string]metric{}}
	first := make([]*engineRep, engineSeeds)
	var untraced, traced []engineRep
	for i := range reps {
		r := &reps[i]
		if r.err == nil {
			if f := first[r.instance]; f == nil {
				first[r.instance] = r
			} else if r.q != f.q {
				r.err = fmt.Errorf("work-bound guard: instance %d gave Det/Vec/Unt %v, earlier %v", r.instance, r.q, f.q)
			}
		}
		res.Attempted++
		if r.err != nil {
			res.Failed++
			fmt.Fprintf(log, "run %d failed: %v\n", i, r.err)
			continue
		}
		if r.traced {
			traced = append(traced, *r)
		} else {
			untraced = append(untraced, *r)
		}
	}
	// Quality per run, averaged over the instances: fixed by -seed, never
	// by how many runs fit in the measuring time.
	var det, vec, unt, incidental float64
	for i, f := range first {
		if f == nil {
			return nil, fmt.Errorf("instance %d never passed the correctness gate", i)
		}
		det += float64(f.q.det)
		vec += float64(f.q.vec)
		unt += float64(f.q.unt)
		incidental += float64(f.incidental)
	}
	k := float64(engineSeeds)
	det, vec, unt, incidental = det/k, vec/k, unt/k, incidental/k
	if len(untraced) == 0 || (o.trace && len(traced) == 0) {
		return nil, fmt.Errorf("no run passed the correctness gate")
	}
	fmt.Fprintf(log, "%s: %d faults, %d instances, %d untraced + %d traced runs, per run Det %.2f Vec %.2f Unt %.2f\n",
		o.workload, len(faults), engineSeeds, len(untraced), len(traced), det, vec, unt)

	wall := perInstance(untraced, func(r engineRep) float64 { return r.wall.Seconds() })
	if !o.trace {
		var lat []float64
		for _, r := range untraced {
			lat = append(lat, (r.wall + r.grade + r.aud).Seconds())
		}
		rss, err := peakRSS("self")
		if err != nil {
			return nil, err
		}
		p50 := median(lat)
		tl, pct := tail(lat)
		fmt.Fprintf(log, "run_s %.4f over %d runs %.3f; op latency p50 %.4f, p%.0f %.4f\n",
			wall, len(untraced), values(untraced, func(r engineRep) float64 { return r.wall.Seconds() }), p50, pct, tl)
		put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
		put("run_s", wall, "s")
		put("cpu_s", perInstance(untraced, func(r engineRep) float64 { return r.cpu.Seconds() }), "s")
		put("alloc_mb", perInstance(untraced, func(r engineRep) float64 { return float64(r.alloc) / 1e6 }), "MB")
		put("peak_rss_mb", rss, "MB")
		put("coverage_pct", 100*det/float64(len(faults)), "%")
		put("jobs_per_s", float64(len(untraced))/loopEnd.Sub(start).Seconds(), "1/s")
		put("job_latency_p50_s", p50, "s")
		put("job_latency_tail_s", tl, "s")
		put("setup_s", median(setups), "s")
		put("success_frac", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Traced run: per-layer metrics from the NDJSON traces plus the
	// benchmark's own spans, and the tracing overhead.
	twall := perInstance(traced, func(r engineRep) float64 { return r.wall.Seconds() })
	twallMean := mean(values(traced, func(r engineRep) float64 { return r.wall.Seconds() }))
	m := res.Metrics
	layer.engineLayerMetrics(m, twallMean)
	cpu := perInstance(untraced, func(r engineRep) float64 { return r.cpu.Seconds() })
	m["hybrid.vectors"] = metric{vec, "count"}
	m["hybrid.untestable"] = metric{unt, "count"}
	m["hybrid.incidental_ratio"] = metric{ratio(incidental, det), "ratio"}
	m["parallel.concurrency"] = metric{ratio(cpu, wall), "ratio"}
	m["faultsim.grade_s"] = metric{perInstance(untraced, func(r engineRep) float64 { return r.grade.Seconds() }), "s"}
	m["audit.verify_s"] = metric{perInstance(untraced, func(r engineRep) float64 { return r.aud.Seconds() }), "s"}
	m["trace.overhead_s"] = metric{twall - wall, "s"}
	m["trace.overhead_frac"] = metric{ratio(twall-wall, wall), "ratio"}
	absent(m, o.layers, serviceLayers...)
	res.Correct = res.Failed == 0

	// At one worker the phase spans are sequential: they must nest without
	// partial overlaps and cover no more than the traced run's wall time
	// (each within nestSlack), so phases plus hybrid.self_s account for
	// run_s within the tracing overhead.
	if cfgs[0].Workers == 1 {
		self := m["hybrid.self_s"].Value
		if layer.overlaps > 0 || self < -nestSlack/1000 {
			res.Correct = false
			fmt.Fprintf(log, "trace accounting: %d partly overlapping span pairs, self %.4fs of %.4fs\n",
				layer.overlaps, self, twallMean)
		}
	}
	fmt.Fprintf(log, "traced run_s %.4f vs untraced %.4f (overhead %+.1f%%)\n",
		twall, wall, 100*m["trace.overhead_frac"].Value)
	return res, nil
}

// rep runs the engine once and gates the result. A non-empty tracePath
// attaches an obs.Recorder writing NDJSON there.
func (w engineWorkload) rep(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, cfg hybrid.Config, tracePath string, spans *spanLog, idx int) engineRep {
	op := fmt.Sprintf("run-%d", idx)
	rep := engineRep{traced: tracePath != ""}
	var (
		f  *os.File
		bw *bufio.Writer
	)
	if rep.traced {
		var err error
		if f, err = os.Create(tracePath); err != nil {
			rep.err = err
			return rep
		}
		defer f.Close()
		bw = bufio.NewWriterSize(f, 1<<16)
	}
	runtime.GC() // every run starts from the same clean heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	if rep.traced {
		cfg.Obs = obs.New(bw)
	}
	res := hybrid.RunCtx(ctx, c, faults, cfg)
	if rep.traced {
		if err := bw.Flush(); err != nil {
			rep.err = err
		}
	}
	rep.wall = time.Since(t0)
	rep.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	rep.alloc = m1.TotalAlloc - m0.TotalAlloc
	parent := spans.add("run", op, 0, t0, rep.wall)
	if rep.traced {
		rep.metrics = cfg.Obs.MetricsSnapshot()
		rep.err = errors.Join(rep.err, cfg.Obs.Err())
	}
	if rep.err != nil {
		return rep
	}
	rep.q, rep.grade, rep.aud, rep.err = gate(ctx, c, faults, res)
	spans.add("grade", op, parent, t0.Add(rep.wall), rep.grade)
	spans.add("audit", op, parent, t0.Add(rep.wall+rep.grade), rep.aud)
	rep.incidental = res.Phases.IncidentalDetects
	return rep
}

// gate is the correctness check of one engine run: the test set is
// re-graded from scratch with the bit-parallel fault simulator, as
// cmd/faultsim does, and every detection claim is replayed on the serial
// reference through audit.Verify. The run fails unless the re-graded count
// equals the claimed Det and the audit is clean.
func gate(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, res *hybrid.Result) (q quality, grade, aud time.Duration, err error) {
	if res.Interrupted || len(res.Passes) == 0 {
		return q, 0, 0, fmt.Errorf("run did not complete its schedule")
	}
	q = quality{det: res.Passes[len(res.Passes)-1].Detected, vec: len(res.Vectors()), unt: len(res.Untestable)}
	t0 := time.Now()
	fs := faultsim.New(c, faults)
	fs.ApplySequence(res.Vectors())
	grade = time.Since(t0)
	if fs.NumDetected() != q.det {
		return q, grade, 0, fmt.Errorf("re-grade detects %d faults, run claims %d", fs.NumDetected(), q.det)
	}
	claims := make([]audit.Claim, len(res.Detections))
	for i, d := range res.Detections {
		claims[i] = audit.Claim{Fault: d.Fault, Vector: d.Vector}
	}
	t1 := time.Now()
	rep, err := audit.Verify(ctx, c, res.TestSet, claims)
	aud = time.Since(t1)
	switch {
	case err != nil:
		return q, grade, aud, fmt.Errorf("audit: %w", err)
	case !rep.Clean() || rep.VerifiedDetections() != q.det:
		return q, grade, aud, fmt.Errorf("audit: %d confirmed, %d at another vector, %d unverified of %d claimed",
			rep.Confirmed, rep.ConfirmedOther, rep.Unverified, q.det)
	}
	return q, grade, aud, nil
}

// foldTrace folds one traced run's NDJSON file into the layer totals.
func foldTrace(l *layers, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return l.fold(f, nil)
}

// perInstance is the per-run figure of a set of runs: the median of f over
// each instance's runs, averaged over the instances.
func perInstance(reps []engineRep, f func(engineRep) float64) float64 {
	by := map[int][]float64{}
	for _, r := range reps {
		by[r.instance] = append(by[r.instance], f(r))
	}
	var meds []float64
	for _, xs := range by {
		meds = append(meds, median(xs))
	}
	return mean(meds)
}

// typicalRep is the median duration of the runs so far, run plus gate: the
// loop starts another run only if one of that length still fits.
func typicalRep(reps []engineRep) time.Duration {
	var ds []float64
	for _, r := range reps {
		ds = append(ds, (r.wall + r.grade + r.aud).Seconds())
	}
	return time.Duration(median(ds) * float64(time.Second))
}

// cpuTime is the user plus system CPU time of this process, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
