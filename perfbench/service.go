package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gahitec/internal/bench"
	"gahitec/internal/circuits"
	"gahitec/internal/durable"
	"gahitec/internal/fault"
	"gahitec/internal/faultsim"
	"gahitec/internal/jobq"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
	"gahitec/internal/obs/promexport"
	"gahitec/internal/pattern"
)

// serviceWorkload drives a spawned atpgd with closed-loop clients: each
// client submits its next job only once the previous one is done and
// checked.
type serviceWorkload struct{}

const (
	clients        = 2   // closed-loop clients
	slots          = 2   // atpgd -jobs
	specsPerClient = 200 // distinct job specs each client cycles through
	scoredSpecs    = 64  // leading specs per client whose quality is reported
	daemonStarts   = 7   // daemon set-ups measured per run; setup_s is the median
)

// sizeClass is one rung of the cmd/atpgload size ladder.
type sizeClass struct{ pi, po, ff, depth, gates int }

// ladder holds the one-flip-flop rungs of the atpgload ladder. Its
// two-flip-flop rung is left out: on some circuits its pass-3 deterministic
// search runs into 20 000-backtrack aborts of 0.7-1.5 s, so the mix turns
// bimodal and the seed, not the code, decides the throughput.
var ladder = []sizeClass{
	{3, 2, 1, 1, 8},
	{4, 2, 1, 1, 12},
}

// jobInput is one generated job: the spec the daemon receives and the
// circuit the benchmark re-grades its tests against.
type jobInput struct {
	key    string
	spec   jobq.Spec
	c      *netlist.Circuit
	faults []fault.Fault
}

// jobRecord is one completed (or failed) job as a client saw it.
type jobRecord struct {
	in      *jobInput
	traced  bool
	submit  time.Duration // POST /jobs round trip
	latency time.Duration // submit start until the client saw "done"
	fetch   time.Duration // GET result + tests
	polls   int           // GET /jobs/{id} requests while waiting
	grade   time.Duration // local re-grade of tests.txt
	status  jobq.Status
	sum     jobq.Summary
	layers  *layers      // traced jobs: the job's SSE trace
	stream  chan error   // traced jobs: the SSE reader's outcome
	metrics *obs.Metrics // traced jobs: the job's metrics.json
	err     error
}

func (r *jobRecord) quality() quality {
	return quality{det: r.sum.Detected, vec: r.sum.Vectors, unt: r.sum.Untestable}
}

// inputs generates every client's job list from the benchmark seed: circuit
// profiles drawn from the atpgload ladder and per-job engine seeds.
func (w serviceWorkload) inputs(seed int64) ([][]*jobInput, error) {
	out := make([][]*jobInput, clients)
	for cl := range out {
		for i := 0; i < specsPerClient; i++ {
			stream := uint64(1000 + cl*specsPerClient + i)
			rng := rand.New(rand.NewSource(deriveSeed(seed, stream)))
			cls := ladder[rng.Intn(len(ladder))]
			name := fmt.Sprintf("mix_%d_%d", cl, i)
			gen, err := circuits.StandIn(circuits.Profile{
				Name: name, PI: cls.pi, PO: cls.po, FF: cls.ff, Depth: cls.depth,
				Gates: cls.gates, Seed: rng.Int63(),
			})
			if err != nil {
				return nil, err
			}
			text := bench.WriteString(gen)
			// Re-grade against the netlist exactly as the daemon parses it.
			c, err := bench.Parse(strings.NewReader(text), name)
			if err != nil {
				return nil, err
			}
			out[cl] = append(out[cl], &jobInput{
				key: name,
				spec: jobq.Spec{
					Bench: text, Seed: rng.Int63(), X: 2, Scale: workScale,
					Audit: true, CheckpointEvery: 2,
				},
				c:      c,
				faults: fault.Collapse(c),
			})
		}
	}
	return out, nil
}

func (w serviceWorkload) run(ctx context.Context, o options, log io.Writer) (*result, error) {
	if o.atpgd == "" {
		return nil, errors.New("the service workload needs -atpgd")
	}
	specs, err := w.inputs(o.seed)
	if err != nil {
		return nil, err
	}
	spans := newSpanLog()

	// Set-up: daemon start until /healthz answers, on an empty data dir,
	// several times; the last daemon serves the measurement.
	var setups []float64
	var d *daemon
	for i := 0; i < daemonStarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		d, err = startDaemon(ctx, o.atpgd, filepath.Join(o.work, fmt.Sprintf("data-%d", i)), slots, filepath.Join(o.work, fmt.Sprintf("atpgd-%d.log", i)))
		if err != nil {
			return nil, err
		}
		dt := time.Since(t0)
		spans.add("setup", "", 0, t0, dt)
		setups = append(setups, dt.Seconds())
	}
	defer d.stop()

	budget := time.Duration(o.seconds) * time.Second
	untracedBudget := budget
	if o.trace {
		untracedBudget = budget / 2
	}
	cpu0, err := procCPU(d.pid)
	if err != nil {
		return nil, err
	}
	alloc0, err := d.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	recs := w.drive(ctx, d, specs, untracedBudget, false, spans)
	window := time.Since(t0)
	cpu1, err := procCPU(d.pid)
	if err != nil {
		return nil, err
	}
	alloc1, err := d.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	var tracedRecs []*jobRecord
	var scrapeErr error
	if o.trace {
		before, err := d.completedJobs(ctx)
		if err != nil {
			return nil, err
		}
		tracedRecs = w.drive(ctx, d, specs, budget-untracedBudget, true, spans)
		after, err := d.completedJobs(ctx)
		if err != nil {
			return nil, err
		}
		done := 0
		for _, r := range tracedRecs {
			if r.err == nil {
				done++
			}
		}
		if after-before != float64(done) {
			scrapeErr = fmt.Errorf("/metrics counts %v completed jobs in the traced half, clients saw %d", after-before, done)
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rss, err := peakRSS(strconv.Itoa(d.pid))
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	if err := spans.write(filepath.Join(o.work, "spans.ndjson")); err != nil {
		return nil, err
	}

	// Work-bound guard: a spec's Det/Vec/Unt must repeat exactly on every
	// completion, traced or not.
	res := &result{Metrics: map[string]metric{}}
	ref := map[string]quality{}
	var ok, tok []*jobRecord
	for _, r := range append(append([]*jobRecord{}, recs...), tracedRecs...) {
		if r.err == nil {
			if q, seen := ref[r.in.key]; !seen {
				ref[r.in.key] = r.quality()
			} else if r.quality() != q {
				r.err = fmt.Errorf("work-bound guard: %s gave Det/Vec/Unt %v, earlier %v", r.in.key, r.quality(), q)
			}
		}
		res.Attempted++
		if r.err != nil {
			res.Failed++
			fmt.Fprintf(log, "job %s failed: %v\n", r.in.key, r.err)
			continue
		}
		if r.traced {
			tok = append(tok, r)
		} else {
			ok = append(ok, r)
		}
	}
	if scrapeErr != nil {
		res.Attempted++
		res.Failed++
		fmt.Fprintln(log, scrapeErr)
	}
	if len(ok) == 0 || (o.trace && len(tok) == 0) {
		return nil, errors.New("no job passed the correctness gate")
	}
	// Quality over each client's leading specs, each counted once: every
	// half of a run starts its cycle there, so the set is fixed by -seed,
	// never by how many jobs fit in the measuring time.
	incidentals := map[string]int{}
	for _, r := range ok {
		incidentals[r.in.key] = r.sum.Phases.IncidentalDetects
	}
	var det, total, unt, vec, incidental int
	for _, list := range specs {
		for _, in := range list[:scoredSpecs] {
			q, seen := ref[in.key]
			if !seen {
				return nil, fmt.Errorf("spec %s never completed", in.key)
			}
			det += q.det
			unt += q.unt
			vec += q.vec
			total += len(in.faults)
			incidental += incidentals[in.key]
		}
	}
	scored := float64(clients * scoredSpecs)

	// The daemon reports engine time in whole milliseconds; the mean keeps
	// the digits a median of such values would lose.
	elapsed := values(ok, func(r *jobRecord) float64 { return float64(r.sum.ElapsedMS) / 1000 })
	runS := mean(elapsed)
	jobs := float64(len(ok))
	cpuPerJob := (cpu1 - cpu0) / jobs
	lat := values(ok, func(r *jobRecord) float64 { return r.latency.Seconds() })
	p50 := median(lat)
	tl, pct := tail(lat)
	polls := mean(values(ok, func(r *jobRecord) float64 { return float64(r.polls) }))
	fmt.Fprintf(log, "service-mix: %d distinct specs run, %d untraced + %d traced jobs; scored specs Det %d/%d Vec %d Unt %d; latency p50 %.4f p%.0f %.4f; %.2f jobs/s; %.1f polls/job\n",
		len(ref), len(ok), len(tok), det, total, vec, unt, p50, pct, tl, jobs/window.Seconds(), polls)
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	if !o.trace {
		put("run_s", runS, "s")
		put("cpu_s", cpuPerJob, "s")
		put("alloc_mb", (alloc1-alloc0)/jobs/1e6, "MB")
		put("peak_rss_mb", rss, "MB")
		put("coverage_pct", 100*float64(det)/float64(total), "%")
		put("jobs_per_s", jobs/window.Seconds(), "1/s")
		put("job_latency_p50_s", p50, "s")
		put("job_latency_tail_s", tl, "s")
		put("setup_s", median(setups), "s")
		put("success_frac", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Traced half: engine layers from the jobs' SSE traces, service layers
	// from the clients' spans and the daemon's job records.
	all := newLayers()
	for _, r := range tok {
		all.merge(r.layers)
	}
	tElapsed := values(tok, func(r *jobRecord) float64 { return float64(r.sum.ElapsedMS) / 1000 })
	all.engineLayerMetrics(res.Metrics, mean(tElapsed))
	sub := values(tok, func(r *jobRecord) float64 { return r.submit.Seconds() })
	subTail, _ := tail(sub)
	files, size, err := diskUsage(d.data)
	if err != nil {
		return nil, err
	}
	submitted := float64(len(recs) + len(tracedRecs))
	put("hybrid.vectors", float64(vec)/scored, "count")
	put("hybrid.untestable", float64(unt)/scored, "count")
	put("hybrid.incidental_ratio", ratio(float64(incidental), float64(det)), "ratio")
	// The daemon's CPU time per job includes its HTTP and control-plane
	// work, so it says nothing of the fault pipeline's concurrency.
	absent(res.Metrics, o.layers, "parallel.concurrency")
	put("faultsim.grade_s", median(values(tok, func(r *jobRecord) float64 { return r.grade.Seconds() })), "s")
	put("audit.verify_s", all.perRun(all.busy["audit"]), "s")
	put("atpgd.submit_p50_s", median(sub), "s")
	put("atpgd.submit_tail_s", subTail, "s")
	put("jobq.queue_wait_s", mean(values(tok, func(r *jobRecord) float64 {
		return float64(r.status.StartedMS-r.status.SubmittedMS) / 1000
	})), "s")
	put("jobq.run_s", mean(values(tok, func(r *jobRecord) float64 {
		return float64(r.status.FinishedMS-r.status.StartedMS) / 1000
	})), "s")
	put("jobq.overhead_s", mean(values(tok, func(r *jobRecord) float64 {
		return float64(r.status.FinishedMS-r.status.SubmittedMS-r.sum.ElapsedMS) / 1000
	})), "s")
	put("durable.files_per_job", float64(files)/submitted, "count")
	put("durable.bytes_per_job", float64(size)/submitted, "B")
	put("atpgd.polls_per_job", mean(values(tok, func(r *jobRecord) float64 { return float64(r.polls) })), "count")
	put("atpgd.fetch_s", median(values(tok, func(r *jobRecord) float64 { return r.fetch.Seconds() })), "s")
	tRun := mean(tElapsed)
	put("trace.overhead_s", tRun-runS, "s")
	put("trace.overhead_frac", ratio(tRun-runS, runS), "ratio")
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "traced run_s %.4f vs untraced %.4f (overhead %+.1f%%)\n", tRun, runS, 100*ratio(tRun-runS, runS))
	return res, nil
}

// drive runs the closed-loop clients for the given time, each from the start
// of its spec list, and returns every job they submitted.
func (w serviceWorkload) drive(ctx context.Context, d *daemon, specs [][]*jobInput, budget time.Duration, traced bool, spans *spanLog) []*jobRecord {
	end := time.Now().Add(budget)
	var mu sync.Mutex
	var recs []*jobRecord
	var wg sync.WaitGroup
	for cl := range specs {
		wg.Add(1)
		go func(list []*jobInput) {
			defer wg.Done()
			// The scored specs run even past the measuring time.
			for i := 0; (i < scoredSpecs || time.Now().Before(end)) && ctx.Err() == nil; i++ {
				r := d.job(ctx, list[i%len(list)], traced, spans)
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}(specs[cl])
	}
	wg.Wait()
	for _, r := range recs {
		if r.stream == nil {
			continue
		}
		if err := <-r.stream; err != nil && r.err == nil {
			r.err = fmt.Errorf("%s event stream: %w", r.in.key, err)
		}
		if r.metrics != nil {
			r.layers.addMetrics(r.metrics)
		}
	}
	return recs
}

// job submits one spec, waits for it, fetches and checks its artifacts. A
// job fails unless it reaches done and its tests.txt re-grades to
// result.json's detected count.
func (d *daemon) job(ctx context.Context, in *jobInput, traced bool, spans *spanLog) *jobRecord {
	r := &jobRecord{in: in, traced: traced}
	t0 := time.Now()
	body, _ := json.Marshal(in.spec)
	var info jobq.Info
	status, err := d.call(ctx, "POST", "/jobs", body, &info)
	r.submit = time.Since(t0)
	op := info.ID
	parent := spans.add("job", op, 0, t0, 0)
	defer func() { spans.finish(parent, time.Since(t0)) }()
	spans.add("submit", op, parent, t0, r.submit)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("submit: HTTP %d", status)
	}
	if err != nil {
		r.err = err
		return r
	}

	// A traced job's event stream is read alongside the job; the stream
	// ends shortly after the job does, and drive collects it afterwards so
	// the client's loop never waits for it.
	if traced {
		r.layers = newLayers()
		r.stream = make(chan error, 1)
		go func() { r.stream <- d.follow(ctx, info.ID, r.layers) }()
	}
	// A 5 ms poll resolves jobs of tens of milliseconds. Each poll costs
	// the daemon CPU and allocation, which cpu_s and alloc_mb include; the
	// README gives the measured share, and atpgd.polls_per_job the count.
	tw := time.Now()
	for !info.Status.State.Terminal() {
		select {
		case <-ctx.Done():
			r.err = ctx.Err()
			return r
		case <-time.After(5 * time.Millisecond):
		}
		r.polls++
		if _, err := d.call(ctx, "GET", "/jobs/"+info.ID, nil, &info); err != nil {
			r.err = err
			return r
		}
	}
	r.latency = time.Since(t0)
	spans.add("wait", op, parent, tw, time.Since(tw))
	r.status = info.Status
	if info.Status.State != jobq.Done {
		r.err = fmt.Errorf("job %s ended %s: %s", info.ID, info.Status.State, info.Status.LastError)
		return r
	}

	tf := time.Now()
	_, err = d.call(ctx, "GET", "/jobs/"+info.ID+"/result", nil, &r.sum)
	var tests []byte
	if err == nil {
		tests, err = d.get(ctx, "/jobs/"+info.ID+"/tests")
	}
	r.fetch = time.Since(tf)
	spans.add("fetch", op, parent, tf, r.fetch)
	if err != nil {
		r.err = err
		return r
	}
	if traced {
		// The job's aggregated metrics, for the backtracks its trace
		// spans do not carry.
		raw, err := d.get(ctx, "/jobs/"+info.ID+"/artifacts/metrics.json")
		if err == nil {
			var payload []byte
			if _, payload, err = durable.Open(raw); err == nil {
				r.metrics = new(obs.Metrics)
				err = json.Unmarshal(payload, r.metrics)
			}
		}
		if err != nil {
			r.err = fmt.Errorf("metrics.json: %w", err)
			return r
		}
	}
	tg := time.Now()
	r.err = regrade(in, tests, r.sum)
	r.grade = time.Since(tg)
	spans.add("grade", op, parent, tg, r.grade)
	return r
}

// regrade checks a job's tests.txt against its result.json.
func regrade(in *jobInput, tests []byte, sum jobq.Summary) error {
	set, err := pattern.Read(bytes.NewReader(tests))
	if err != nil {
		return fmt.Errorf("tests.txt: %w", err)
	}
	fs := faultsim.New(in.c, in.faults)
	fs.ApplySequence(set.Flatten())
	if fs.NumDetected() != sum.Detected || len(in.faults) != sum.TotalFaults {
		return fmt.Errorf("tests.txt re-grades to %d/%d, result.json claims %d/%d",
			fs.NumDetected(), len(in.faults), sum.Detected, sum.TotalFaults)
	}
	return nil
}

// daemon is a spawned atpgd.
type daemon struct {
	cmd  *exec.Cmd
	pid  int
	base string
	data string
	hc   *http.Client
	log  *os.File
	done chan struct{}
	once sync.Once
	err  error
}

// startDaemon launches atpgd on an ephemeral port with an empty data dir
// and returns once /healthz answers.
func startDaemon(ctx context.Context, bin, data string, slots int, logPath string) (*daemon, error) {
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", data, "-jobs", strconv.Itoa(slots))
	cmd.Stderr = lf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		lf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{
		cmd: cmd, pid: cmd.Process.Pid, data: data, log: lf, done: make(chan struct{}),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	addr := make(chan string, 1)
	go func() {
		// Drain stdout for the daemon's whole life; only the listen
		// announcement matters.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "atpgd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		lf.Close()
		return nil, fmt.Errorf("atpgd exited before listening: %v", d.err)
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("atpgd never announced its listen address")
	}
	for {
		if st, err := d.call(ctx, "GET", "/healthz", nil, nil); err == nil && st == http.StatusOK {
			return d, nil
		}
		select {
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-d.done:
			return nil, fmt.Errorf("atpgd exited: %v", d.err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop shuts the daemon down with SIGTERM, escalating to SIGKILL, and
// waits until it has exited.
func (d *daemon) stop() error {
	var err error
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
			err = errors.New("atpgd ignored SIGTERM")
		}
		d.hc.CloseIdleConnections()
		d.log.Close()
	})
	return err
}

// call sends one request and decodes a JSON answer into out (if non-nil).
func (d *daemon) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// get fetches a body that must answer 200.
func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, err
}

// follow reads a job's SSE event stream to its end event, folding the
// trace lines into l.
func (d *daemon) follow(ctx context.Context, id string, l *layers) error {
	req, err := http.NewRequestWithContext(ctx, "GET", d.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var trace bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "end" {
				// The job's end-of-run audit lies outside its pass time.
				return l.fold(&trace, map[string]bool{"audit": true})
			}
			trace.WriteString(strings.TrimPrefix(line, "data: "))
			trace.WriteByte('\n')
		case line == "":
			event = ""
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream of %s ended without an end event", id)
}

var totalAllocRE = regexp.MustCompile(`(?m)^# TotalAlloc = (\d+)$`)

// totalAlloc reads the daemon's cumulative allocated bytes from its
// runtime.MemStats, as /debug/pprof/heap?debug=1 prints them.
func (d *daemon) totalAlloc(ctx context.Context) (float64, error) {
	b, err := d.get(ctx, "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	m := totalAllocRE.FindSubmatch(b)
	if m == nil {
		return 0, errors.New("no TotalAlloc in the heap profile")
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

// completedJobs scrapes the daemon's completed-jobs counter from /metrics.
func (d *daemon) completedJobs(ctx context.Context) (float64, error) {
	b, err := d.get(ctx, "/metrics")
	if err != nil {
		return 0, err
	}
	sc, err := promexport.Parse(bytes.NewReader(b))
	if err != nil {
		return 0, fmt.Errorf("/metrics: %w", err)
	}
	v, _ := sc.Value("gahitec_counter_total", map[string]string{"counter": "jobq.completed"})
	return v, nil // absent until a job has completed
}

// procCPU returns the user plus system CPU seconds of a process.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks (100 per second).
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// peakRSS returns a process's peak resident set (VmHWM) in MB; pid "self"
// is this process.
func peakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// diskUsage counts the regular files and bytes under dir.
func diskUsage(dir string) (files int, size int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		fi, err := e.Info()
		if err != nil {
			return err
		}
		files++
		size += fi.Size()
		return nil
	})
	return files, size, err
}
