package jobq

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gahitec/internal/circuits"
	"gahitec/internal/durable"
	"gahitec/internal/hybrid"
	"gahitec/internal/obs"
	"gahitec/internal/supervise"
)

// openChaos opens (or reopens) a queue with test-speed retry backoff. Every
// "daemon incarnation" in these tests goes through here, the same way every
// real daemon restart goes through Open.
func openChaos(t *testing.T, dir string) *Queue {
	t.Helper()
	q, warnings, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, w := range warnings {
		t.Logf("open warning: %s", w)
	}
	q.RetryBase = 10 * time.Millisecond
	q.RetryCap = 50 * time.Millisecond
	return q
}

// drainUntil runs a Runner over q until stop returns true (checked every
// 10ms), then cancels and waits for in-flight attempts to release. It fails
// the test if stop never fires within timeout.
func drainUntil(t *testing.T, q *Queue, slots int, timeout time.Duration, stop func() bool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{Queue: q, Slots: slots, Logf: t.Logf}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Run(ctx)
	}()
	deadline := time.Now().Add(timeout)
	for !stop() {
		if time.Now().After(deadline) {
			cancel()
			<-done
			t.Fatalf("queue did not reach the expected state within %v: %+v", timeout, q.List())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-done
}

func allTerminal(q *Queue) bool {
	for _, in := range q.List() {
		if !in.Status.State.Terminal() {
			return false
		}
	}
	return true
}

// simulateKill9 rewrites every non-terminal job's journal to the running
// state, which is exactly what the on-disk queue looks like after SIGKILL
// lands mid-attempt: no handler ran, nothing was released. The next Open
// must recover these uncharged.
func simulateKill9(t *testing.T, q *Queue) {
	t.Helper()
	for _, in := range q.List() {
		if in.Status.State.Terminal() {
			continue
		}
		j, ok := q.Get(in.ID)
		if !ok {
			t.Fatalf("job %s vanished", in.ID)
		}
		file := jobFile{ID: in.ID, Spec: in.Spec, Status: in.Status}
		file.Status.State = Running
		file.Status.NextRetryMS = 0
		// Unsealed, as a pre-envelope build left its journals: recovery
		// must accept the legacy format too.
		data, err := json.MarshalIndent(&file, "", " ")
		if err == nil {
			err = durable.WriteFile(durable.Disk, filepath.Join(j.Dir, "job.json"), data, 0o644)
		}
		if err != nil {
			t.Fatalf("rewriting %s journal: %v", in.ID, err)
		}
	}
}

// mustReadFile reads a job artifact or fails the test.
func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read artifact: %v", err)
	}
	return data
}

func loadSummary(t *testing.T, dir string) Summary {
	t.Helper()
	var s Summary
	if err := durable.LoadJSON(durable.Disk, filepath.Join(dir, "result.json"), durable.KindResult, &s); err != nil {
		t.Fatalf("load result.json: %v", err)
	}
	return s
}

func loadMetrics(t *testing.T, dir string) *obs.Metrics {
	t.Helper()
	var m obs.Metrics
	if err := durable.LoadJSON(durable.Disk, filepath.Join(dir, "metrics.json"), durable.KindMetrics, &m); err != nil {
		t.Fatalf("load metrics.json: %v", err)
	}
	return &m
}

// compareArtifacts asserts the full determinism contract between two
// completed job directories: tests.txt byte-identical, result.json equal
// outside the wall-clock field, and the deterministic metric families
// (counters and span counts) equal. Histograms bucket wall-clock durations,
// so they are exactly the part of the metrics outside the contract.
func compareArtifacts(t *testing.T, label, gotDir, wantDir string) {
	t.Helper()
	got := mustReadFile(t, filepath.Join(gotDir, "tests.txt"))
	want := mustReadFile(t, filepath.Join(wantDir, "tests.txt"))
	if !bytes.Equal(got, want) {
		t.Errorf("%s: tests.txt differs from the uninterrupted reference (%d vs %d bytes)",
			label, len(got), len(want))
	}
	gs, ws := loadSummary(t, gotDir), loadSummary(t, wantDir)
	gs.ElapsedMS, ws.ElapsedMS = 0, 0
	if !reflect.DeepEqual(gs, ws) {
		t.Errorf("%s: result.json differs:\n  got  %+v\n  want %+v", label, gs, ws)
	}
	gm, wm := loadMetrics(t, gotDir), loadMetrics(t, wantDir)
	if !reflect.DeepEqual(gm.Counters, wm.Counters) {
		t.Errorf("%s: metric counters differ:\n  got  %v\n  want %v", label, gm.Counters, wm.Counters)
	}
	if !reflect.DeepEqual(gm.Spans, wm.Spans) {
		t.Errorf("%s: span counts differ:\n  got  %v\n  want %v", label, gm.Spans, wm.Spans)
	}
}

// TestRunnerExecutesJobEndToEnd submits one job and drains it to done,
// checking the published artifacts parse and describe a real run.
func TestRunnerExecutesJobEndToEnd(t *testing.T) {
	dir := t.TempDir()
	q := openChaos(t, dir)
	j, err := q.Submit(Spec{Circuit: "s27", Seed: 1, Scale: 1000, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	drainUntil(t, q, 1, 60*time.Second, func() bool { return allTerminal(q) })

	info, _ := q.Info(j.ID)
	if info.Status.State != Done {
		t.Fatalf("job state = %s (last error %q), want done", info.Status.State, info.Status.LastError)
	}
	sum := loadSummary(t, j.Dir)
	if sum.Circuit != "s27" || sum.TotalFaults == 0 || sum.Detected == 0 || sum.Sequences == 0 {
		t.Fatalf("implausible summary: %+v", sum)
	}
	tests := mustReadFile(t, filepath.Join(j.Dir, "tests.txt"))
	if !strings.Contains(string(tests), "# circuit: s27") {
		t.Fatalf("tests.txt missing header:\n%s", tests)
	}
	if m := loadMetrics(t, j.Dir); len(m.Counters) == 0 {
		t.Fatal("metrics.json has no counters")
	}
	if _, err := os.Stat(filepath.Join(j.Dir, "checkpoint.json")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint journal should be removed after completion (err=%v)", err)
	}
}

// TestChaosKillResumeRetryDeadLetter is the acceptance scenario for the
// durable service: a mixed batch of concurrent jobs, the daemon killed three
// times mid-run (journals left in the running state, as SIGKILL leaves
// them), one job suffering injected transient failures and one wired to fail
// permanently. Afterwards every healthy job must be done with output
// bit-identical to an uninterrupted run of the same spec, the transient job
// must have retried to the same bit-identical output, and the permanent
// failure must sit in dead-letter with a replayable crash bundle.
func TestChaosKillResumeRetryDeadLetter(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test runs full generator jobs; skipped with -short")
	}

	clean := []Spec{
		{Circuit: "s27", Seed: 1, Scale: 1000, CheckpointEvery: 1},
		{Circuit: "s298", Seed: 2, Scale: 1000, CheckpointEvery: 1, Workers: 2},
		{Circuit: "s27", Seed: 3, Mode: "hitec", Scale: 1000, CheckpointEvery: 1},
	}
	// Identical run to clean[0], plus one injected transient failure per
	// daemon incarnation: it must retry to the same bit-identical output.
	transient := clean[0]
	transient.InjectSpec = "jobq.attempt:1:fail"
	transient.MaxAttempts = 10 // crashes reset the injection counter; never park it
	// Fails its completion transition on every attempt: must dead-letter
	// after exactly MaxAttempts charged failures, with the panic it hit
	// along the way preserved as a replayable bundle.
	dead := Spec{
		Circuit: "s27", Seed: 5, Scale: 1000, CheckpointEvery: 1,
		MaxAttempts: 2, InjectSpec: "generate:2:panic,jobq.finish:*:fail",
	}

	dir := t.TempDir()
	q := openChaos(t, dir)
	var ids []string
	for _, spec := range append(append([]Spec{}, clean...), transient, dead) {
		j, err := q.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, j.ID)
	}

	// Three kill cycles: run briefly, "SIGKILL" (journals stay running),
	// reopen as a fresh daemon. Interrupted attempts must not be charged.
	for cycle := 1; cycle <= 3; cycle++ {
		cycleEnd := time.Now().Add(300 * time.Millisecond)
		drainUntil(t, q, 3, 30*time.Second, func() bool {
			return time.Now().After(cycleEnd) || allTerminal(q)
		})
		simulateKill9(t, q)
		q = openChaos(t, dir)
		t.Logf("after kill %d: %+v", cycle, stateSummary(q))
	}

	// Final incarnation: run everything to a terminal state.
	drainUntil(t, q, 3, 300*time.Second, func() bool { return allTerminal(q) })

	// Uninterrupted reference: the same clean specs in a fresh queue.
	ref := openChaos(t, t.TempDir())
	var refIDs []string
	for _, spec := range clean {
		j, err := ref.Submit(spec)
		if err != nil {
			t.Fatalf("Submit reference: %v", err)
		}
		refIDs = append(refIDs, j.ID)
	}
	drainUntil(t, ref, 3, 300*time.Second, func() bool { return allTerminal(ref) })

	jobDir := func(q *Queue, id string) string {
		j, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		return j.Dir
	}
	for i := range clean {
		info, _ := q.Info(ids[i])
		rinfo, _ := ref.Info(refIDs[i])
		if info.Status.State != Done || rinfo.Status.State != Done {
			t.Fatalf("clean job %s = %s (last error %q), reference = %s; want done/done",
				ids[i], info.Status.State, info.Status.LastError, rinfo.Status.State)
		}
		if info.Status.Interrupts == 0 {
			t.Logf("note: %s absorbed no interrupts (finished before the first kill)", ids[i])
		}
		compareArtifacts(t, ids[i], jobDir(q, ids[i]), jobDir(ref, refIDs[i]))
	}

	// The transient job: some attempts were killed by injection, but it must
	// land on done with output bit-identical to the clean run of its spec.
	tID := ids[3]
	tInfo, _ := q.Info(tID)
	if tInfo.Status.State != Done {
		t.Fatalf("transient job = %s (last error %q), want done",
			tInfo.Status.State, tInfo.Status.LastError)
	}
	if tInfo.Status.Attempts == 0 {
		t.Error("transient job charged no failed attempts; the injection never fired")
	}
	compareArtifacts(t, tID+" (transient)", jobDir(q, tID), jobDir(ref, refIDs[0]))

	// The poisoned job: dead-lettered after exactly its attempt budget, with
	// the injected failure recorded and the mid-run panic preserved as a
	// bundle that replays.
	dID := ids[4]
	dInfo, _ := q.Info(dID)
	if dInfo.Status.State != Dead {
		t.Fatalf("poisoned job = %s, want dead", dInfo.Status.State)
	}
	if dInfo.Status.Attempts != dead.MaxAttempts {
		t.Errorf("poisoned job charged %d attempts, want exactly %d (interrupted attempts must be free)",
			dInfo.Status.Attempts, dead.MaxAttempts)
	}
	if !strings.Contains(dInfo.Status.LastError, "jobq.finish") {
		t.Errorf("poisoned job last error = %q, want the injected jobq.finish failure",
			dInfo.Status.LastError)
	}
	bundles, err := filepath.Glob(filepath.Join(jobDir(q, dID), "bundles", "bundle-*.json"))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("dead-lettered job has no crash bundles (err=%v)", err)
	}
	b, err := supervise.LoadBundle(bundles[0])
	if err != nil {
		t.Fatalf("load dead-letter bundle: %v", err)
	}
	c, err := circuits.Get(dead.Circuit)
	if err != nil {
		t.Fatalf("circuits.Get: %v", err)
	}
	rep, err := hybrid.Repro(context.Background(), c, b, nil)
	if err != nil {
		t.Fatalf("replay dead-letter bundle: %v", err)
	}
	if !rep.Match {
		t.Error("dead-letter bundle did not reproduce its captured failure")
	}
}

func stateSummary(q *Queue) map[string]string {
	out := make(map[string]string)
	for _, in := range q.List() {
		out[in.ID] = string(in.Status.State)
	}
	return out
}
