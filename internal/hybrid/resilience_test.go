package hybrid

import (
	"context"
	"strings"
	"testing"
	"time"

	"gahitec/internal/durable"
	"gahitec/internal/fault"
	"gahitec/internal/runctl"
)

// deterministicConfig is a schedule whose outcome depends only on the seed:
// per-fault wall-clock limits are generous enough never to bind, so
// backtrack budgets and the GA's seeded randomness decide everything.
func deterministicConfig(seed int64) Config {
	return Config{
		Passes: []Pass{
			{Method: MethodGA, TimePerFault: time.Hour, Population: 64, Generations: 4, SeqLen: 8, MaxBacktracks: 1000, JustifyAttempts: 2},
			{Method: MethodDet, TimePerFault: time.Hour, MaxBacktracks: 4000, JustifyAttempts: 3},
		},
		Seed: seed,
	}
}

func sameResults(t *testing.T, a, b *Result) {
	t.Helper()
	la, lb := a.Passes[len(a.Passes)-1], b.Passes[len(b.Passes)-1]
	if la.Detected != lb.Detected || la.Vectors != lb.Vectors || la.Untestable != lb.Untestable {
		t.Fatalf("final stats diverged: %+v vs %+v", la, lb)
	}
	if len(a.TestSet) != len(b.TestSet) {
		t.Fatalf("test set size diverged: %d vs %d", len(a.TestSet), len(b.TestSet))
	}
	for i := range a.TestSet {
		if len(a.TestSet[i]) != len(b.TestSet[i]) {
			t.Fatalf("sequence %d length diverged", i)
		}
		for j := range a.TestSet[i] {
			if a.TestSet[i][j].String() != b.TestSet[i][j].String() {
				t.Fatalf("sequence %d vector %d diverged: %s vs %s",
					i, j, a.TestSet[i][j], b.TestSet[i][j])
			}
		}
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("target %d diverged", i)
		}
	}
	if len(a.Untestable) != len(b.Untestable) {
		t.Fatalf("untestable count diverged: %d vs %d", len(a.Untestable), len(b.Untestable))
	}
}

// An injected engine panic must abort only the fault that hit it: the run
// completes, counts the panic, and keeps the first stack trace.
func TestInjectedPanicIsolatedToOneFault(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	hooks := runctl.NewHooks()
	hooks.Arm("generate", 3, runctl.ActPanic)
	cfg := deterministicConfig(1)
	cfg.Hooks = hooks
	res := Run(c, faults, cfg)

	if res.Interrupted {
		t.Fatal("panic interrupted the run instead of one fault")
	}
	if len(res.Passes) != len(cfg.Passes) {
		t.Fatalf("run stopped after %d of %d passes", len(res.Passes), len(cfg.Passes))
	}
	if res.Phases.Panics != 1 {
		t.Fatalf("Phases.Panics = %d, want 1", res.Phases.Panics)
	}
	if !strings.Contains(res.FirstPanic, "injected panic") || !strings.Contains(res.FirstPanic, "goroutine") {
		t.Fatalf("FirstPanic missing message or stack:\n%s", res.FirstPanic)
	}
	// Accounting still closes: every fault is detected, untestable or
	// undecided (the panicked fault lands in the undecided bucket).
	last := res.Passes[len(res.Passes)-1]
	if last.Detected+last.Untestable+last.Aborted != res.TotalFaults {
		t.Fatalf("accounting broken after panic: %+v vs %d", last, res.TotalFaults)
	}
}

// A panic during the preprocessing screen skips that fault, not the run.
func TestPreprocessPanicIsolated(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	hooks := runctl.NewHooks()
	hooks.Arm("generate", 1, runctl.ActPanic)
	cfg := deterministicConfig(1)
	cfg.PreprocessUntestable = true
	cfg.Hooks = hooks
	res := Run(c, faults, cfg)
	if res.Phases.Panics != 1 || len(res.Passes) != len(cfg.Passes) {
		t.Fatalf("panics=%d passes=%d", res.Phases.Panics, len(res.Passes))
	}
}

// Injected budget expiry makes the targeted search abort without killing
// anything; the fault is left undecided.
func TestInjectedExpiryAbortsSearch(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	hooks := runctl.NewHooks()
	hooks.Arm("generate", 0, runctl.ActExpire) // every targeted search expires
	cfg := deterministicConfig(1)
	cfg.Hooks = hooks
	res := Run(c, faults, cfg)

	if res.Phases.ExciteProp != 0 {
		t.Fatalf("expired searches still produced %d propagation successes", res.Phases.ExciteProp)
	}
	last := res.Passes[len(res.Passes)-1]
	if last.Detected != 0 || last.Aborted != res.TotalFaults {
		t.Fatalf("expected everything undecided, got %+v", last)
	}
}

// A cancelled context interrupts the run at a fault boundary and emits the
// last consistent snapshot.
func TestCancelledContextInterruptsRun(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var snaps int
	cfg := deterministicConfig(1)
	cfg.Checkpoint = func(*Checkpoint) { snaps++ }
	res := RunCtx(ctx, c, faults, cfg)
	if !res.Interrupted {
		t.Fatal("cancelled run not marked Interrupted")
	}
	if len(res.Passes) != 0 {
		t.Fatalf("cancelled-before-start run completed %d passes", len(res.Passes))
	}
}

// The core resume invariant: a run checkpointed mid-pass and resumed from
// that snapshot produces the same final detected-fault count and the same
// test set, vector for vector, as the same-seed run left uninterrupted.
func TestResumeBitIdenticalMidPass(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	full := Run(c, faults, deterministicConfig(3))

	var snaps []*Checkpoint
	cfg := deterministicConfig(3)
	cfg.Checkpoint = func(ck *Checkpoint) { snaps = append(snaps, ck) }
	cfg.CheckpointEvery = 1
	Run(c, faults, cfg)
	if len(snaps) < 4 {
		t.Fatalf("only %d snapshots captured", len(snaps))
	}

	// Resume from several positions, including mid-pass ones.
	for _, idx := range []int{1, len(snaps) / 3, len(snaps) / 2, len(snaps) - 2} {
		ck := snaps[idx]
		res, err := Resume(context.Background(), c, faults, deterministicConfig(3), ck)
		if err != nil {
			t.Fatalf("resume from snapshot %d: %v", idx, err)
		}
		if res.Interrupted {
			t.Fatalf("resumed run %d marked interrupted", idx)
		}
		sameResults(t, full, res)
	}
}

// Interruption via context cancellation, then resume from the emitted
// snapshot: the combined run must match the uninterrupted one.
func TestInterruptThenResumeMatchesUninterrupted(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	full := Run(c, faults, deterministicConfig(7))

	ctx, cancel := context.WithCancel(context.Background())
	var last *Checkpoint
	boundaries := 0
	cfg := deterministicConfig(7)
	cfg.CheckpointEvery = 1
	cfg.Checkpoint = func(ck *Checkpoint) {
		last = ck
		boundaries++
		if boundaries == 5 {
			cancel() // simulate SIGINT mid-pass
		}
	}
	part := RunCtx(ctx, c, faults, cfg)
	cancel()
	if !part.Interrupted {
		t.Skip("run finished before the interrupt landed")
	}
	if last == nil {
		t.Fatal("no snapshot emitted before interrupt")
	}

	res, err := Resume(context.Background(), c, faults, deterministicConfig(7), last)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, full, res)
}

// Resuming the snapshot of a completed run is a no-op that reproduces the
// final statistics.
func TestResumeCompletedRun(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	var last *Checkpoint
	cfg := deterministicConfig(11)
	cfg.Checkpoint = func(ck *Checkpoint) { last = ck }
	full := Run(c, faults, cfg)

	res, err := Resume(context.Background(), c, faults, deterministicConfig(11), last)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, full, res)
	if res.Phases != full.Phases {
		t.Fatalf("phases diverged: %+v vs %+v", res.Phases, full.Phases)
	}
}

// Checkpoints from a different circuit, seed or schedule are rejected.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	var last *Checkpoint
	cfg := deterministicConfig(1)
	cfg.Checkpoint = func(ck *Checkpoint) { last = ck }
	Run(c, faults, cfg)

	bad := *last
	bad.Seed = 99
	if _, err := Resume(context.Background(), c, faults, deterministicConfig(1), &bad); err == nil {
		t.Error("mismatched seed accepted")
	}
	bad = *last
	bad.Circuit = "other"
	if _, err := Resume(context.Background(), c, faults, deterministicConfig(1), &bad); err == nil {
		t.Error("mismatched circuit accepted")
	}
	bad = *last
	bad.TotalFaults++
	if _, err := Resume(context.Background(), c, faults, deterministicConfig(1), &bad); err == nil {
		t.Error("mismatched fault list accepted")
	}
	bad = *last
	bad.Version = CheckpointVersion + 1
	if _, err := Resume(context.Background(), c, faults, deterministicConfig(1), &bad); err == nil {
		t.Error("mismatched version accepted")
	}
	bad = *last
	bad.TestSet = append([][]string{{"not a vector"}}, bad.TestSet...)
	bad.Targets = append([]SavedFault{bad.Targets[0]}, bad.Targets...)
	if _, err := Resume(context.Background(), c, faults, deterministicConfig(1), &bad); err == nil {
		t.Error("malformed vector accepted")
	}
}

// Checkpoints survive a JSON round trip through the atomic journal intact.
func TestCheckpointJournalRoundTrip(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)

	full := Run(c, faults, deterministicConfig(5))

	var mid *Checkpoint
	n := 0
	cfg := deterministicConfig(5)
	cfg.CheckpointEvery = 1
	cfg.Checkpoint = func(ck *Checkpoint) {
		n++
		if n == 6 {
			mid = ck
		}
	}
	Run(c, faults, cfg)
	if mid == nil {
		t.Skip("run too short to capture a mid-run snapshot")
	}

	path := t.TempDir() + "/ck.json"
	if err := durable.SaveJSON(durable.Disk, path, durable.KindCheckpoint, mid); err != nil {
		t.Fatal(err)
	}
	var loaded Checkpoint
	if err := durable.LoadJSON(durable.Disk, path, durable.KindCheckpoint, &loaded); err != nil {
		t.Fatal(err)
	}
	res, err := Resume(context.Background(), c, faults, deterministicConfig(5), &loaded)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, full, res)
}

// The alternating hybrid honors cancellation too.
func TestAlternatingCancelled(t *testing.T) {
	c := mustParse(t, s27, "s27")
	faults := fault.Collapse(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunAlternatingCtx(ctx, c, faults, AlternatingConfig{Seed: 1})
	if !res.Interrupted {
		t.Fatal("cancelled alternating run not marked Interrupted")
	}
	if res.Detected != 0 {
		t.Fatalf("cancelled run detected %d faults", res.Detected)
	}
}
