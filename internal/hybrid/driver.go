package hybrid

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"gahitec/internal/atpg"
	"gahitec/internal/fault"
	"gahitec/internal/obs"
	"gahitec/internal/parallel"
	"gahitec/internal/runctl"
	"gahitec/internal/supervise"
)

// This file is the fault-loop driver: the per-pass fault loop and the
// untestability screen, both run through the speculative ordered-commit pool
// (internal/parallel) at every worker count. Up to Config.Workers per-fault
// searches execute concurrently, each under its own watchdog supervision,
// against inputs speculated from the committed run state: the predicted
// sub-seed (a shadow copy of the master random stream), the committed
// good-machine state, and the current degradation level. Outcomes commit
// strictly in fault order on the coordinator goroutine — detections,
// incidental-detection grading, quarantine entries, crash-repro bundles,
// telemetry and checkpoint boundaries — and any commit that changes state
// later speculations read (an accepted test) invalidates the outstanding
// speculative work. The result is bit-identical for a given seed whatever
// the worker count; the count only changes wall-clock time, never output
// (see DESIGN.md, "Ordered-commit determinism"). A one-worker pool never runs
// ahead of its commit cursor, so it executes exactly the serial Fig. 1 loop;
// the package tests keep that loop as an oracle (serial_test.go).

// workerExec is what one speculative search execution returns: the fault's
// target span, opened when the search started, the body's in-place result
// and the watchdog's verdict.
type workerExec struct {
	span obs.Span
	att  *attemptResult
	v    supervise.Verdict
}

// execAttempt runs one attempt's search under the watchdog, timed by the
// fault's target span from the moment the search starts.
func (r *runner) execAttempt(ctx context.Context, at attempt) workerExec {
	sp := r.cfg.Obs.StartSpan("target", at.label, at.passNo)
	att, v := r.runAttempt(ctx, at)
	return workerExec{span: sp, att: att, v: v}
}

// samplePressure takes one fault's memory-pressure sample. A multi-worker
// run samples its scheduler, which throttles workers before shedding effort;
// a one-worker run samples the governor itself, so its decision log is the
// governor's. It returns the degradation level and the worker-count target
// (0: leave the pool's cap alone).
func (r *runner) samplePressure(passNo int) (supervise.Level, int) {
	if r.sched != nil {
		return r.sched.Sample(passNo)
	}
	return r.cfg.Governor.Sample(passNo), 0
}

// pressureLevel is the degradation level of the last pressure sample.
func (r *runner) pressureLevel() supervise.Level {
	if r.sched != nil {
		return r.sched.Level()
	}
	return r.cfg.Governor.Level()
}

// forkObs returns the recorder and engine one pool item charges, and whether
// they are a forked pair that Commit must adopt. With one worker every item
// commits with the inputs it ran on, so it records straight into the run
// recorder. With more, a speculative item may be discarded, so it charges a
// forked child that is adopted into the run recorder only if it commits.
func (r *runner) forkObs() (*obs.Recorder, *atpg.Engine, bool) {
	if r.cfg.Workers == 1 || r.cfg.Obs == nil {
		return r.cfg.Obs, r.engine, false
	}
	rec := r.cfg.Obs.Fork()
	return rec, r.engine.WithObs(rec), true
}

// runPass targets every still-undetected, not-proven-untestable fault once,
// starting at fi0 within the pass's target snapshot. It returns false when
// the run context was cancelled.
func (r *runner) runPass(pi int, pass Pass, fi0 int, targets []fault.Fault, passStartSeqs int) bool {
	remaining := make(map[fault.Fault]bool, len(r.fsim.Remaining()))
	for _, f := range r.fsim.Remaining() {
		remaining[f] = true
	}
	// Restrict to targets still undetected now; on a fresh pass this is the
	// whole snapshot, on a resumed pass it excludes faults detected by the
	// replayed mid-pass sequences.
	stillRemaining := make(map[fault.Fault]bool, len(targets))
	for _, f := range targets {
		if remaining[f] {
			stillRemaining[f] = true
		}
	}
	passT0 := time.Now()
	// Announce the pass position up front (ETA zero: the "--:--" sentinel
	// until one fault commits); with searches in flight the first commit can
	// be a while.
	r.reportProgress(pi, fi0, fi0, len(targets), passT0)

	// shadow tracks the master random stream speculatively: re-synced to the
	// committed position at every epoch, advanced one draw per predicted
	// targeted fault, exactly as the commits will advance the master.
	shadow := runctl.NewRand(r.cfg.Seed)

	return parallel.Run(r.ctx, parallel.Config[attempt, workerExec]{
		Items:   len(targets) - fi0,
		Workers: r.cfg.Workers,
		Reset: func() {
			shadow.Seed(r.cfg.Seed)
			shadow.Skip(r.rng.Draws())
		},
		Spec: func(i int) (attempt, bool) {
			f := targets[fi0+i]
			if !stillRemaining[f] || r.untestable[f] {
				return attempt{}, false
			}
			at := r.newAttempt(f, effectivePass(pass, r.pressureLevel()), pi+1, shadow.Int63())
			at.rec, at.engine, at.forked = r.forkObs()
			return at, true
		},
		// The pressure sample is the serial loop's: once per targeted
		// fault, when every earlier fault has committed. A level change
		// re-specs this fault and everything after it at the new effort, so
		// an attempt always commits with the parameters it ran with.
		Reach: func(int) parallel.Directive {
			if r.expired() {
				return parallel.Directive{Verdict: parallel.Stop}
			}
			before := r.pressureLevel()
			lvl, workers := r.samplePressure(pi + 1)
			d := parallel.Directive{Workers: workers}
			if lvl != before {
				d.Verdict = parallel.Invalidate
			}
			return d
		},
		Exec: r.execAttempt,
		Commit: func(i int, at attempt, res workerExec) parallel.Directive {
			fi := fi0 + i
			if r.expired() {
				return parallel.Directive{Verdict: parallel.Stop}
			}
			subSeed := r.rng.Int63()
			eff := effectivePass(pass, r.pressureLevel())
			respec := subSeed != at.subSeed || eff != at.pass
			switch {
			case respec:
				// Safety net: the speculation ran against the wrong sub-seed
				// or effort level. Commit-order induction says it cannot,
				// but re-run inline with the committed parameters rather
				// than commit a wrong result. A forked attempt's telemetry
				// is simply dropped. An unforked one-worker attempt has
				// already recorded into the run recorder, but it cannot
				// mispredict: it runs only once the cursor reaches it,
				// after Reach has re-specced it on any level change.
				at = r.newAttempt(at.f, eff, pi+1, subSeed)
				res = r.execAttempt(r.ctx, at)
			case at.forked:
				// Merge the committed attempt's telemetry into the run
				// recorder, in commit order. Fork and parent share a
				// metrics schema, so adoption cannot fail.
				_ = r.cfg.Obs.Adopt(at.rec)
			}
			r.res.Phases.Targeted++
			newly, accepted, outcome := r.applyAttempt(at, res.att, res.v)
			if r.expired() {
				// The run context died while this fault's search was in
				// flight, possibly clipping it mid-search. Its outcome is
				// not what an uninterrupted run would have computed, so it
				// must not reach the checkpoint stream: the previous
				// boundary's snapshot is the last consistent state.
				res.span.End("interrupted", nil)
				return parallel.Directive{Verdict: parallel.Stop}
			}
			if accepted {
				for _, g := range newly {
					delete(stillRemaining, g)
				}
				res.span.End(outcome, obs.Attrs{"newly": float64(len(newly))})
			} else {
				res.span.End(outcome, nil)
			}
			r.noteBoundary(pi, fi+1, passStartSeqs, false)
			r.reportProgress(pi, fi0, fi+1, len(targets), passT0)
			if accepted || respec {
				// An accepted test changed the good-machine state, the
				// detection set and the master-stream pace; a re-run means
				// the shadow stream drifted. Either way the outstanding
				// speculations were derived from a stale world.
				return parallel.Directive{Verdict: parallel.Invalidate}
			}
			return parallel.Directive{}
		},
	})
}

// reportProgress emits the per-fault progress callback. fi is the number of
// pass slots committed so far (index of the next fault), counting skipped
// slots; the ETA is the average time per slot so far times the slots left.
func (r *runner) reportProgress(pi, fi0, fi, passTargets int, passT0 time.Time) {
	if r.cfg.Progress == nil {
		return
	}
	var eta time.Duration
	if done := fi - fi0; done > 0 {
		// Dividing first keeps the arithmetic far from int64 overflow, and a
		// clock step backwards is clamped rather than reported as a negative
		// countdown.
		eta = time.Since(passT0) / time.Duration(done) * time.Duration(passTargets-fi)
		if eta < 0 {
			eta = 0
		}
	}
	r.cfg.Progress(Progress{
		Pass:        pi + 1,
		PassCount:   len(r.cfg.Passes),
		FaultIndex:  fi,
		PassTargets: passTargets,
		Detected:    r.fsim.NumDetected(),
		TotalFaults: r.res.TotalFaults,
		Vectors:     r.fsim.NumVectors(),
		Elapsed:     r.elapsed(),
		ETA:         eta,
	})
}

// screenOutcome is one preprocessing probe's result: the engine status, or a
// recovered panic.
type screenOutcome struct {
	status   atpg.Status
	panicked bool
	panicMsg string
}

// screenSpec is one preprocessing probe's input: the fault and the
// recorder/engine pair charging it (forked when forked is set).
type screenSpec struct {
	f      fault.Fault
	rec    *obs.Recorder
	engine *atpg.Engine
	forked bool
}

// preprocess runs a cheap exhaustive screen over the fault list and marks
// faults whose excitation or propagation provably cannot succeed (the
// "filter untestable faults in advance" speedup from the paper's
// conclusions). The screen uses a two-frame window — untestability proofs
// are frame-independent (exhaustion without a fault effect crossing the
// window boundary) — and a small backtrack budget so screening stays cheap.
// The probes are mutually independent — no invalidation ever happens — so
// the pool is a plain ordered fan-out: untestability marks, panic
// accounting (a panicking probe leaves its fault unmarked) and engine
// telemetry commit in fault-list order. The run context bounds the whole
// screen: cancellation (or the run deadline) stops it between faults and
// aborts the in-flight searches. It returns false when interrupted.
func (r *runner) preprocess() bool {
	sp := r.cfg.Obs.StartSpan("preprocess", "", 0)
	faults := append([]fault.Fault(nil), r.fsim.Remaining()...)
	ok := parallel.Run(r.ctx, parallel.Config[screenSpec, screenOutcome]{
		Items:   len(faults),
		Workers: r.cfg.Workers,
		Spec: func(i int) (screenSpec, bool) {
			s := screenSpec{f: faults[i]}
			s.rec, s.engine, s.forked = r.forkObs()
			return s, true
		},
		Exec: func(ctx context.Context, s screenSpec) (out screenOutcome) {
			defer func() {
				if p := recover(); p != nil {
					out.panicked = true
					out.panicMsg = fmt.Sprintf("%v\n\n%s", p, debug.Stack())
				}
			}()
			res := s.engine.GenerateCtx(ctx, s.f, atpg.Limits{MaxFrames: 2, MaxBacktracks: 256})
			out.status = res.Status
			return out
		},
		Commit: func(i int, s screenSpec, out screenOutcome) parallel.Directive {
			if r.expired() {
				return parallel.Directive{Verdict: parallel.Stop}
			}
			if s.forked {
				_ = r.cfg.Obs.Adopt(s.rec)
			}
			switch {
			case out.panicked:
				r.res.Phases.Panics++
				if r.res.FirstPanic == "" {
					r.res.FirstPanic = out.panicMsg
				}
			case out.status == atpg.Untestable:
				r.untestable[s.f] = true
				r.res.Untestable = append(r.res.Untestable, s.f)
				r.res.Phases.Preprocessed++
			}
			return parallel.Directive{}
		},
	}) // no Reset: probes read no committed state
	if !ok {
		sp.End("interrupted", nil)
		return false
	}
	sp.End("done", obs.Attrs{
		"screened":   float64(len(faults)),
		"untestable": float64(r.res.Phases.Preprocessed),
	})
	return true
}
