package hybrid

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"gahitec/internal/atpg"
	"gahitec/internal/fault"
	"gahitec/internal/netlist"
	"gahitec/internal/obs"
)

// This file is the serial oracle: the Fig. 1 fault loop and untestability
// screen written as plain loops on the run goroutine, with no pool, no
// speculation and no forked recorders. Production runs every worker count
// through the ordered-commit pool (driver.go); the equivalence tests hold
// the pool at 1, 2, 4 and 8 workers to this loop's output, so a pool bug
// cannot hide behind both sides of a comparison running the same pool.

// serialRun is Run driven through the serial oracle.
func serialRun(c *netlist.Circuit, faults []fault.Fault, cfg Config) *Result {
	r := newRunner(context.Background(), c, faults, cfg)
	return r.schedule(r.serialPreprocess, r.serialRunPass)
}

// guard runs fn inside a recover boundary: a panic in the engines marks the
// current fault aborted instead of killing the run. The first stack trace
// is kept for the report; every recovered panic is counted.
func (r *runner) guard(fn func()) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			r.res.Phases.Panics++
			if r.res.FirstPanic == "" {
				r.res.FirstPanic = fmt.Sprintf("%v\n\n%s", p, debug.Stack())
			}
			ok = false
		}
	}()
	fn()
	return true
}

// serialPreprocess is the untestability screen as a loop (see preprocess).
func (r *runner) serialPreprocess() bool {
	sp := r.cfg.Obs.StartSpan("preprocess", "", 0)
	screened := len(r.fsim.Remaining())
	for _, f := range r.fsim.Remaining() {
		if r.expired() {
			sp.End("interrupted", nil)
			return false
		}
		var res atpg.Result
		if !r.guard(func() {
			res = r.engine.GenerateCtx(r.ctx, f, atpg.Limits{MaxFrames: 2, MaxBacktracks: 256})
		}) {
			continue
		}
		if res.Status == atpg.Untestable {
			r.untestable[f] = true
			r.res.Untestable = append(r.res.Untestable, f)
			r.res.Phases.Preprocessed++
		}
	}
	sp.End("done", obs.Attrs{
		"screened":   float64(screened),
		"untestable": float64(r.res.Phases.Preprocessed),
	})
	return true
}

// serialRunPass is the pass loop as a loop (see runPass): draw the sub-seed,
// sample the governor, search, apply, checkpoint, one fault at a time.
func (r *runner) serialRunPass(pi int, pass Pass, fi0 int, targets []fault.Fault, passStartSeqs int) bool {
	remaining := make(map[fault.Fault]bool, len(r.fsim.Remaining()))
	for _, f := range r.fsim.Remaining() {
		remaining[f] = true
	}
	stillRemaining := make(map[fault.Fault]bool, len(targets))
	for _, f := range targets {
		if remaining[f] {
			stillRemaining[f] = true
		}
	}
	passT0 := time.Now()
	r.reportProgress(pi, fi0, fi0, len(targets), passT0)
	for fi := fi0; fi < len(targets); fi++ {
		if r.expired() {
			return false
		}
		f := targets[fi]
		if !stillRemaining[f] || r.untestable[f] {
			continue
		}
		sp := r.cfg.Obs.StartSpan("target", r.faultLabel(f), pi+1)
		newly, accepted, outcome := r.superviseTarget(f, pass, pi+1, r.rng.Int63())
		if r.expired() {
			sp.End("interrupted", nil)
			return false
		}
		if accepted {
			for _, g := range newly {
				delete(stillRemaining, g)
			}
			sp.End(outcome, obs.Attrs{"newly": float64(len(newly))})
		} else {
			sp.End(outcome, nil)
		}
		r.noteBoundary(pi, fi+1, passStartSeqs, false)
		r.reportProgress(pi, fi0, fi+1, len(targets), passT0)
	}
	return true
}
