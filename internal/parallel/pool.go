// Package parallel provides the supervised worker pool behind the hybrid
// package's fault loop: speculative out-of-order execution with strictly
// ordered commits. Every worker count runs through it; with one worker it
// degenerates to a plain in-order loop.
//
// The model is a fixed list of items (the pass's fault targets) whose
// results must be merged in item order, where executing item i may depend on
// the merged outcome of every item before it. The pool runs items
// speculatively: a coordinator goroutine specs jobs from the committed state
// (Spec), workers execute them concurrently (Exec), and the coordinator
// merges results strictly in item order (Commit). When a commit changes the
// state later specs were derived from, the commit invalidates the current
// epoch: every in-flight and uncommitted speculative job is cancelled,
// re-specced from the new committed state, and re-dispatched. Stale results
// are identified by their epoch and dropped on arrival, so a misprediction
// costs wasted work, never wrong output — the committed sequence is exactly
// the sequence a serial loop would have produced.
//
// All Reset, Spec, Reach and Commit calls happen on the coordinator
// goroutine (the one that called Run), so they may touch shared run state
// without locks; only Exec runs concurrently, and it must confine itself to
// its spec.
package parallel

import "context"

// Verdict is a Commit's instruction to the pool.
type Verdict uint8

const (
	// Advance: the commit did not change the state earlier specs read;
	// speculative work remains valid.
	Advance Verdict = iota
	// Invalidate: the commit changed state that later specs may have read;
	// cancel and re-spec everything uncommitted.
	Invalidate
	// Stop: abandon the run (interrupt); uncommitted items are discarded.
	Stop
)

// Directive is what Commit returns: the validity verdict plus an optional
// new worker cap (0 leaves the cap unchanged). Lowering the cap never kills
// running jobs; it only gates new dispatches.
type Directive struct {
	Verdict Verdict
	Workers int
}

// Config parameterizes one pool run over Items items.
type Config[S, R any] struct {
	Items   int
	Workers int // initial dispatch cap (min 1)

	// Window bounds how far ahead of the commit cursor the pool specs and
	// dispatches (default 2*Workers+2, or 1 for a single worker, which can
	// never run ahead of the cursor). A bounded window caps both wasted
	// speculation after an invalidation and the state held by pending specs.
	Window int

	// Reset, if non-nil, runs on the coordinator at the start of every
	// epoch — once before the first Spec and again after every Invalidate —
	// so the speculation source (e.g. a shadow RNG) can resynchronize with
	// the committed state.
	Reset func()

	// Spec builds the job for item i from committed state only. Within an
	// epoch it is called in ascending item order, each item at most once.
	// Returning run=false skips the item: it is never dispatched and
	// commits without a Commit call. Skips must be stable within an epoch:
	// state committed later may only be reflected after an Invalidate.
	Spec func(i int) (spec S, run bool)

	// Reach, if non-nil, runs on the coordinator once per non-skipped item,
	// when the commit cursor reaches it: every earlier item has committed
	// and item i has not. With a single worker the item has not been
	// dispatched yet, so a driver can take per-item decisions here at
	// exactly the point a serial loop would. Its Directive applies like a
	// Commit's, except that Invalidate re-specs item i itself along with
	// everything after it.
	Reach func(i int) Directive

	// Exec runs one job on a worker goroutine. The context is cancelled
	// when the job's epoch is invalidated or the pool stops; Exec should
	// return promptly then (its result is dropped either way).
	Exec func(ctx context.Context, spec S) R

	// Commit merges item i's result on the coordinator, in item order.
	Commit func(i int, spec S, res R) Directive
}

type slotState uint8

const (
	slotUnspecced slotState = iota
	slotSkipped
	slotPending
	slotRunning
	slotReady
)

type slot[S, R any] struct {
	state slotState
	spec  S
	res   R
}

// Run drives the pool to completion and reports whether every item was
// committed (false: a Reach or Commit returned Stop). Run returns only after
// every worker goroutine it started has finished, so Exec closures never
// outlive the call.
func Run[S, R any](ctx context.Context, cfg Config[S, R]) bool {
	if cfg.Items <= 0 {
		return true
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Window < 1 {
		cfg.Window = 2*cfg.Workers + 2
		if cfg.Workers == 1 {
			cfg.Window = 1
		}
	}

	type outcome struct {
		i     int
		epoch uint64
		res   R
	}
	// Every specced or in-flight item lies in [cursor, cursor+Window), so a
	// ring of Window slots holds them all: item i lives in slots[i%Window].
	// A slot still holds its previous item's state until fill overwrites it,
	// which is why the loop fills before it reads the cursor's slot: every
	// slot in [cursor, specced) was written this epoch.
	slots := make([]slot[S, R], cfg.Window)
	at := func(i int) *slot[S, R] { return &slots[i%cfg.Window] }
	results := make(chan outcome)
	var (
		epoch    uint64
		capacity = cfg.Workers
		inflight = 0
		cursor   = 0  // lowest uncommitted item
		specced  = 0  // next item to spec this epoch
		reached  = -1 // last item handed to Reach
	)
	// Each epoch gets its own cancellable context; the deferred closure always
	// cancels the *current* epoch's, and stale epochs are cancelled at the
	// invalidation that retired them.
	ectx, ecancel := context.WithCancel(ctx)
	defer func() { ecancel() }()

	drain := func() {
		ecancel()
		for inflight > 0 {
			<-results
			inflight--
		}
	}

	// reset starts an epoch's speculation at the cursor.
	reset := func() {
		if cfg.Reset != nil {
			cfg.Reset()
		}
		specced = cursor
	}
	invalidate := func() {
		epoch++
		ecancel()
		ectx, ecancel = context.WithCancel(ctx)
		reset()
	}
	// apply carries out a Reach or Commit directive's worker cap and reports
	// whether the pool must stop.
	apply := func(d Directive) (stop bool) {
		if d.Workers > 0 {
			capacity = d.Workers
		}
		if d.Verdict == Stop {
			drain()
			return true
		}
		return false
	}

	// fill specs up to the window's edge.
	fill := func() {
		limit := min(cursor+cfg.Window, cfg.Items)
		for ; specced < limit; specced++ {
			s := slot[S, R]{state: slotSkipped}
			if spec, run := cfg.Spec(specced); run {
				s = slot[S, R]{state: slotPending, spec: spec}
			}
			*at(specced) = s
		}
	}
	// launch dispatches pending items in order while capacity allows.
	launch := func() {
		for i := cursor; i < specced && inflight < capacity; i++ {
			s := at(i)
			if s.state != slotPending {
				continue
			}
			s.state = slotRunning
			inflight++
			go func(i int, ep uint64, sp S, c context.Context) {
				results <- outcome{i: i, epoch: ep, res: cfg.Exec(c, sp)}
			}(i, epoch, s.spec, ectx)
		}
	}

	reset()
	for cursor < cfg.Items {
		fill()
		s := at(cursor)
		if s.state == slotSkipped {
			cursor++
			continue
		}
		if reached < cursor && cfg.Reach != nil {
			reached = cursor
			d := cfg.Reach(cursor)
			if apply(d) {
				return false
			}
			if d.Verdict == Invalidate {
				invalidate()
				continue
			}
		}
		if s.state == slotReady {
			d := cfg.Commit(cursor, s.spec, s.res)
			if apply(d) {
				return false
			}
			cursor++
			if d.Verdict == Invalidate {
				invalidate()
			}
			continue
		}
		launch()
		// The cursor item is running (or blocked behind stale in-flight work
		// holding the capacity): wait for any result.
		o := <-results
		inflight--
		if r := at(o.i); o.epoch == epoch && r.state == slotRunning {
			r.state = slotReady
			r.res = o.res
		}
	}
	drain()
	return true
}
