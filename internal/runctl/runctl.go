// Package runctl is the run-control layer of the test generator: the
// machinery that makes long search campaigns interruptible, resumable and
// crash-tolerant without the search code itself knowing about wall clocks,
// signals or checkpoint files.
//
// It provides four pieces:
//
//   - Budget: a unified stop condition for a bounded search — context
//     cancellation, a wall-clock deadline and a backtrack allowance folded
//     into one cheap check, polled on the same cadence the engine used to
//     poll time.Now directly.
//
//   - Rand: a math/rand wrapper that counts raw source draws so a checkpoint
//     can record the exact position in the pseudo-random stream and a
//     resumed run can fast-forward to it, keeping results bit-identical.
//
//   - ParseJSON / SyncDir: the strict single-document JSON decode and the
//     directory fsync under internal/durable's sealed, atomic write path.
//
//   - Hooks: an injectable fault harness for tests — force a panic, a forced
//     budget expiry or a slow search at the Kth call of a named site, so
//     every recovery path can be exercised deterministically.
package runctl

import (
	"context"
	"time"
)

// checkEvery is the cadence of the real (time.Now + ctx.Err) expiry check:
// the first Expired call always checks, then every checkEvery-th call. The
// value matches the cadence the engine's former inline deadline polls used.
const checkEvery = 16

// Budget folds the three ways a bounded search can be stopped — context
// cancellation, a wall-clock deadline and a backtrack allowance — into one
// object checked on a cheap cadence. A Budget is not safe for concurrent
// use; each search owns one.
type Budget struct {
	ctx        context.Context
	deadline   time.Time // earliest of the explicit deadline and ctx's
	backtracks int
	tick       uint32
	expired    bool
	pulse      *Pulse // beaten on every Expired poll; nil: none
}

// NewBudget returns a budget over ctx with the given wall-clock deadline
// (zero: none beyond the context's own) and backtrack allowance. The
// effective deadline is the earlier of deadline and ctx's deadline.
func NewBudget(ctx context.Context, deadline time.Time, backtracks int) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	if cd, ok := ctx.Deadline(); ok && (deadline.IsZero() || cd.Before(deadline)) {
		deadline = cd
	}
	return &Budget{ctx: ctx, deadline: deadline, backtracks: backtracks}
}

// Expired reports whether the context was cancelled or the deadline passed.
// The real check runs on the first call and then every 16th call; once it
// trips, Expired stays true. ForceExpire (used by the fault-injection
// harness) trips it unconditionally.
func (b *Budget) Expired() bool {
	b.pulse.Beat()
	if b.expired {
		return true
	}
	b.tick++
	if b.tick%checkEvery != 1 {
		return false
	}
	if b.ctx.Err() != nil || (!b.deadline.IsZero() && time.Now().After(b.deadline)) {
		b.expired = true
	}
	return b.expired
}

// Exhausted reports whether the search must stop: the backtrack allowance is
// spent or the budget expired.
func (b *Budget) Exhausted() bool {
	return b.backtracks <= 0 || b.Expired()
}

// Spend consumes one backtrack from the allowance.
func (b *Budget) Spend() { b.backtracks-- }

// Remaining returns the unspent backtrack allowance.
func (b *Budget) Remaining() int { return b.backtracks }

// ForceExpire trips the budget immediately; every later Expired/Exhausted
// call returns true. The fault-injection harness uses it to simulate
// deadline expiry at a precise point in the search.
func (b *Budget) ForceExpire() { b.expired = true }
