package parallel

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Commits must arrive strictly in item order regardless of completion order.
func TestCommitsInItemOrder(t *testing.T) {
	const items = 64
	var got []int
	ok := Run(context.Background(), Config[int, int]{
		Items:   items,
		Workers: 8,
		Spec:    func(i int) (int, bool) { return i, true },
		Exec: func(_ context.Context, s int) int {
			// Reverse the natural completion order inside each window.
			time.Sleep(time.Duration(7-s%8) * time.Millisecond)
			return s * 2
		},
		Commit: func(i int, spec, res int) Directive {
			if spec != i || res != i*2 {
				t.Errorf("commit %d: spec %d res %d", i, spec, res)
			}
			got = append(got, i)
			return Directive{}
		},
	})
	if !ok {
		t.Fatal("Run reported stopped")
	}
	if len(got) != items {
		t.Fatalf("%d commits, want %d", len(got), items)
	}
	for i, g := range got {
		if g != i {
			t.Fatalf("commit order broken at %d: %v", i, got[:i+1])
		}
	}
}

// The serial-dependence model the hybrid driver relies on: each item's input
// is the sum of all previously committed items, every commit invalidates,
// and the pool must still deliver exactly the serial sequence — the commit
// always sees a spec derived from the fully committed state.
func TestSpeculationMatchesSerialUnderInvalidation(t *testing.T) {
	const items = 40
	// Serial reference.
	var want []int
	sum := 0
	for i := 0; i < items; i++ {
		want = append(want, sum+i)
		sum += want[i]
	}

	var got []int
	sum = 0
	shadow := 0
	ok := Run(context.Background(), Config[int, int]{
		Items:   items,
		Workers: 4,
		Reset:   func() { shadow = sum },
		Spec: func(i int) (int, bool) {
			s := shadow
			shadow += s + i // mirror the commit's update speculatively
			return s, true
		},
		Exec: func(_ context.Context, s int) int {
			time.Sleep(time.Duration(s%3) * time.Millisecond)
			return s // the "work" carries its input forward
		},
		Commit: func(i int, spec, res int) Directive {
			if res != sum {
				t.Errorf("commit %d ran against base %d, committed base is %d", i, res, sum)
			}
			got = append(got, res+i)
			sum += res + i
			return Directive{Verdict: Invalidate}
		},
	})
	if !ok {
		t.Fatal("Run reported stopped")
	}
	if len(got) != len(want) {
		t.Fatalf("%d commits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("commit %d = %d, want %d (serial)", i, got[i], want[i])
		}
	}
}

// Skipped items never execute and never commit; skips interleave freely
// with real work.
func TestSkippedItems(t *testing.T) {
	const items = 30
	var execs, commits atomic.Int32
	var order []int
	ok := Run(context.Background(), Config[int, int]{
		Items:   items,
		Workers: 3,
		Spec:    func(i int) (int, bool) { return i, i%2 == 1 },
		Exec: func(_ context.Context, s int) int {
			execs.Add(1)
			return s
		},
		Commit: func(i int, spec, res int) Directive {
			commits.Add(1)
			order = append(order, i)
			return Directive{}
		},
	})
	if !ok {
		t.Fatal("Run reported stopped")
	}
	if execs.Load() != items/2 || commits.Load() != items/2 {
		t.Fatalf("execs %d commits %d, want %d each", execs.Load(), commits.Load(), items/2)
	}
	for k, i := range order {
		if i != 2*k+1 {
			t.Fatalf("commit order %v, want odd items ascending", order)
		}
	}
}

// Stop discards uncommitted work, cancels in-flight jobs, and joins every
// worker before Run returns.
func TestStopDiscardsInFlight(t *testing.T) {
	const items = 32
	var running atomic.Int32
	var commits int
	ok := Run(context.Background(), Config[int, int]{
		Items:   items,
		Workers: 4,
		Spec:    func(i int) (int, bool) { return i, true },
		Exec: func(ctx context.Context, s int) int {
			running.Add(1)
			defer running.Add(-1)
			if s > 5 {
				// Late items park until cancelled: Stop must not wait on a
				// timeout, only on cancellation.
				<-ctx.Done()
			}
			return s
		},
		Commit: func(i int, spec, res int) Directive {
			commits++
			if i == 5 {
				return Directive{Verdict: Stop}
			}
			return Directive{}
		},
	})
	if ok {
		t.Fatal("Run did not report stopped")
	}
	if commits != 6 {
		t.Fatalf("%d commits, want 6", commits)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d workers still running after Run returned", n)
	}
}

// A lowered worker cap gates new dispatches: after the first commit drops
// the cap to one, no two post-throttle jobs ever overlap. (Pre-throttle
// stale jobs may still be finishing — the cap never kills running work — so
// only jobs specced after the throttle are measured.)
func TestWorkerCapThrottles(t *testing.T) {
	const items = 24
	type job struct {
		item  int
		fresh bool // specced after the throttle commit
	}
	var cur, peak atomic.Int32
	throttled := false
	ok := Run(context.Background(), Config[job, int]{
		Items:   items,
		Workers: 6,
		Spec:    func(i int) (job, bool) { return job{item: i, fresh: throttled}, true },
		Exec: func(_ context.Context, s job) int {
			if s.fresh {
				n := cur.Add(1)
				defer cur.Add(-1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
			}
			time.Sleep(2 * time.Millisecond)
			return s.item
		},
		Commit: func(i int, s job, res int) Directive {
			if !throttled {
				throttled = true
				// Invalidate so every pre-throttle speculative job is
				// re-specced; from here on at most one job may run.
				return Directive{Verdict: Invalidate, Workers: 1}
			}
			if !s.fresh {
				t.Errorf("item %d committed from a pre-throttle spec", i)
			}
			return Directive{}
		},
	})
	if !ok {
		t.Fatal("Run reported stopped")
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("post-throttle peak concurrency %d, want exactly 1", p)
	}
}

// Specs are issued in ascending order, at most once per item per epoch, and
// re-issued from the commit cursor after an invalidation.
func TestSpecOrderPerEpoch(t *testing.T) {
	const items = 12
	type call struct{ epoch, item int }
	var calls []call
	epoch := 0
	last := -1
	ok := Run(context.Background(), Config[int, int]{
		Items:   items,
		Workers: 2,
		Window:  4,
		Reset: func() {
			epoch++
			last = -1
		},
		Spec: func(i int) (int, bool) {
			if i <= last {
				t.Errorf("epoch %d: spec %d after %d", epoch, i, last)
			}
			last = i
			calls = append(calls, call{epoch, i})
			return i, true
		},
		Exec: func(_ context.Context, s int) int { return s },
		Commit: func(i int, spec, res int) Directive {
			if i == 4 {
				return Directive{Verdict: Invalidate}
			}
			return Directive{}
		},
	})
	if !ok {
		t.Fatal("Run reported stopped")
	}
	seen := map[call]bool{}
	for _, c := range calls {
		if seen[c] {
			t.Fatalf("item %d specced twice in epoch %d", c.item, c.epoch)
		}
		seen[c] = true
	}
	// After the invalidation at item 4, the new epoch re-specs from item 5.
	if !seen[call{2, 5}] {
		t.Fatalf("second epoch did not re-spec from the cursor: %v", calls)
	}
}

// An empty item list trivially succeeds; a cancelled context still lets the
// coordinator drive commits to a Stop decision downstream.
func TestEdgeCases(t *testing.T) {
	if !Run(context.Background(), Config[int, int]{Items: 0}) {
		t.Fatal("empty run reported stopped")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var commits int
	ok := Run(ctx, Config[int, int]{
		Items:   3,
		Workers: 2,
		Spec:    func(i int) (int, bool) { return i, true },
		Exec:    func(ctx context.Context, s int) int { return s },
		Commit: func(i int, spec, res int) Directive {
			commits++
			return Directive{Verdict: Stop} // driver notices expiry and stops
		},
	})
	if ok || commits != 1 {
		t.Fatalf("cancelled run: ok=%v commits=%d, want stopped after 1", ok, commits)
	}
}

// The ring holds only Window slots, reused as the cursor advances: with a
// window far shorter than the item list, skips and invalidations mixed in,
// every non-skipped item must still commit exactly once, in order, from a
// spec of the current epoch — a stale slot state left behind by the item
// that used the slot before would mis-skip or mis-commit it.
func TestRingReusesSlots(t *testing.T) {
	const items = 97
	for _, workers := range []int{1, 2, 3} {
		var order []int
		epoch := 0
		specEpoch := map[int]int{}
		ok := Run(context.Background(), Config[int, int]{
			Items:   items,
			Workers: workers,
			Window:  3,
			Reset:   func() { epoch++ },
			Spec: func(i int) (int, bool) {
				specEpoch[i] = epoch
				return i, i%3 != 0 // every third item skipped
			},
			Exec: func(_ context.Context, s int) int { return s * s },
			Commit: func(i int, spec, res int) Directive {
				if spec != i || res != i*i {
					t.Errorf("workers=%d commit %d: spec %d res %d", workers, i, spec, res)
				}
				if specEpoch[i] != epoch {
					t.Errorf("workers=%d commit %d from epoch %d, current %d", workers, i, specEpoch[i], epoch)
				}
				order = append(order, i)
				if i%5 == 1 {
					return Directive{Verdict: Invalidate}
				}
				return Directive{}
			},
		})
		if !ok {
			t.Fatal("Run reported stopped")
		}
		var want []int
		for i := 0; i < items; i++ {
			if i%3 != 0 {
				want = append(want, i)
			}
		}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("workers=%d: commits %v, want %v", workers, order, want)
		}
	}
}

// Reach runs once per non-skipped item, in order, when every earlier item
// has committed; with one worker the item has not started yet. Invalidate
// from Reach re-specs the reached item itself before it runs.
func TestReachAtTheCommitCursor(t *testing.T) {
	const items = 20
	for _, workers := range []int{1, 4} {
		var (
			reached   []int
			committed = -1
			started   sync.Map // items whose Exec has begun
			respecced = map[int]int{}
			level     = 0 // bumped by Reach at item 7: its spec must see it
		)
		type job struct{ item, level int }
		ok := Run(context.Background(), Config[job, int]{
			Items:   items,
			Workers: workers,
			Spec: func(i int) (job, bool) {
				respecced[i]++
				return job{i, level}, i != 4
			},
			Reach: func(i int) Directive {
				if i <= committed {
					t.Errorf("workers=%d: Reach(%d) after its commit", workers, i)
				}
				if n := len(reached); n > 0 && reached[n-1] >= i {
					t.Errorf("workers=%d: Reach(%d) after Reach(%d)", workers, i, reached[n-1])
				}
				if _, ran := started.Load(i); workers == 1 && ran {
					t.Errorf("workers=%d: item %d started before Reach", workers, i)
				}
				reached = append(reached, i)
				if i == 7 {
					level = 1
					return Directive{Verdict: Invalidate}
				}
				return Directive{}
			},
			Exec: func(_ context.Context, s job) int {
				started.Store(s.item, true)
				return s.level
			},
			Commit: func(i int, s job, res int) Directive {
				committed = i
				if i >= 7 && s.level != 1 {
					t.Errorf("workers=%d: item %d committed at level %d after the Reach invalidation", workers, i, s.level)
				}
				return Directive{}
			},
		})
		if !ok {
			t.Fatal("Run reported stopped")
		}
		if len(reached) != items-1 {
			t.Fatalf("workers=%d: Reach ran for %v, want every item but the skipped 4", workers, reached)
		}
		if respecced[7] < 2 {
			t.Fatalf("workers=%d: item 7 not re-specced after Reach invalidated it", workers)
		}
	}
}
