package runctl

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// An already-cancelled context trips the budget on the very first check, so
// a search aborts before spending any of its backtrack allowance.
func TestBudgetExpiredContextTripsFirstCheck(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := NewBudget(ctx, time.Time{}, 1000)
	if !b.Expired() {
		t.Fatal("first Expired() call missed the cancelled context")
	}
	if !b.Exhausted() {
		t.Fatal("Exhausted() false after expiry")
	}
	if b.Remaining() != 1000 {
		t.Fatalf("backtracks consumed: %d left", b.Remaining())
	}
}

func TestBudgetPastDeadlineTrips(t *testing.T) {
	b := NewBudget(context.Background(), time.Now().Add(-time.Second), 10)
	if !b.Expired() {
		t.Fatal("past deadline not detected")
	}
}

// The effective deadline is the earlier of the explicit one and the
// context's own.
func TestBudgetMergesContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	b := NewBudget(ctx, time.Now().Add(time.Hour), 10)
	if !b.Expired() {
		t.Fatal("context deadline ignored")
	}
}

func TestBudgetBacktrackExhaustion(t *testing.T) {
	b := NewBudget(context.Background(), time.Time{}, 2)
	if b.Exhausted() {
		t.Fatal("fresh budget exhausted")
	}
	b.Spend()
	b.Spend()
	if !b.Exhausted() {
		t.Fatal("spent budget not exhausted")
	}
}

func TestBudgetForceExpire(t *testing.T) {
	b := NewBudget(context.Background(), time.Time{}, 100)
	b.ForceExpire()
	if !b.Expired() || !b.Exhausted() {
		t.Fatal("ForceExpire did not trip the budget")
	}
}

// Skip(Draws()) reproduces the exact stream position, across a mix of Rand
// methods including rejection-sampling ones.
func TestRandSkipReproducesStream(t *testing.T) {
	use := func(r *Rand) []int64 {
		var out []int64
		for i := 0; i < 20; i++ {
			out = append(out, r.Int63(), int64(r.Intn(3)), int64(r.Intn(2)))
			r.Float64()
		}
		return out
	}
	a := NewRand(42)
	use(a)
	mark := a.Draws()
	want := []int64{a.Int63(), int64(a.Intn(1000))}

	b := NewRand(42)
	b.Skip(mark)
	got := []int64{b.Int63(), int64(b.Intn(1000))}
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("resumed stream diverged: got %v want %v", got, want)
	}
}

// The counting source must not change the values math/rand produces for a
// given seed (checkpoints aside, seeds must keep meaning what they meant).
func TestRandMatchesPlainRand(t *testing.T) {
	a := NewRand(7)
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("draw %d: counting %d != plain %d", i, x, y)
		}
	}
}

func TestHooksPanicAtKthCall(t *testing.T) {
	h := NewHooks()
	h.Arm("generate", 3, ActPanic)
	for i := 1; i <= 2; i++ {
		if act := h.Enter("generate"); act != ActNone {
			t.Fatalf("call %d: unexpected action %d", i, act)
		}
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("armed panic did not fire")
		}
		if ip, ok := p.(InjectedPanic); !ok || ip.Site != "generate" {
			t.Fatalf("unexpected panic value %v", p)
		}
		if h.Calls("generate") != 3 {
			t.Fatalf("call count %d", h.Calls("generate"))
		}
	}()
	h.Enter("generate")
}

func TestHooksExpireAndNilSafety(t *testing.T) {
	h := NewHooks()
	h.Arm("justify", 0, ActExpire)
	if h.Enter("justify") != ActExpire {
		t.Fatal("every-call expire rule did not fire")
	}
	var nilHooks *Hooks
	if nilHooks.Enter("anything") != ActNone || nilHooks.Calls("anything") != 0 {
		t.Fatal("nil hooks not inert")
	}
}

func TestHooksSleepDelays(t *testing.T) {
	h := NewHooks()
	h.Arm("slow", 1, ActSleep, 30*time.Millisecond)
	start := time.Now()
	h.Enter("slow")
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("sleep rule slept only %s", d)
	}
}

func TestHooksConcurrentEnter(t *testing.T) {
	h := NewHooks()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				h.Enter("site")
			}
		}()
	}
	wg.Wait()
	if h.Calls("site") != 800 {
		t.Fatalf("lost calls: %d", h.Calls("site"))
	}
}

func TestParseInjectSpec(t *testing.T) {
	h, err := ParseInjectSpec("generate:3:panic, justify:*:expire,ga:2:sleep=10ms")
	if err != nil {
		t.Fatal(err)
	}
	if h.Enter("justify") != ActExpire {
		t.Fatal("parsed expire rule did not fire")
	}
	for _, bad := range []string{"x", "a:b:panic", "a:1:explode", "a:1:sleep=xyz", "a:-1:panic"} {
		if _, err := ParseInjectSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// A journal with anything after the JSON document — the signature of a
// truncated file that a concurrent or crashed writer appended to — must be
// refused by ParseJSON (the decode behind durable.LoadJSON), not
// half-parsed.
func TestLoadJSONRejectsTrailingGarbage(t *testing.T) {
	type doc struct{ A int }
	cases := map[string]string{
		"concatenated": `{"A":1}{"A":2}`,
		"text-suffix":  `{"A":1}garbage`,
		"array-suffix": `{"A":1}[1,2]`,
	}
	for name, content := range cases {
		var v doc
		if err := ParseJSON(name+".json", []byte(content), &v); err == nil {
			t.Errorf("%s: trailing garbage accepted", name)
		} else if !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("%s: unclear error %v", name, err)
		}
	}
	// Trailing whitespace is not garbage.
	var v doc
	if err := ParseJSON("ok.json", []byte("{\"A\":1}\n\n  "), &v); err != nil || v.A != 1 {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// Each malformed spec is refused with an error that names both the failure
// and the offending rule, so a bad GAHITEC_FAULT_INJECT value is diagnosable
// from the message alone.
func TestParseInjectSpecErrorMessages(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"generate", "bad inject rule"},
		{"generate:3", "bad inject rule"},
		{"a:x:panic", "bad call number"},
		{"a:0:panic", "bad call number"},
		{"a:-2:expire", "bad call number"},
		{"a:1:explode", "unknown action"},
		{"a:1:sleep=", "bad sleep duration"},
		{"a:1:sleep=fast", "bad sleep duration"},
		{"ok:*:panic,broken:1:nope", "unknown action"},
	}
	for _, tc := range cases {
		h, err := ParseInjectSpec(tc.spec)
		if err == nil {
			t.Errorf("spec %q accepted", tc.spec)
			continue
		}
		if h != nil {
			t.Errorf("spec %q: non-nil hooks alongside error", tc.spec)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: error %q does not mention %q", tc.spec, err, tc.want)
		}
		if !strings.Contains(err.Error(), strings.SplitN(tc.spec, ",", 2)[0]) &&
			!strings.Contains(err.Error(), "broken:1:nope") {
			t.Errorf("spec %q: error %q does not quote the offending rule", tc.spec, err)
		}
	}
}

// Empty specs and stray separators arm nothing rather than erroring, so an
// unset-but-exported environment variable is harmless.
func TestParseInjectSpecEmptyRules(t *testing.T) {
	for _, spec := range []string{"", " ", ",", " , ,", "a:1:panic,,b:*:expire"} {
		h, err := ParseInjectSpec(spec)
		if err != nil {
			t.Errorf("spec %q rejected: %v", spec, err)
			continue
		}
		if h == nil {
			t.Errorf("spec %q: nil hooks", spec)
		}
	}
	h, err := ParseInjectSpec("a:1:panic,,b:*:expire")
	if err != nil {
		t.Fatal(err)
	}
	if h.Enter("b") != ActExpire {
		t.Fatal("rule after empty segment not armed")
	}
}

// When several armed rules match the same site and call, the first one armed
// wins — the documented contract that lets a test stack a broad every-call
// rule behind a targeted override without the override being shadowed.
func TestHooksEnterFirstArmedRuleWins(t *testing.T) {
	h := NewHooks()
	h.Arm("site", 2, ActExpire)
	h.Arm("site", 0, ActCorrupt)
	h.Arm("site", 2, ActPanic)

	// Call 1: only the every-call rule matches.
	if act := h.Enter("site"); act != ActCorrupt {
		t.Fatalf("call 1: got action %d, want ActCorrupt", act)
	}
	// Call 2: all three match; the first armed (expire) wins, so the
	// later panic rule must not fire.
	if act := h.Enter("site"); act != ActExpire {
		t.Fatalf("call 2: got action %d, want ActExpire", act)
	}
	// Call 3: back to the every-call rule.
	if act := h.Enter("site"); act != ActCorrupt {
		t.Fatalf("call 3: got action %d, want ActCorrupt", act)
	}
	if n := h.Calls("site"); n != 3 {
		t.Fatalf("call count %d, want 3", n)
	}
}

func TestParseInjectSpecCorrupt(t *testing.T) {
	h, err := ParseInjectSpec("faultsim.word:2:corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if h.Enter("faultsim.word") != ActNone {
		t.Fatal("corrupt rule fired on call 1")
	}
	if h.Enter("faultsim.word") != ActCorrupt {
		t.Fatal("corrupt rule did not fire on call 2")
	}
}

// Escalation grows both budget dimensions exponentially from the first
// retry on, and a zero-valued Factor still escalates.
func TestEscalationGrowth(t *testing.T) {
	e := Escalation{MaxAttempts: 3, BaseTime: time.Second, BaseBacktracks: 100}
	if got := e.TimeAt(1); got != 2*time.Second {
		t.Errorf("TimeAt(1) = %s, want 2s", got)
	}
	if got := e.TimeAt(3); got != 8*time.Second {
		t.Errorf("TimeAt(3) = %s, want 8s", got)
	}
	if got := e.BacktracksAt(2); got != 400 {
		t.Errorf("BacktracksAt(2) = %d, want 400", got)
	}
	e.Factor = 10
	if got := e.BacktracksAt(1); got != 1000 {
		t.Errorf("factor 10: BacktracksAt(1) = %d, want 1000", got)
	}
	// Unset bases stay unset (callers fill them in).
	var zero Escalation
	if zero.TimeAt(1) != 0 || zero.BacktracksAt(1) != 0 {
		t.Error("zero bases escalated to nonzero budgets")
	}
}
