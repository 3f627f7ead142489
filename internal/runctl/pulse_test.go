package runctl

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestPulseNilSafety(t *testing.T) {
	var p *Pulse
	p.Beat() // must not panic
	if p.Count() != 0 {
		t.Fatal("nil pulse counted")
	}
}

func TestPulseCounts(t *testing.T) {
	p := &Pulse{}
	for i := 0; i < 5; i++ {
		p.Beat()
	}
	if p.Count() != 5 {
		t.Fatalf("Count = %d, want 5", p.Count())
	}
}

func TestBudgetBeatsPulseOnEveryPoll(t *testing.T) {
	p := &Pulse{}
	b := NewBudget(context.Background(), time.Time{}, 1000).WithPulse(p)
	for i := 0; i < 37; i++ {
		b.Expired()
	}
	if p.Count() != 37 {
		t.Fatalf("pulse Count = %d, want 37 (one beat per Expired poll)", p.Count())
	}
	// Exhausted routes through Expired while the allowance lasts.
	before := p.Count()
	b.Exhausted()
	if p.Count() != before+1 {
		t.Fatalf("Exhausted did not beat the pulse")
	}
}

func TestBudgetWithoutPulse(t *testing.T) {
	b := NewBudget(context.Background(), time.Time{}, 10)
	b.Expired() // must not panic with no pulse attached
}

func TestNormalizeInjectSpec(t *testing.T) {
	cases := []struct{ in, want string }{
		{"generate:17:panic", "generate:*:panic"},
		{"generate:*:panic", "generate:*:panic"},
		{"ga:3:sleep=20ms,justify:1:expire", "ga:*:sleep=20ms,justify:*:expire"},
		{"faultsim.word:8:corrupt", "faultsim.word:*:corrupt"},
		{"", ""},
		{"mangled", "mangled"}, // malformed rules pass through for ParseInjectSpec to report
	}
	for _, tc := range cases {
		if got := NormalizeInjectSpec(tc.in); got != tc.want {
			t.Errorf("NormalizeInjectSpec(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// A normalized spec must still parse.
	if _, err := ParseInjectSpec(NormalizeInjectSpec("generate:17:panic,ga:3:sleep=20ms")); err != nil {
		t.Fatalf("normalized spec does not parse: %v", err)
	}
}

func TestFilterInjectSpec(t *testing.T) {
	cases := []struct {
		in   string
		keep []string
		want string
	}{
		{"generate:17:panic", []string{"panic"}, "generate:*:panic"},
		{"generate:17:panic", []string{"expire", "sleep"}, ""},
		{"generate:3:panic,ga:1:sleep=20ms,justify:*:expire", []string{"expire", "sleep"}, "ga:*:sleep=20ms,justify:*:expire"},
		{"ga:1:sleep=20ms", []string{"sleep"}, "ga:*:sleep=20ms"},
		{"mangled,generate:2:expire", []string{"expire"}, "generate:*:expire"},
		{"", []string{"panic"}, ""},
	}
	for _, tc := range cases {
		if got := FilterInjectSpec(tc.in, tc.keep...); got != tc.want {
			t.Errorf("FilterInjectSpec(%q, %v) = %q, want %q", tc.in, tc.keep, got, tc.want)
		}
	}
	// A filtered spec must still parse.
	if _, err := ParseInjectSpec(FilterInjectSpec("generate:3:panic,ga:1:sleep=20ms", "sleep")); err != nil {
		t.Fatalf("filtered spec does not parse: %v", err)
	}
}

// TestLoadJSONTornJournal covers the torn-write family under ParseJSON, the
// strict decode behind durable.LoadJSON: a journal truncated mid-document,
// one truncated mid-string, and one with a corrupted byte. All must be
// rejected with a line-and-column diagnosis.
func TestLoadJSONTornJournal(t *testing.T) {
	type doc struct {
		Version int    `json:"version"`
		Name    string `json:"name"`
		Items   []int  `json:"items"`
	}
	data, err := json.MarshalIndent(doc{Version: 3, Name: "s27", Items: []int{1, 2, 3}}, "", " ")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		wantLoc string
	}{
		{"truncated mid-document", func(b []byte) []byte { return b[:len(b)/2] }, "line"},
		{"truncated mid-string", func(b []byte) []byte {
			i := strings.Index(string(b), `"s27"`)
			return b[:i+2]
		}, "line"},
		{"corrupted byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			i := strings.Index(string(c), `"items"`)
			c[i] = '?'
			return c
		}, "line"},
		{"empty file", func(b []byte) []byte { return nil }, "line 1, column 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := doc{Version: -1}
			err := ParseJSON("torn.json", tc.mangle(data), &got)
			if err == nil {
				t.Fatalf("torn journal loaded: %+v", got)
			}
			if !strings.Contains(err.Error(), tc.wantLoc) {
				t.Fatalf("error %q carries no %q location", err, tc.wantLoc)
			}
		})
	}
}

// TestLoadJSONErrorLocationIsExact pins ParseJSON's line/column arithmetic:
// a known corruption site must be reported at its exact position.
func TestLoadJSONErrorLocationIsExact(t *testing.T) {
	// Line 3 holds the bad token; the decoder reports the byte after it.
	body := "{\n \"a\": 1,\n \"b\": nope\n}\n"
	var v map[string]any
	err := ParseJSON("bad.json", []byte(body), &v)
	if err == nil {
		t.Fatal("bad journal loaded")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not point at line 3", err)
	}
}
