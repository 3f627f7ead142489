package runctl

import (
	"bytes"
	"errors"
	"testing"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Retry(3, 0, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetryReturnsLastErrorWhenExhausted(t *testing.T) {
	calls := 0
	want := errors.New("permanent")
	err := Retry(3, 0, func() error { calls++; return want })
	if !errors.Is(err, want) {
		t.Fatalf("Retry = %v, want %v", err, want)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetryClampsAttempts(t *testing.T) {
	calls := 0
	Retry(0, 0, func() error { calls++; return errors.New("x") })
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (attempts<1 clamps to one try)", calls)
	}
}

func TestParseInjectSpecFail(t *testing.T) {
	h, err := ParseInjectSpec("checkpoint.write:2:fail")
	if err != nil {
		t.Fatalf("ParseInjectSpec: %v", err)
	}
	if act := h.Enter("checkpoint.write"); act != ActNone {
		t.Fatalf("call 1: action = %v, want ActNone", act)
	}
	if act := h.Enter("checkpoint.write"); act != ActFail {
		t.Fatalf("call 2: action = %v, want ActFail", act)
	}
}

func TestRetryWriterRecoversAndExhausts(t *testing.T) {
	h, err := ParseInjectSpec("trace.write:1:fail")
	if err != nil {
		t.Fatalf("ParseInjectSpec: %v", err)
	}
	var buf bytes.Buffer
	w := &RetryWriter{W: &buf, Hooks: h, Site: "trace.write"}
	if n, err := w.Write([]byte("line\n")); err != nil || n != 5 {
		t.Fatalf("Write = %d, %v; want 5, nil", n, err)
	}
	if buf.String() != "line\n" {
		t.Fatalf("payload written %q, want one copy despite the retry", buf.String())
	}

	hAll, err := ParseInjectSpec("trace.write:*:fail")
	if err != nil {
		t.Fatalf("ParseInjectSpec: %v", err)
	}
	buf.Reset()
	w = &RetryWriter{W: &buf, Hooks: hAll, Site: "trace.write"}
	_, werr := w.Write([]byte("line\n"))
	var inj InjectedFailure
	if !errors.As(werr, &inj) {
		t.Fatalf("Write = %v, want InjectedFailure after exhausted budget", werr)
	}
	if buf.Len() != 0 {
		t.Fatalf("underlying writer saw %q despite every attempt failing", buf.String())
	}
}

func TestRetryWriterNilHooks(t *testing.T) {
	var buf bytes.Buffer
	w := &RetryWriter{W: &buf, Site: "trace.write"}
	if _, err := w.Write([]byte("x\n")); err != nil {
		t.Fatalf("Write with nil hooks: %v", err)
	}
}
