package runctl

import (
	"io"
	"time"
)

// Disk-write sites (checkpoint journals, crash-repro bundles, the NDJSON
// trace sink) retry transient failures a few times with exponential backoff
// before the caller degrades — warns and continues without the artifact —
// rather than aborting a run that may be hours into a fault list. These are
// the shared defaults; callers on a different budget pass their own.
const (
	// WriteAttempts is the default attempt count for a durable write.
	WriteAttempts = 3
	// WriteBackoff is the default delay before the first retry; it doubles
	// per subsequent attempt (5ms, 10ms, ...).
	WriteBackoff = 5 * time.Millisecond
)

// Retry runs fn up to attempts times, sleeping base, 2*base, 4*base, ...
// between attempts, and returns nil on the first success or the last error.
// attempts < 1 is treated as 1; base <= 0 retries without sleeping.
func Retry(attempts int, base time.Duration, fn func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 && base > 0 {
			time.Sleep(base << (i - 1))
		}
		if err = fn(); err == nil {
			return nil
		}
	}
	return err
}

// RetryWriter wraps an io.Writer with the same bounded retry-with-backoff
// and injection site as durable.SaveJSONRetry, for stream sinks (the NDJSON trace)
// whose writes should survive transient failures. Each Write retries the
// whole payload; the underlying writer sees either zero or one successful
// write per payload only if it is itself all-or-nothing per call, which the
// obs sinks are (one NDJSON line per Write). After the retry budget is
// exhausted the error is returned to the caller — the obs.Recorder then
// stops emitting events but keeps aggregating metrics, which is the degraded
// mode the caller wants.
type RetryWriter struct {
	W     io.Writer
	Hooks *Hooks
	Site  string
}

func (w *RetryWriter) Write(p []byte) (int, error) {
	var n int
	err := Retry(WriteAttempts, WriteBackoff, func() error {
		if w.Hooks.Enter(w.Site) == ActFail {
			return InjectedFailure{Site: w.Site}
		}
		var err error
		n, err = w.W.Write(p)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}
