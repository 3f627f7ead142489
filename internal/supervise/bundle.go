package supervise

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"gahitec/internal/durable"
	"gahitec/internal/runctl"
)

// BundleVersion is the crash-repro bundle format version. Bundles are
// refused, not guessed at, when the version does not match.
const BundleVersion = 1

// Bundle kinds: why the bundle was captured.
const (
	// KindPanic: the search body panicked (recovered by the supervisor).
	KindPanic = "panic"
	// KindAuditMiscompare: the end-of-run audit demoted a detection claim —
	// the serial reference simulator could not reproduce it.
	KindAuditMiscompare = "audit_miscompare"
	// KindPreempt: the watchdog preempted the search (ceiling or stall).
	KindPreempt = "watchdog_preempt"
	// KindBudget: the fault stayed undecided after exhausting its per-fault
	// budget in the final pass.
	KindBudget = "budget_exhausted"
)

// BundleFault is the fault site in the same plain form the checkpoint
// journal uses: a node index (stable for a given netlist, pinned by the
// circuit fingerprint), a pin (-1 for an output stem) and a stuck value.
type BundleFault struct {
	Node  int    `json:"node"`
	Pin   int    `json:"pin"`
	Stuck string `json:"stuck"`
	Name  string `json:"name,omitempty"` // human-readable, informational only
}

// BundlePass holds the effective per-fault search parameters of the attempt —
// after any governor degradation, so the replay runs exactly what the
// original attempt ran, not what the schedule prescribed.
type BundlePass struct {
	Method          string `json:"method"` // "GA" or "deterministic"
	TimePerFaultNS  int64  `json:"time_per_fault_ns"`
	Population      int    `json:"population,omitempty"`
	Generations     int    `json:"generations,omitempty"`
	SeqLen          int    `json:"seq_len,omitempty"`
	MaxBacktracks   int    `json:"max_backtracks"`
	JustifyAttempts int    `json:"justify_attempts"`
}

// BundleConfig holds the run-level knobs that shape a single-fault search.
type BundleConfig struct {
	MaxFrames        int     `json:"max_frames"`
	WeightGood       float64 `json:"weight_good,omitempty"`
	Selection        int     `json:"selection,omitempty"`
	Crossover        int     `json:"crossover,omitempty"`
	Overlapping      bool    `json:"overlapping,omitempty"`
	FaultFreeJustify bool    `json:"fault_free_justify,omitempty"`
}

// Bundle is a self-contained, deterministic description of one fault
// attempt, captured when something went wrong — a recovered panic, an audit
// miscompare, a watchdog preemption or budget exhaustion — and replayable in
// isolation with `atpg -repro <bundle>`. Everything the replay needs is in
// the bundle: the circuit is identified by name and structural fingerprint,
// the RNG position by the attempt's forked sub-seed, the machine state by
// the good-machine state vector at the attempt's start, and the search
// effort by the effective (possibly degraded) pass parameters.
//
// The struct is plain JSON, written sealed and atomically by Save.
type Bundle struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`

	// RunID is the run correlation ID of the run that captured the bundle
	// (empty when the run had none), linking the bundle to its trace lines,
	// SSE events and dead-letter record. Informational: replays ignore it.
	RunID string `json:"run_id,omitempty"`

	Circuit     string `json:"circuit"`
	Fingerprint string `json:"fingerprint"`

	Fault BundleFault `json:"fault"`

	// Seed is the run seed; SubSeed is the per-fault stream forked from it
	// (one master draw per targeted fault), which is all the replay needs to
	// reproduce the attempt's random choices. MasterDraws records the master
	// stream position at the fork, for diagnosis only.
	Seed        int64  `json:"seed"`
	SubSeed     int64  `json:"sub_seed"`
	MasterDraws uint64 `json:"master_draws"`

	// StartGood is the good machine's flip-flop state when the attempt
	// began (the state the GA justifier seeds from); StartVectors is how
	// many test vectors had been applied to reach it.
	StartGood    string `json:"start_good"`
	StartVectors int    `json:"start_vectors"`

	// Pass is the 1-based schedule pass of the attempt; Attempt counts the
	// retry attempts already spent on the fault when the bundle was captured
	// (0: first failure); Params are the effective search parameters after
	// any governor degradation.
	Pass    int          `json:"pass"`
	Attempt int          `json:"attempt,omitempty"`
	Params  BundlePass   `json:"params"`
	Config  BundleConfig `json:"config"`

	// InjectSpec is the fault-injection spec active during the run,
	// normalized with runctl.NormalizeInjectSpec so rules keyed to
	// campaign-global call numbers fire in a single-fault replay too.
	InjectSpec string `json:"inject_spec,omitempty"`

	// Outcome is what the replay must reproduce: "panic", "undecided",
	// "preempt_ceiling", "preempt_stall" or "miscompare".
	Outcome string `json:"outcome"`

	// Panic details (KindPanic).
	PanicValue string `json:"panic_value,omitempty"`
	PanicSite  string `json:"panic_site,omitempty"`

	// Watchdog thresholds of the original run (KindPreempt), so the replay
	// supervises the search the same way.
	WatchdogCeilingNS int64 `json:"watchdog_ceiling_ns,omitempty"`
	WatchdogStallNS   int64 `json:"watchdog_stall_ns,omitempty"`

	// Audit-miscompare payload (KindAuditMiscompare): the full test set the
	// claim was audited against (one string per vector, one slice per
	// sequence) and the claimed detecting vector's global index. The replay
	// re-runs the serial reference over the set and must reproduce the
	// demotion: no detection at the claimed vector.
	TestSet     [][]string `json:"test_set,omitempty"`
	ClaimVector int        `json:"claim_vector,omitempty"`
}

// Validate checks the bundle's internal consistency before a replay trusts
// any of it.
func (b *Bundle) Validate() error {
	switch {
	case b.Version != BundleVersion:
		return fmt.Errorf("supervise: bundle version %d, want %d", b.Version, BundleVersion)
	case b.Circuit == "" || b.Fingerprint == "":
		return fmt.Errorf("supervise: bundle has no circuit identity")
	case b.Fault.Node < 0:
		return fmt.Errorf("supervise: bundle fault node %d out of range", b.Fault.Node)
	case b.Outcome == "":
		return fmt.Errorf("supervise: bundle has no expected outcome")
	}
	switch b.Kind {
	case KindPanic, KindPreempt, KindBudget:
		if b.Pass < 1 {
			return fmt.Errorf("supervise: bundle pass %d out of range", b.Pass)
		}
		if b.Params.Method != "GA" && b.Params.Method != "deterministic" {
			return fmt.Errorf("supervise: bundle has unknown method %q", b.Params.Method)
		}
	case KindAuditMiscompare:
		if len(b.TestSet) == 0 {
			return fmt.Errorf("supervise: audit-miscompare bundle has no test set")
		}
		if b.ClaimVector < 0 {
			return fmt.Errorf("supervise: audit-miscompare bundle claim vector %d out of range", b.ClaimVector)
		}
	default:
		return fmt.Errorf("supervise: unknown bundle kind %q", b.Kind)
	}
	return nil
}

// Save writes the bundle to path atomically, sealed in the durable envelope.
func (b *Bundle) Save(path string) error {
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return fmt.Errorf("supervise: marshal bundle: %w", err)
	}
	return durable.WriteSealed(durable.Disk, path, durable.KindBundle, data)
}

// SaveBundleIn writes b into dir on the real disk; see SaveBundleInFS.
func SaveBundleIn(dir string, b *Bundle, next int) (string, int, error) {
	return SaveBundleInFS(durable.Disk, dir, b, next)
}

// SaveBundleInFS writes b into dir under its canonical FileName, claiming the
// first free capture ordinal at or above next, and returns the path written
// and the ordinal claimed. Unlike Save — whose rename silently replaces an
// existing file — publication is exclusive: the sealed bundle is written to a
// unique temporary file and linked into place, which fails (instead of
// clobbering) when another writer already owns the name, so concurrent
// writers racing for the same ordinal each end up with their own file. The
// claimed entry is made durable with a directory fsync; every step is a
// crash point the fault-injecting FS can hit.
func SaveBundleInFS(fsys durable.FS, dir string, b *Bundle, next int) (string, int, error) {
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return "", 0, fmt.Errorf("supervise: marshal bundle: %w", err)
	}
	data = durable.Seal(durable.KindBundle, data)
	tmp, err := fsys.CreateTemp(dir, ".bundle.tmp*")
	if err != nil {
		return "", 0, fmt.Errorf("supervise: create bundle temp: %w", err)
	}
	tmpName := tmp.Name()
	defer fsys.Remove(tmpName)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return "", 0, fmt.Errorf("supervise: write bundle: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", 0, fmt.Errorf("supervise: sync bundle: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", 0, fmt.Errorf("supervise: close bundle: %w", err)
	}
	if next < 1 {
		next = 1
	}
	for ordinal := next; ; ordinal++ {
		path := filepath.Join(dir, b.FileName(ordinal))
		switch err := fsys.Link(tmpName, path); {
		case err == nil:
			if err := fsys.SyncDir(dir); err != nil {
				return "", 0, fmt.Errorf("supervise: sync bundle directory: %w", err)
			}
			return path, ordinal, nil
		case errors.Is(err, os.ErrExist):
			continue // another writer claimed this ordinal; take the next
		default:
			return "", 0, fmt.Errorf("supervise: publish bundle: %w", err)
		}
	}
}

// LoadBundle reads and validates a bundle from path. The envelope is verified
// first (a bundle from a build predating envelopes is accepted as-is), so a
// tampered or torn bundle is refused as corrupt before any field is trusted.
func LoadBundle(path string) (*Bundle, error) {
	payload, _, err := durable.ReadSealed(durable.Disk, path, durable.KindBundle)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := runctl.ParseJSON(path, payload, &b); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &b, nil
}

// FileName returns the bundle's canonical file name: kind, fault site, pass
// and retry attempt, prefixed with a capture ordinal so multiple bundles
// from one run sort in capture order. Deterministic — no timestamps. The
// fault site and attempt make the name unique per attempt even when two
// writers race for the same ordinal; SaveBundleIn resolves ordinal
// collisions themselves atomically.
func (b *Bundle) FileName(ordinal int) string {
	pin := "stem"
	if b.Fault.Pin >= 0 {
		pin = fmt.Sprintf("in%d", b.Fault.Pin)
	}
	return fmt.Sprintf("bundle-%03d-%s-n%d-%s-sa%s-p%d-a%d.json",
		ordinal, b.Kind, b.Fault.Node, pin, b.Fault.Stuck, b.Pass, b.Attempt)
}
