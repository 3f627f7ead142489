package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gahitec/internal/runctl"
)

// WriteSealed seals payload under kind and publishes it to path with the full
// durability protocol: temp file in the same directory, write, fsync, close,
// rename over path, fsync of the parent directory. Through the fault-injecting
// FS every one of those steps is a crash point; through Disk the result is an
// artifact a reader can either verify completely or prove corrupt — never
// trust blindly.
func WriteSealed(fsys FS, path, kind string, payload []byte) error {
	return writeRaw(fsys, path, Seal(kind, payload))
}

// writeRaw is the publication protocol for already-framed bytes.
func writeRaw(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("durable: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	discard := func(stage string, err error) error {
		tmp.Close()
		fsys.Remove(tmpName)
		return fmt.Errorf("durable: %s %s: %w", stage, path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return discard("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return discard("sync", err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("durable: close %s: %w", path, err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("durable: publish %s: %w", path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: sync directory of %s: %w", path, err)
	}
	return nil
}

// ReadSealed reads path and verifies its envelope. legacy reports an artifact
// with no envelope at all (accepted: its payload is the whole file, so data
// dirs written by earlier builds keep loading; fsck reseals them). A kind
// mismatch — a valid envelope of the wrong artifact class, e.g. a result.json
// renamed over a checkpoint — is corruption, not legacy.
func ReadSealed(fsys FS, path, kind string) (payload []byte, legacy bool, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	gotKind, payload, err := Open(data)
	switch {
	case err == ErrNoEnvelope:
		return data, true, nil
	case err != nil:
		if ce, ok := err.(*CorruptError); ok && ce.Path == "" {
			ce.Path = path
		}
		return nil, false, err
	case gotKind != kind:
		return nil, false, &CorruptError{Path: path,
			Reason: fmt.Sprintf("envelope kind %q, want %q (artifact misplaced?)", gotKind, kind)}
	}
	return payload, false, nil
}

// SaveJSON marshals v (indented by one space) and writes it sealed.
func SaveJSON(fsys FS, path, kind string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("durable: marshal %s: %w", path, err)
	}
	return WriteSealed(fsys, path, kind, data)
}

// LoadJSON reads a sealed JSON artifact into v under runctl.ParseJSON's
// strict single-document contract. Legacy envelope-less files are accepted.
func LoadJSON(fsys FS, path, kind string, v any) error {
	payload, _, err := ReadSealed(fsys, path, kind)
	if err != nil {
		return err
	}
	return runctl.ParseJSON(path, payload, v)
}

// SaveJSONRetry is SaveJSON with runctl's bounded retry-with-backoff and a
// fault-injection site consulted once per attempt: an armed "site:k:fail"
// rule makes the k-th attempt fail with runctl.InjectedFailure. It is for
// callers that degrade rather than abort when the disk stays broken.
// Corruption-class failures are not what this guards (a write either lands
// or errors); the retries absorb transient EIO.
func SaveJSONRetry(fsys FS, h *runctl.Hooks, site, path, kind string, v any) error {
	return runctl.Retry(runctl.WriteAttempts, runctl.WriteBackoff, func() error {
		if h.Enter(site) == runctl.ActFail {
			return runctl.InjectedFailure{Site: site}
		}
		return SaveJSON(fsys, path, kind, v)
	})
}

// WriteFile writes an unsealed file through the durability protocol (temp +
// fsync + rename + dirsync) on the given FS — for raw artifacts like inline
// netlists whose format cannot carry an envelope, and stand-ins for
// os.WriteFile that still need crash atomicity and fault injection.
func WriteFile(fsys FS, path string, data []byte, _ os.FileMode) error {
	return writeRaw(fsys, path, data)
}
