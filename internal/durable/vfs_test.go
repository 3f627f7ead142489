package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"gahitec/internal/runctl"
)

func TestWriteSealedReadSealedDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.json")
	payload := []byte(`{"detected": 7}`)
	if err := WriteSealed(Disk, path, KindResult, payload); err != nil {
		t.Fatalf("WriteSealed: %v", err)
	}
	got, legacy, err := ReadSealed(Disk, path, KindResult)
	if err != nil || legacy {
		t.Fatalf("ReadSealed = (legacy=%v, %v)", legacy, err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q", got)
	}
	// No temp debris after a clean publish.
	if debris, _ := filepath.Glob(filepath.Join(dir, ".*")); len(debris) != 0 {
		t.Fatalf("temp debris left behind: %v", debris)
	}
}

func TestReadSealedLegacyAndKindMismatch(t *testing.T) {
	dir := t.TempDir()
	legacyPath := filepath.Join(dir, "legacy.json")
	os.WriteFile(legacyPath, []byte(`{"old": true}`), 0o644)
	got, legacy, err := ReadSealed(Disk, legacyPath, KindResult)
	if err != nil || !legacy || string(got) != `{"old": true}` {
		t.Fatalf("legacy read = (%q, %v, %v)", got, legacy, err)
	}

	wrongPath := filepath.Join(dir, "wrong.json")
	if err := WriteSealed(Disk, wrongPath, KindMetrics, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSealed(Disk, wrongPath, KindResult); !IsCorrupt(err) {
		t.Fatalf("kind mismatch: err = %v, want CorruptError", err)
	}
}

func TestSaveLoadJSON(t *testing.T) {
	type doc struct {
		N int `json:"n"`
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := SaveJSON(Disk, path, "test.doc", &doc{N: 9}); err != nil {
		t.Fatalf("SaveJSON: %v", err)
	}
	var got doc
	if err := LoadJSON(Disk, path, "test.doc", &got); err != nil || got.N != 9 {
		t.Fatalf("LoadJSON = (%+v, %v)", got, err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory not clean after save: %v", entries)
	}
}

func TestSaveJSONFailureLeavesNoPartialFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing-subdir", "journal.json")
	if err := SaveJSON(Disk, path, KindCheckpoint, map[string]int{"a": 1}); err == nil {
		t.Fatal("expected error writing into a missing directory")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("partial journal left behind")
	}
}

// TestFaultFSTornWrite proves the central chaos primitive: a torn write at
// any byte offset leaves the published artifact untouched (the tear hits the
// temp), and a reader of whatever bytes did land detects the damage.
func TestFaultFSTornWrite(t *testing.T) {
	payload := []byte(`{"pass": 2, "cursor": 17}`)
	sealedLen := len(Seal(KindCheckpoint, payload))
	for offset := 0; offset < sealedLen; offset += 7 {
		dir := t.TempDir()
		path := filepath.Join(dir, "checkpoint.json")
		if err := WriteSealed(Disk, path, KindCheckpoint, []byte(`{"pass":1}`)); err != nil {
			t.Fatal(err)
		}
		h := runctl.NewHooks()
		h.ArmIO(SiteWrite, 1, runctl.ActTorn, offset)
		fsys := NewFaultFS(Disk, h)
		err := WriteSealed(fsys, path, KindCheckpoint, payload)
		if err == nil {
			t.Fatalf("offset %d: torn write reported success", offset)
		}
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("offset %d: err = %v, want wrapped EIO", offset, err)
		}
		// The published artifact still holds the previous good version.
		got, _, rerr := ReadSealed(Disk, path, KindCheckpoint)
		if rerr != nil || string(got) != `{"pass":1}` {
			t.Fatalf("offset %d: published artifact damaged: (%q, %v)", offset, got, rerr)
		}
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	h := runctl.NewHooks()
	h.ArmIO(SiteWrite, 1, runctl.ActShort, 4)
	fsys := NewFaultFS(Disk, h)
	path := filepath.Join(t.TempDir(), "tests.txt")
	err := WriteSealed(fsys, path, KindTests, []byte("0101\n1010\n"))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v, want ErrShortWrite", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatal("short write must not publish the artifact")
	}
}

func TestFaultFSENOSPC(t *testing.T) {
	for _, site := range []string{SiteCreate, SiteWrite, SiteSync, SiteRename, SiteSyncDir} {
		h := runctl.NewHooks()
		h.Arm(site, 1, runctl.ActENOSPC)
		fsys := NewFaultFS(Disk, h)
		path := filepath.Join(t.TempDir(), "job.json")
		err := WriteSealed(fsys, path, KindJob, []byte("{}"))
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("site %s: err = %v, want wrapped ENOSPC", site, err)
		}
	}
}

// TestFaultFSLostDir models the crash window between rename and directory
// fsync: the writer is told the publish succeeded but the entry is gone.
// Recovery code must treat the artifact as absent — which ReadSealed does,
// via the os.IsNotExist error.
func TestFaultFSLostDir(t *testing.T) {
	h := runctl.NewHooks()
	h.Arm(SiteRename, 1, runctl.ActLostDir)
	fsys := NewFaultFS(Disk, h)
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	if err := WriteSealed(fsys, path, KindMetrics, []byte("{}")); err != nil {
		t.Fatalf("lostdir must report success to the writer, got %v", err)
	}
	if _, _, err := ReadSealed(Disk, path, KindMetrics); !os.IsNotExist(err) {
		t.Fatalf("artifact must be absent after lostdir, got %v", err)
	}
	// And no temp debris: the source was consumed.
	if debris, _ := filepath.Glob(filepath.Join(dir, "*")); len(debris) != 0 {
		t.Fatalf("debris after lostdir: %v", debris)
	}
}

func TestFaultFSParsedFromInjectSpec(t *testing.T) {
	h, err := runctl.ParseInjectSpec("vfs.write:2:torn=5,vfs.rename:*:lostdir,vfs.sync:1:enospc")
	if err != nil {
		t.Fatalf("ParseInjectSpec: %v", err)
	}
	fsys := NewFaultFS(Disk, h)
	path := filepath.Join(t.TempDir(), "result.json")
	// First write: sync is armed with enospc.
	if err := WriteSealed(fsys, path, KindResult, []byte("{}")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("first write err = %v, want ENOSPC", err)
	}
	// Second write: the write-site rule (call 2) tears it.
	if err := WriteSealed(fsys, path, KindResult, []byte("{}")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("second write err = %v, want EIO", err)
	}
	// Third write survives both, then the rename loses the entry.
	if err := WriteSealed(fsys, path, KindResult, []byte("{}")); err != nil {
		t.Fatalf("third write err = %v", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatal("lostdir rename left the entry visible")
	}
}

func TestWithHooksNilIsDisk(t *testing.T) {
	if WithHooks(nil) != Disk {
		t.Fatal("WithHooks(nil) should be the plain disk")
	}
}

func TestSaveJSONRetryRecoversTransientFault(t *testing.T) {
	h := runctl.NewHooks()
	h.Arm("ck.write", 1, runctl.ActFail)
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	if err := SaveJSONRetry(Disk, h, "ck.write", path, KindCheckpoint, map[string]int{"pass": 1}); err != nil {
		t.Fatalf("one transient failure should be retried away: %v", err)
	}
	var got map[string]int
	if err := LoadJSON(Disk, path, KindCheckpoint, &got); err != nil || got["pass"] != 1 {
		t.Fatalf("LoadJSON = (%v, %v)", got, err)
	}
	if n := h.Calls("ck.write"); n != 2 {
		t.Fatalf("site entered %d times, want 2 (fail then retry)", n)
	}
}

func TestSaveJSONRetryExhaustsBudget(t *testing.T) {
	h, err := runctl.ParseInjectSpec("ck.write:*:fail")
	if err != nil {
		t.Fatalf("ParseInjectSpec: %v", err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	saveErr := SaveJSONRetry(Disk, h, "ck.write", path, KindCheckpoint, 1)
	var inj runctl.InjectedFailure
	if !errors.As(saveErr, &inj) || inj.Site != "ck.write" {
		t.Fatalf("SaveJSONRetry = %v, want InjectedFailure at ck.write", saveErr)
	}
	if n := h.Calls("ck.write"); n != runctl.WriteAttempts {
		t.Fatalf("site entered %d times, want %d", n, runctl.WriteAttempts)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint published despite every attempt failing (stat err %v)", err)
	}
}
