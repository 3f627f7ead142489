package runctl_test

import (
	"os"
	"path/filepath"
	"testing"

	"gahitec/internal/durable"
	"gahitec/internal/runctl"
)

// Journals are written through durable's sealed write path and decoded by
// ParseJSON; these tests pin that composition from the runctl side.

func TestSaveLoadJSONRoundTrip(t *testing.T) {
	type doc struct {
		Name string
		Seq  []int
	}
	path := filepath.Join(t.TempDir(), "journal.json")
	want := doc{Name: "ckpt", Seq: []int{3, 1, 4}}
	if err := durable.SaveJSON(durable.Disk, path, durable.KindCheckpoint, want); err != nil {
		t.Fatal(err)
	}
	var got doc
	if err := durable.LoadJSON(durable.Disk, path, durable.KindCheckpoint, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || len(got.Seq) != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
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

func TestSaveJSONRetryRecoversFromInjectedFailure(t *testing.T) {
	h, err := runctl.ParseInjectSpec("journal.write:1:fail")
	if err != nil {
		t.Fatalf("ParseInjectSpec: %v", err)
	}
	path := filepath.Join(t.TempDir(), "j.json")
	if err := durable.SaveJSONRetry(durable.Disk, h, "journal.write", path, durable.KindCheckpoint, map[string]int{"a": 1}); err != nil {
		t.Fatalf("SaveJSONRetry: %v", err)
	}
	var got map[string]int
	if err := durable.LoadJSON(durable.Disk, path, durable.KindCheckpoint, &got); err != nil {
		t.Fatalf("LoadJSON: %v", err)
	}
	if got["a"] != 1 {
		t.Fatalf("journal round-trip: got %v", got)
	}
	if n := h.Calls("journal.write"); n != 2 {
		t.Fatalf("site entered %d times, want 2 (fail then retry)", n)
	}
}
