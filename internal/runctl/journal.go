package runctl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
)

// SyncDir fsyncs a directory, making previously renamed-in entries durable.
// Filesystems that refuse to fsync directories (some network and overlay
// mounts return EINVAL) are tolerated: the rename is still atomic, only the
// crash-durability of the entry reverts to the mount's semantics.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	if errors.Is(serr, syscall.EINVAL) || errors.Is(serr, syscall.ENOTSUP) {
		return nil
	}
	return serr
}

// ParseJSON decodes data (named name in errors) into v. The data must hold
// exactly one JSON document: anything after it — as left behind by a
// truncated journal that a later writer appended to, which json.Unmarshal
// alone would reject but a streaming decode would silently ignore — is an
// error, so a corrupted journal is refused rather than half-parsed. Parse
// errors carry the line and column of the offending byte, so a torn or
// truncated journal is diagnosable from the message alone. This is the
// contract behind durable.LoadJSON.
func ParseJSON(name string, data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("runctl: parse journal %s: %s: %w", name, locate(data, err), err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return fmt.Errorf("runctl: journal %s: trailing data after the JSON document", name)
	}
	return nil
}

// locate renders the line:column position of a JSON decode error. Truncated
// documents (unexpected EOF) point at the end of the data; syntax and type
// errors carry their own byte offset.
func locate(data []byte, err error) string {
	off := int64(len(data))
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		off = syn.Offset
	case errors.As(err, &typ):
		off = typ.Offset
	}
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	line, col := 1, 1
	for _, b := range data[:off] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("line %d, column %d", line, col)
}
