package engine

// The disk-entry codec shared by the result store and the checkpoint
// store. Each store keeps its own versioned JSON envelope (diskEntry,
// ckDiskEntry) and its own validity rule; how an entry is published and
// read back — and what happens to one that is damaged — is defined once
// here. The campaign journal's fsync'd writes are a separate discipline
// (writeFileDurable): store entries are caches, journal files are not.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"

	"malec/internal/faultinject"
)

// writeEntry persists v as JSON at path, writing a temp file in the same
// directory and renaming it over path so a concurrent reader never
// observes a partial entry. Persistence is best effort: on any error,
// including an injected write fault, nothing is stored. It returns the
// entry's size in bytes, 0 when nothing was stored.
func writeEntry(path string, v any) int {
	if faultinject.DiskWrite.Fire() {
		return 0
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0
	}
	data, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0
	}
	return len(data)
}

// readEntry reads the entry at path: read, corrupt failpoint, decode,
// validate, quarantine. A read failure (including an injected one) is a
// plain miss: the stores are caches, never a source of truth. A file that
// reads fine but fails to decode or that valid rejects is corrupt: it is
// renamed aside with a .corrupt suffix (counted in quarantined; the
// sibling is kept for post-mortems), so a damaged entry is read, and
// fails, exactly once instead of being re-parsed hot on every lookup. n is
// the accepted entry's size in bytes.
func readEntry[E any](path string, corrupt *faultinject.Point, quarantined *atomic.Uint64, valid func(*E) bool) (ent E, n int, ok bool) {
	if faultinject.DiskRead.Fire() {
		return ent, 0, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return ent, 0, false
	}
	corrupt.CorruptBytes(data)
	if err := json.Unmarshal(data, &ent); err != nil || !valid(&ent) {
		if os.Rename(path, path+".corrupt") == nil {
			quarantined.Add(1)
		}
		var zero E
		return zero, 0, false
	}
	return ent, len(data), true
}
