package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"malec/internal/config"
)

// FuzzReadJournal replays arbitrary bytes as a campaign's records.log
// beside a valid manifest. readJournal must never panic or fail, must
// renumber the surviving records densely from 1, and must leave the log
// truncated to exactly that prefix: a second replay returns the same
// records and finds nothing left to truncate. The committed corpus under
// testdata/fuzz/FuzzReadJournal covers an empty log, a valid log, a torn
// tail, a non-monotonic seq, a dropped line and garbage.
func FuzzReadJournal(f *testing.F) {
	man, err := json.MarshalIndent(journalManifest{
		Version: JournalFormatVersion,
		ID:      "fuzz",
		Spec: journalSpec{
			Configs:      []config.Config{config.MALEC()},
			Benchmarks:   []string{"gzip"},
			Instructions: 2000,
			Seeds:        []uint64{1, 2},
			Retries:      2,
		},
	}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o644); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(dir, recordsName)
		if err := os.WriteFile(logPath, log, 0o644); err != nil {
			t.Fatal(err)
		}
		rj, err := readJournal(dir)
		if err != nil {
			t.Fatalf("readJournal: %v", err)
		}
		for i, rec := range rj.records {
			if rec.Seq != uint64(i)+1 {
				t.Fatalf("record %d has seq %d, want dense 1-based cursors", i, rec.Seq)
			}
		}
		if rj.torn < 0 || rj.torn > len(log) {
			t.Fatalf("torn = %d of a %d-byte log", rj.torn, len(log))
		}
		if info, err := os.Stat(logPath); err != nil || info.Size() != int64(len(log)-rj.torn) {
			t.Fatalf("log not truncated to its %d-byte valid prefix: %v %v", len(log)-rj.torn, info, err)
		}
		again, err := readJournal(dir)
		if err != nil {
			t.Fatalf("second readJournal: %v", err)
		}
		if again.torn != 0 || !reflect.DeepEqual(again.records, rj.records) {
			t.Fatalf("replay after truncation differs: torn %d, %d records vs %d",
				again.torn, len(again.records), len(rj.records))
		}
	})
}

// FuzzStoreEntry feeds arbitrary bytes to the shared store reader through
// both envelopes: as the result-store entry of one key and as the
// checkpoint entry of one snapshot key. The reader must never panic, must
// never accept an entry with a wrong version, a wrong key or (for a
// checkpoint) no state, and must rename every rejected file aside to a
// .corrupt sibling, since with no failpoints armed every read succeeds.
// The committed corpus under testdata/fuzz/FuzzStoreEntry holds valid
// entries of both envelopes and near misses of each.
func FuzzStoreEntry(f *testing.F) {
	cfg := config.MALEC()
	key := KeyFor(cfg, "gzip", 1000, 1)
	ck := ckKey{MemDigest: MemSideDigest(cfg), Benchmark: "gzip", Seed: 1, Index: 1000}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New(Options{CacheDir: t.TempDir()})

		resPath := e.diskPath(key)
		writeFuzzEntry(t, resPath, data)
		_, resOK := e.loadDisk(key)
		var ent diskEntry
		if resOK && (json.Unmarshal(data, &ent) != nil || ent.Version != DiskFormatVersion || ent.Key != key) {
			t.Fatalf("result store accepted %q", data)
		}
		checkQuarantine(t, resPath, resOK)

		ckPath := e.ckpts.diskPath(ck)
		writeFuzzEntry(t, ckPath, data)
		st, ckOK := e.ckpts.loadDisk(ck)
		var cent ckDiskEntry
		if ckOK && (json.Unmarshal(data, &cent) != nil || cent.Version != DiskFormatVersion || cent.Key != ck ||
			st == nil || st.Sys == nil) {
			t.Fatalf("checkpoint store accepted %q", data)
		}
		checkQuarantine(t, ckPath, ckOK)

		wantRead, wantQuarantined := uint64(0), uint64(0)
		if ckOK {
			wantRead = uint64(len(data))
		} else {
			wantQuarantined++
		}
		if !resOK {
			wantQuarantined++
		}
		if got := e.ckpts.bytesRead.Load(); got != wantRead {
			t.Fatalf("checkpoint bytes read %d, want %d", got, wantRead)
		}
		if got := e.Stats().Quarantined; got != wantQuarantined {
			t.Fatalf("quarantined %d, want %d", got, wantQuarantined)
		}
	})
}

// writeFuzzEntry places data at a store path, creating its shard directory.
func writeFuzzEntry(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkQuarantine asserts that an accepted entry stays in place and a
// rejected one was renamed to its .corrupt sibling.
func checkQuarantine(t *testing.T, path string, accepted bool) {
	t.Helper()
	_, errEntry := os.Stat(path)
	_, errCorrupt := os.Stat(path + ".corrupt")
	switch {
	case accepted && (errEntry != nil || errCorrupt == nil):
		t.Fatalf("accepted entry %s moved or quarantined", filepath.Base(path))
	case !accepted && (errEntry == nil || errCorrupt != nil):
		t.Fatalf("rejected entry %s not quarantined", filepath.Base(path))
	}
}
