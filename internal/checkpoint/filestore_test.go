package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fsBlob builds a small but non-trivial valid SPCK blob for proc.
func fsBlob(proc, frontier int) []byte {
	return Encode(&Snapshot{
		Proc: proc, Epoch: 1, Validated: frontier - 1, Frontier: frontier,
		Own:      []Entry{{Iter: frontier, Data: []float64{1, 2, 3}}},
		Hist:     [][]Entry{{{Iter: frontier - 1, Data: []float64{4}}}, nil},
		Received: [][]Entry{nil, nil},
		SentLog:  []Entry{{Iter: frontier, Data: []float64{5, 6}}},
	})
}

// TestFileStoreRoundTripParity drives a FileStore and a MemStore with the
// same saves and asserts byte-identical loads and matching save counts.
func TestFileStoreRoundTripParity(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMemStore()

	for proc := 0; proc < 3; proc++ {
		for k := 0; k < 2+proc; k++ {
			b := fsBlob(proc, 10*(k+1))
			fs.Save(proc, b)
			ms.Save(proc, b)
		}
	}
	if err := fs.Err(); err != nil {
		t.Fatalf("save error: %v", err)
	}
	for proc := 0; proc < 3; proc++ {
		fb, fok := fs.Load(proc)
		mb, mok := ms.Load(proc)
		if !fok || !mok {
			t.Fatalf("proc %d: load ok mismatch (file %v, mem %v)", proc, fok, mok)
		}
		if !bytes.Equal(fb, mb) {
			t.Errorf("proc %d: file store blob differs from mem store blob", proc)
		}
		if fs.Saves(proc) != ms.Saves(proc) {
			t.Errorf("proc %d: %d file saves vs %d mem saves", proc, fs.Saves(proc), ms.Saves(proc))
		}
		if s, err := Decode(fb); err != nil || s.Proc != proc {
			t.Errorf("proc %d: loaded blob does not decode cleanly: %v", proc, err)
		}
	}
	if _, ok := fs.Load(99); ok {
		t.Error("load of never-saved proc reported a checkpoint")
	}
}

// TestFileStoreSurvivesReopen simulates a custody-holder restart: a fresh
// FileStore on the same directory serves the previous incarnation's blobs.
func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fs1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := fsBlob(1, 40)
	fs1.Save(1, want)

	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := fs2.Load(1)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("reopened store lost the checkpoint (ok=%v)", ok)
	}
	if fs2.Saves(1) != 0 {
		t.Errorf("reopened store counts inherited files as its own saves")
	}
}

// TestFileStoreCrashWindowSafety covers the atomic-replace guarantees: a
// stray temp file (a writer that died mid-save) never shadows the published
// checkpoint, and a save over an existing checkpoint replaces it entirely.
func TestFileStoreCrashWindowSafety(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := fsBlob(0, 10)
	fs.Save(0, old)

	// A crashed writer's leftover: garbage under the temp-name pattern.
	if err := os.WriteFile(filepath.Join(dir, "proc-0.ckpt.tmp-dead"), []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := fs.Load(0)
	if !ok || !bytes.Equal(got, old) {
		t.Fatalf("stray temp file disturbed the published checkpoint (ok=%v)", ok)
	}

	// Replacement is whole-file: the new blob (shorter than the old) must
	// fully supersede it, no tail bytes bleeding through.
	niu := fsBlob(0, 20)
	if len(niu) >= len(old) {
		// Keep the regression meaningful: shrink the replacement.
		niu = Encode(&Snapshot{Proc: 0, Epoch: 2, Validated: 19, Frontier: 20})
	}
	fs.Save(0, niu)
	got, ok = fs.Load(0)
	if !ok || !bytes.Equal(got, niu) {
		t.Fatalf("replacement save did not fully supersede the old checkpoint (ok=%v)", ok)
	}
}

// TestFileStoreRejectsCorruption flips, truncates and forges the on-disk
// file and asserts every defect reads as "no checkpoint".
func TestFileStoreRejectsCorruption(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bitflip-body", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{"bitflip-footer", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"footer-only", func(b []byte) []byte { return b[len(b)-4:] }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			fs.Save(2, fsBlob(2, 30))
			path := filepath.Join(dir, "proc-2.ckpt")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, m.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := fs.Load(2); ok {
				t.Error("corrupted checkpoint file loaded as valid")
			}
		})
	}

	// A well-formed CRC over a non-SPCK body must still be rejected: custody
	// only serves current-format snapshots.
	t.Run("wrong-magic", func(t *testing.T) {
		dir := t.TempDir()
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		fs.Save(3, fsBlob(3, 5))
		path := filepath.Join(dir, "proc-3.ckpt")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[0] = 'X' // break the magic…
		// …and re-seal the CRC so only the sniff can catch it.
		reseal := append([]byte(nil), raw[:len(raw)-4]...)
		fs.Save(3, reseal) // Save recomputes the footer over the doctored body
		if _, ok := fs.Load(3); ok {
			t.Error("non-SPCK body with a valid CRC loaded as a checkpoint")
		}
	})

	// Version drift: a future/past layout version is refused even when the
	// file is otherwise intact.
	t.Run("wrong-version", func(t *testing.T) {
		dir := t.TempDir()
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		blob := fsBlob(4, 5)
		blob[4] = byte(Version + 1) // little-endian version word
		fs.Save(4, blob)
		if _, ok := fs.Load(4); ok {
			t.Error("wrong-version blob loaded as a checkpoint")
		}
	})
}

// TestFileStoreClear pins the post-run cleanup: Clear removes every
// checkpoint file (and stranded temp files) but nothing else, and the
// store keeps working afterwards.
func TestFileStoreClear(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < 3; proc++ {
		fs.Save(proc, fsBlob(proc, 10))
	}
	// A foreign file in the directory must survive the clear.
	keep := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(keep, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := fs.Clear(); err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < 3; proc++ {
		if _, ok := fs.Load(proc); ok {
			t.Errorf("proc %d still loads after Clear", proc)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("Clear removed an unrelated file: %v", err)
	}

	// The cleared store is still a working store.
	fs.Save(1, fsBlob(1, 20))
	if b, ok := fs.Load(1); !ok || len(b) == 0 {
		t.Error("save after Clear does not load")
	}
}

// TestOrderPeeksTheHeader: Order reads exactly what Decode would, and
// refuses anything Load would refuse on format grounds.
func TestOrderPeeksTheHeader(t *testing.T) {
	blob := fsBlob(2, 41) // Epoch 1, Validated 40
	if epoch, iter, ok := Order(blob); !ok || epoch != 1 || iter != 40 {
		t.Errorf("Order = (%d, %d, %v), want (1, 40, true)", epoch, iter, ok)
	}
	wrongVersion := append([]byte(nil), blob...)
	wrongVersion[len(magic)]++
	for name, b := range map[string][]byte{
		"empty": nil, "short": blob[:35], "magic": append([]byte("XPCK"), blob[4:]...), "version": wrongVersion,
	} {
		if _, _, ok := Order(b); ok {
			t.Errorf("Order accepted the %s blob", name)
		}
	}
}

// TestFileStoreSync: Sync succeeds on a live directory and, like a failed
// write, latches its failure when the directory is gone.
func TestFileStoreSync(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "custody")
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs.Save(0, fsBlob(0, 10))
	if err := fs.Sync(); err != nil || fs.Err() != nil {
		t.Fatalf("Sync on a healthy store: %v (latched %v)", err, fs.Err())
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err == nil || fs.Err() == nil {
		t.Errorf("Sync of a vanished directory: returned %v, latched %v", err, fs.Err())
	}
}

// TestReplaceFile pins the one atomic replace: the content is replaced, no
// temp file is left after a success or a failed write, and a failed write
// leaves the old content whole.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	writes := func(parts ...string) func(*os.File) error {
		return func(f *os.File) error {
			for _, p := range parts {
				if _, err := f.WriteString(p); err != nil {
					return err
				}
			}
			return nil
		}
	}
	onlyPath := func() {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "state.json" {
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Fatalf("directory holds %v, want only state.json", names)
		}
	}
	content := func() string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for _, want := range []string{"first", "second, longer content"} {
		if err := ReplaceFile(path, writes(want[:3], want[3:])); err != nil {
			t.Fatal(err)
		}
		if got := content(); got != want {
			t.Fatalf("content %q, want %q", got, want)
		}
		onlyPath()
	}

	boom := errors.New("disk full")
	err := ReplaceFile(path, func(f *os.File) error {
		f.WriteString("torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want it to wrap %v", err, boom)
	}
	if got := content(); got != "second, longer content" {
		t.Fatalf("failed write disturbed the old content: %q", got)
	}
	onlyPath()
	if err := SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("SyncDir of a missing directory succeeded")
	}
}
