package checkpoint

// FileStore: durable checkpoint custody on the local filesystem. One file
// per processor, written with the classic atomic-replace dance (write a
// temp file, fsync, rename over the real name: ReplaceFile, which the
// scheduler's queue file goes through too), so a crash at any instant
// leaves either the previous complete checkpoint or the new complete
// checkpoint — never a torn one. Load trusts nothing: a whole-file CRC32
// footer catches torn or bit-rotted files, and the SPCK magic/version
// words are verified so a file from a different format (or a different
// kind of blob entirely) is rejected instead of handed to Decode.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// fileFooterLen is the CRC32 footer appended to every checkpoint file.
const fileFooterLen = 4

// FileStore is a checkpoint.Store backed by a directory: proc p's latest
// blob lives in <dir>/proc-p.ckpt. Safe for concurrent use.
//
// Save matches the Store contract (no error return); write failures are
// latched and readable via Err, and a failed Save leaves the previous
// on-disk checkpoint intact — exactly the degradation a custody holder
// wants when the disk fills mid-run.
type FileStore struct {
	dir string

	mu      sync.Mutex
	saves   map[int]int
	lastErr error
}

// NewFileStore opens (creating if needed) a checkpoint directory.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: custody dir: %w", err)
	}
	return &FileStore{dir: dir, saves: make(map[int]int)}, nil
}

// Dir returns the backing directory.
func (s *FileStore) Dir() string { return s.dir }

// Namespace returns a store rooted at <dir>/<job>, so concurrent jobs
// sharing one custody directory cannot clobber each other's proc-N.ckpt
// files: each job's blobs live (and are Cleared) inside its own
// subdirectory. The job id must be a single clean path segment — anything
// that could escape the custody root (separators, "..", empty) is rejected.
func (s *FileStore) Namespace(job string) (*FileStore, error) {
	if err := ValidNamespace(job); err != nil {
		return nil, err
	}
	return NewFileStore(filepath.Join(s.dir, job))
}

// ValidNamespace reports whether job can name a custody namespace: one
// non-empty path segment with no separators, traversal or hidden-file
// prefix. The scheduler validates tenant-supplied names through this before
// they ever reach the filesystem.
func ValidNamespace(job string) error {
	if job == "" {
		return fmt.Errorf("checkpoint: empty custody namespace")
	}
	if strings.ContainsAny(job, "/\\") || job == "." || job == ".." || strings.HasPrefix(job, ".") {
		return fmt.Errorf("checkpoint: invalid custody namespace %q", job)
	}
	return nil
}

func (s *FileStore) path(proc int) string {
	return filepath.Join(s.dir, fmt.Sprintf("proc-%d.ckpt", proc))
}

// Save persists blob as proc's latest checkpoint via atomic replace.
func (s *FileStore) Save(proc int, blob []byte) {
	err := s.save(proc, blob)
	s.mu.Lock()
	if err != nil {
		s.lastErr = err
	} else {
		s.saves[proc]++
	}
	s.mu.Unlock()
}

func (s *FileStore) save(proc int, blob []byte) error {
	var footer [fileFooterLen]byte
	binary.LittleEndian.PutUint32(footer[:], crc32.ChecksumIEEE(blob))
	// The borrowed blob goes out as it stands and the footer behind it: a
	// second four-byte write costs less than a blob-sized buffer to join them.
	return ReplaceFile(s.path(proc), func(f *os.File) error {
		if _, err := f.Write(blob); err != nil {
			return err
		}
		_, err := f.Write(footer[:])
		return err
	})
}

// Sync fsyncs the directory, making every rename Save has published so far
// survive a power cut. Save leaves it out on purpose: the holder calls Sync
// once per durability promise (an acked evict, a drain), not once per file.
// A failure is latched like a write failure.
func (s *FileStore) Sync() error {
	err := SyncDir(s.dir)
	if err != nil {
		s.mu.Lock()
		s.lastErr = err
		s.mu.Unlock()
	}
	return err
}

// ReplaceFile is the repository's one atomic file replace: what write
// writes goes to a temp file in path's directory, which is fsynced, closed
// and renamed over path. A crash at any instant, or a failed write, leaves
// the previous content of path whole, and a failure removes the temp file.
// The rename itself survives a power cut once the directory is synced
// (SyncDir); a caller that promises durability calls both.
func ReplaceFile(path string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	name := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("checkpoint: writing %s: %w", name, err)
	}
	// The fsync before the rename is the atomicity half the rename alone
	// does not buy: without it a power cut can publish a name pointing at
	// unwritten blocks.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("checkpoint: syncing %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("checkpoint: closing %s: %w", name, err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("checkpoint: publishing %s: %w", path, err)
	}
	return nil
}

// SyncDir fsyncs directory dir, making the renames published in it so far
// survive a power cut.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close() // read-only handle
	}
	if err != nil {
		return fmt.Errorf("checkpoint: syncing dir %s: %w", dir, err)
	}
	return nil
}

// Load returns proc's latest checkpoint if a complete, uncorrupted,
// current-format one exists on disk. Any defect — missing file, truncated
// footer, CRC mismatch, wrong magic, wrong version — reads as "no
// checkpoint": the caller restarts from scratch rather than from garbage.
func (s *FileStore) Load(proc int) ([]byte, bool) {
	raw, err := os.ReadFile(s.path(proc))
	if err != nil {
		return nil, false
	}
	if len(raw) < fileFooterLen {
		return nil, false
	}
	blob := raw[:len(raw)-fileFooterLen]
	sum := binary.LittleEndian.Uint32(raw[len(raw)-fileFooterLen:])
	if crc32.ChecksumIEEE(blob) != sum {
		return nil, false
	}
	// Format sniff: custody only ever holds SPCK snapshots, so insist on
	// the magic and the current version word before handing the blob out.
	if _, _, ok := Order(blob); !ok {
		return nil, false
	}
	return blob, true
}

// Clear removes every checkpoint file in the directory. Call it after a
// run completes successfully: custody exists to revive *that* run, and a
// completed run's final checkpoints would poison the next run started on
// the same directory (ranks restored at the finish line exit immediately
// and stop serving refills, stranding any rank restored a few iterations
// behind them).
func (s *FileStore) Clear() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: clearing custody: %w", err)
	}
	for _, e := range entries {
		var proc int
		if _, err := fmt.Sscanf(e.Name(), "proc-%d.ckpt", &proc); err != nil {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
			return fmt.Errorf("checkpoint: clearing custody: %w", err)
		}
	}
	return nil
}

// Saves reports how many times proc has been successfully checkpointed
// through this store instance (on-disk files inherited from a previous
// process are not counted).
func (s *FileStore) Saves(proc int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saves[proc]
}

// Err returns the most recent write failure, if any.
func (s *FileStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}
