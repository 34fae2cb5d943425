package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Filesystem backend: one directory per session under <root>/sessions/,
// holding
//
//	wal        append-only CRC-framed event records
//	snapshot   the latest full-state image (one frame; replaced atomically
//	           via snapshot.tmp + rename)
//	tombstone  present iff the session was deliberately ended
//
// The tombstone file — not the absence of the directory — is the durable
// "ended" marker: a crash midway through removing a session's files must
// not leave a half-deleted directory that recovery mistakes for a live
// session. Tombstoned directories are swept (fully removed) on List, i.e.
// at the next startup's recovery pass.

// FS is the filesystem Backend.
type FS struct {
	root string
}

// NewFS opens (creating if needed) a filesystem backend rooted at dir.
func NewFS(dir string) (*FS, error) {
	if dir == "" {
		return nil, errors.New("store: empty data directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data directory: %w", err)
	}
	return &FS{root: dir}, nil
}

// validID rejects ids that could escape the sessions directory. Manager-
// minted ids are [a-z0-9-] already; this is the trust boundary for any
// other caller.
func validID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || id == "." || id == ".." {
		return fmt.Errorf("store: invalid session id %q", id)
	}
	return nil
}

func (f *FS) dir(id string) string { return filepath.Join(f.root, "sessions", id) }

// syncDir fsyncs a directory, making the entries inside it (renames,
// creations) durable. On Linux — the deployment target — it is the
// load-bearing half of every rename-based atomicity argument in this file,
// so its failure IS the caller's failure (no best-effort fallback: a store
// that cannot order its renames cannot keep the durability contract, and
// the counters should say so rather than hide it).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// List returns every non-tombstoned session directory, sweeping tombstoned
// ones away as it goes.
func (f *FS) List() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(f.root, "sessions"))
	if err != nil {
		return nil, fmt.Errorf("store: listing sessions: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		if _, err := os.Stat(filepath.Join(f.dir(id), "tombstone")); err == nil {
			// Deliberately ended; finish the removal a crash may have
			// interrupted.
			_ = os.RemoveAll(f.dir(id))
			continue
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Open opens (creating if needed) one session's directory. A tombstoned id
// is being reused: clear the stale state so the old session's log cannot
// leak into the new one.
func (f *FS) Open(id string) (Log, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	dir := f.dir(id)
	if _, err := os.Stat(filepath.Join(dir, "tombstone")); err == nil {
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("store: clearing tombstoned session %s: %w", id, err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating session dir %s: %w", id, err)
	}
	wal, err := os.OpenFile(filepath.Join(dir, "wal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal for %s: %w", id, err)
	}
	st, err := wal.Stat()
	if err != nil {
		_ = wal.Close()
		return nil, fmt.Errorf("store: sizing wal for %s: %w", id, err)
	}
	return &fsLog{dir: dir, wal: wal, size: st.Size()}, nil
}

// Tombstone durably marks the session ended, then removes its files. The
// marker is created and synced BEFORE any removal, so a crash mid-removal
// leaves a directory List will sweep rather than recover.
func (f *FS) Tombstone(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	dir := f.dir(id)
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		return nil // never persisted, nothing to end
	}
	t, err := os.Create(filepath.Join(dir, "tombstone"))
	if err != nil {
		return fmt.Errorf("store: tombstoning %s: %w", id, err)
	}
	err = t.Sync()
	if cerr := t.Close(); err == nil {
		err = cerr
	}
	// The marker's DIRECTORY ENTRY must be durable too, or a power loss
	// after the removals below could leave a half-deleted session with no
	// tombstone — which recovery would try to serve.
	if serr := syncDir(dir); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("store: tombstoning %s: %w", id, err)
	}
	// Best-effort space reclaim; List sweeps whatever remains.
	_ = os.Remove(filepath.Join(dir, "wal"))
	_ = os.Remove(filepath.Join(dir, "snapshot"))
	_ = os.Remove(filepath.Join(dir, "tombstone"))
	_ = os.Remove(dir)
	return nil
}

// Close releases the backend (the filesystem backend holds no global
// resources; per-session files are closed via their Logs).
func (f *FS) Close() error { return nil }

// fsLog is one session's on-disk state. size tracks the WAL's length — the
// file is written only by this handle (one owning shard) and truncated only
// through these methods, so no per-append Stat is needed; it exists for the
// failed-append truncate-back.
type fsLog struct {
	dir  string
	wal  *os.File
	size int64
}

func (l *fsLog) Append(payload []byte) error {
	if len(payload) > maxFrameBytes {
		// Enforced at write time, not just read time: an oversized frame
		// would be written "successfully" and then declared corrupt at the
		// next recovery, taking every later record with it.
		return fmt.Errorf("store: record of %d bytes exceeds the %d frame limit", len(payload), maxFrameBytes)
	}
	frame := appendFrame(make([]byte, 0, frameHeaderSize+len(payload)), payload)
	if _, werr := l.wal.Write(frame); werr != nil {
		// A failed write (ENOSPC, I/O error) may have landed PART of the
		// frame. A torn frame at the very end is fine — the reader stops
		// there — but appending past it would bury every later record
		// behind an unreadable tear. Truncate back to the pre-append length
		// so the log is exactly as it was; if even that fails, poison the
		// log so the Store stops appending until a snapshot rebuilds it.
		if terr := l.wal.Truncate(l.size); terr != nil {
			return fmt.Errorf("store: append failed (%v), truncate-back to %d failed (%v): %w",
				werr, l.size, terr, ErrPoisoned)
		}
		return werr
	}
	l.size += int64(len(frame))
	return nil
}

func (l *fsLog) Sync() error { return l.wal.Sync() }

func (l *fsLog) ReadWAL() ([][]byte, *Corruption, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, "wal"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	payloads, torn := readFrames(data)
	return payloads, torn, nil
}

func (l *fsLog) Truncate() error {
	if err := l.wal.Truncate(0); err != nil {
		return err
	}
	l.size = 0
	return nil
}

func (l *fsLog) WriteSnapshot(payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("store: snapshot of %d bytes exceeds the %d frame limit", len(payload), maxFrameBytes)
	}
	tmp := filepath.Join(l.dir, "snapshot.tmp")
	final := filepath.Join(l.dir, "snapshot")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	frame := appendFrame(make([]byte, 0, frameHeaderSize+len(payload)), payload)
	_, werr := f.Write(frame)
	// The temp file is synced before the rename: renaming a dirty file can
	// surface as a zero-length "snapshot" after a power loss, which would
	// shadow the previous good image.
	serr := f.Sync()
	cerr := f.Close()
	for _, err := range []error{werr, serr, cerr} {
		if err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	// The rename must be durable BEFORE the caller truncates the WAL: a
	// power loss that kept the truncate but lost the rename would pair the
	// OLD snapshot with a post-truncate WAL whose first record continues a
	// newer version — recovery would reject the whole session.
	return syncDir(l.dir)
}

func (l *fsLog) ReadSnapshot() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, "snapshot"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	payloads, torn := readFrames(data)
	if torn != nil || len(payloads) != 1 {
		return nil, fmt.Errorf("store: snapshot in %s is corrupt (%d frames, torn=%v)", l.dir, len(payloads), torn)
	}
	return payloads[0], nil
}

func (l *fsLog) Close() error { return l.wal.Close() }
