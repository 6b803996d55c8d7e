package storage

import (
	"fmt"
	"os"
	"path/filepath"
)

// This file is the single implementation of the torn-write discipline
// every durable artifact of the repo shares: checkpoint files
// (File.Put), session metadata and handoff imports (internal/service),
// and the write-ahead log's truncation path (internal/wal). The rules:
//
//  1. write the new content to <path>.tmp;
//  2. fsync the temp file, so the bytes are on the medium before any
//     name points at them;
//  3. rename <path>.tmp over <path> — the atomic commit point;
//  4. fsync the parent directory, so the rename itself survives a
//     machine crash.
//
// A crash before step 3 leaves only a .tmp file, which readers ignore
// and recovery removes; a crash after step 3 leaves the complete new
// content. No interleaving exposes a half-written committed name.

// fsyncFile and fsyncDir are seams for the durability tests: they flush
// a written file (before the rename) and a directory (after renames or
// removes), and the tests replace them to inject medium failures.
var (
	fsyncFile = func(f *os.File) error { return f.Sync() }
	fsyncDir  = func(d *os.File) error { return d.Sync() }
)

// TestingBeforeRename, when non-nil, runs after the temp file of a
// durable write has been synced and closed, immediately before the
// rename publishes it — the window in which a crash leaves a .tmp
// behind. Crash-point tests use it to capture mid-import disk images;
// production code must never set it.
var TestingBeforeRename func(path string)

// SyncFile flushes an open file to the medium (through the test seam).
func SyncFile(f *os.File) error { return fsyncFile(f) }

// SyncDir opens the directory and flushes its entry table — required
// after a rename or remove inside it before the operation can be
// considered durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	defer d.Close()
	if err := fsyncDir(d); err != nil {
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	return nil
}

// WriteFileDurable writes data to path with the full torn-write
// discipline above. On error nothing is committed: the temp file is
// removed and any previous content of path is untouched.
func WriteFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := fsyncFile(tf); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("sync %s: %w", tmp, err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("close %s: %w", tmp, err)
	}
	if TestingBeforeRename != nil {
		TestingBeforeRename(path)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("commit %s: %w", path, err)
	}
	return SyncDir(filepath.Dir(path))
}

// RemoveDurable removes path (file or directory tree) and syncs the
// parent directory, so the removal survives a machine crash. Removing
// an already-missing path is not an error.
func RemoveDurable(path string) error {
	if err := os.RemoveAll(path); err != nil {
		return fmt.Errorf("remove %s: %w", path, err)
	}
	return SyncDir(filepath.Dir(path))
}
