// Package faultfs is the filesystem seam under the write-ahead log: an
// interface covering exactly the OS calls the WAL makes, a pass-through
// implementation backed by the real os package, and a deterministic
// fault injector that makes disks misbehave on a seeded schedule.
//
// Production code never constructs an injector — wal.Options.FS defaults
// to OS, whose methods forward to os.* with no wrapping and no
// allocation, so the no-injector hot path costs one interface dispatch
// on an *os.File method (the same machine instruction count as before;
// the serving-path allocation gates hold). Tests and the crash campaign wrap
// OS in an Injector to deliver short writes, EIO, ENOSPC, and power-loss
// crash points at a position chosen deterministically from a seed.
package faultfs

import (
	"io/fs"
	"os"
)

// File is the slice of *os.File the WAL uses on its write path.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the slice of the os package the WAL calls. Every method has the
// exact os.* contract; OS forwards directly.
type FS interface {
	// OpenFile opens a file for writing (the WAL uses it only with
	// O_CREATE|O_EXCL|O_WRONLY, to create fresh segment files).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens an existing file or directory read-only; the WAL uses
	// it only to fsync files and directories by handle.
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	Truncate(name string, size int64) error
}

// OS is the real filesystem: every method forwards to the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		// Return a typed nil-free interface: callers test err first.
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return os.ReadDir(name)
}
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
