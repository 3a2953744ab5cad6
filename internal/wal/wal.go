// Package wal is the durability layer of the serving stack: a
// segmented append-only write-ahead log of committed kv write effects,
// with group commit, periodic snapshots and startup recovery.
//
// The log records logical state transitions, not engine internals: one
// CRC-framed record per committed store transaction, holding its write
// effects ([]kv.Effect) in program order. Replaying records in log
// order is therefore idempotent prefix-repair — re-applying a record
// that a snapshot already covers rewrites the same values — which is
// what makes the snapshot cut protocol simple (see Log.WriteSnapshot).
//
// Group commit: sessions do not write files. Log.Append encodes the
// record into a shared pending buffer under a short mutex and wakes
// the single log goroutine, which swaps the buffer out and writes the
// whole batch with one write syscall — so N concurrent committers pay
// one write (and, with SyncAlways, one fsync) instead of N. Under
// SyncAlways, Append blocks until the fsync covering its record has
// completed; under SyncInterval the log goroutine fsyncs on a timer;
// under SyncNever it never fsyncs (the OS page cache decides).
// The append path performs no steady-state heap allocation: frames are
// rendered with binary.AppendUvarint into the reused pending buffer,
// mirroring the wire path's byte-rendering discipline.
//
// Failure model: the log is fail-stop. The first write or fsync error
// latches the log into a failed state (a FailStopError wrapping the
// cause); every subsequent Append returns it, and the store above stops
// accepting writes. Under SyncAlways a committer whose record was not
// yet durable when the failure hit gets the error instead of an ack —
// an acknowledged write is never lost. The in-memory state may then be
// ahead of the log, never behind a successful Append's acknowledgment.
//
// All file I/O goes through a faultfs.FS (Options.FS, defaulting to the
// real OS), so tests and the crash campaign can inject short writes,
// EIO, ENOSPC, and power-loss crash points deterministically.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/faultfs"
	"repro/internal/kv"
)

// Policy selects when the log fsyncs.
type Policy uint8

const (
	// SyncInterval fsyncs on a timer (Options.Interval): bounded data
	// loss, near wal-off throughput. The default.
	SyncInterval Policy = iota
	// SyncAlways fsyncs every group-commit batch before acknowledging
	// the transactions in it: no acknowledged write is ever lost.
	SyncAlways
	// SyncNever leaves flushing to the OS: contents survive process
	// crashes (the kill-and-recover scenario) but not OS crashes.
	SyncNever
)

// ParsePolicy maps the -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|never)", s)
}

// String returns the -fsync flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return "interval"
}

// Options parameterize Open.
type Options struct {
	// Dir is the log directory, created if missing.
	Dir string
	// Policy is the fsync policy (default SyncInterval).
	Policy Policy
	// Interval is the SyncInterval fsync period (default 100ms).
	Interval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this
	// size (default 64 MiB).
	SegmentBytes int64
	// FS is the filesystem the log writes through (default the real
	// OS). Tests and the crash campaign install a faultfs.Injector.
	FS faultfs.FS
}

func (o *Options) fill() {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log closed")

// ErrFailStop marks the log's latched failure: errors.Is(err,
// ErrFailStop) holds for every error Append returns after the first
// write or fsync error. The server maps it to the `ERR readonly` wire
// reply.
var ErrFailStop = errors.New("wal: fail-stop")

// FailStopError is the sticky error the log latches into on the first
// write or fsync failure. It matches ErrFailStop via errors.Is and
// unwraps to the underlying cause (so errors.Is(err, syscall.EIO) etc.
// still work).
type FailStopError struct {
	Cause error
}

func (e *FailStopError) Error() string { return "wal: fail-stop: " + e.Cause.Error() }
func (e *FailStopError) Unwrap() error { return e.Cause }
func (e *FailStopError) Is(target error) bool {
	return target == ErrFailStop
}

// segment is one on-disk log file.
type segment struct {
	idx      int
	firstSeq uint64
	path     string
}

// Log is an open write-ahead log. Append is safe for concurrent use;
// WriteSnapshot and Close must not race each other.
type Log struct {
	opts Options

	mu           sync.Mutex
	cond         *sync.Cond // durableSeq advanced, or failure
	pending      []byte     // framed records awaiting the log goroutine
	pendingFirst uint64     // seq of the first frame in pending
	lastSeq      uint64     // last assigned sequence number
	durableSeq   uint64     // last seq persisted per the policy
	snapSeq      uint64     // cut of the latest snapshot
	segs         []segment  // all live segments; last is active
	tail         []byte     // in-memory copy of the newest durable frames
	tailFirst    uint64     // seq of the first frame in tail (valid when len(tail) > 0)
	tailOn       bool       // mirror flushed batches into tail; latched by the first TailReader
	failed       error
	closed       bool

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
	exec chan execReq // funcs to run on the log goroutine (snapshot install)

	// snapMu serializes everything that mutates snapshot files and the
	// chain state below: the snapshot writers, snapshot install, and
	// bundle assembly for replicas. It is never held while waiting on
	// the log goroutine and always acquired before l.mu.
	snapMu sync.Mutex
	// Chain state of the newest manifest written by THIS process (see
	// chain.go): nil chainImgs means no chain base — the next cut is a
	// full cut. Chains deliberately never link to images of a previous
	// process: shard membership hashes intern handles, whose assignment
	// order is not stable across recovery.
	chainCut    uint64
	chainImgs   []uint64 // per-shard image cut referenced by the newest manifest
	chainEpochs []uint64 // per-shard dirty epochs observed at that cut

	// log-goroutine-owned state.
	f        faultfs.File
	segBytes int64
	spare    []byte // buffer swapped with pending
	dirty    bool   // bytes written since the last fsync
}

// Append records one committed transaction's write effects and, under
// SyncAlways, blocks until they are durable. Its signature matches
// kv.CommitHook, so a store is wired with store.SetCommitHook(l.Append).
func (l *Log) Append(effects []kv.Effect) error {
	if len(effects) == 0 {
		return nil
	}
	l.mu.Lock()
	if err := l.failed; err != nil {
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.lastSeq++
	seq := l.lastSeq
	if len(l.pending) == 0 {
		l.pendingFirst = seq
	}
	l.pending = appendFrame(l.pending, seq, effects)
	select {
	case l.wake <- struct{}{}:
	default:
	}
	if l.opts.Policy != SyncAlways {
		l.mu.Unlock()
		return nil
	}
	for l.durableSeq < seq && l.failed == nil {
		l.cond.Wait()
	}
	// A record that became durable before the failure latched keeps its
	// ack: the error belongs to later, non-durable records.
	var err error
	if l.durableSeq < seq {
		err = l.failed
	}
	l.mu.Unlock()
	return err
}

// LastSeq returns the last assigned sequence number.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// DurableSeq returns the last sequence number persisted according to
// the policy (written for SyncInterval/SyncNever, fsynced for
// SyncAlways).
func (l *Log) DurableSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableSeq
}

// Stats is a point-in-time summary of the log, for serving reports.
type Stats struct {
	Appended    uint64 // records appended (last assigned seq)
	Durable     uint64 // last seq persisted per the policy
	SnapshotSeq uint64 // cut of the latest snapshot (0 = none)
	Segments    int    // live segment files, active included
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Appended: l.lastSeq, Durable: l.durableSeq, SnapshotSeq: l.snapSeq, Segments: len(l.segs)}
}

// Err returns the sticky failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Close flushes everything pending, fsyncs regardless of policy (the
// clean-shutdown flush), closes the active segment and stops the log
// goroutine. Blocked SyncAlways appenders are released. Safe to call
// more than once.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return l.Err()
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	return l.Err()
}

// run is the log goroutine: the single writer that batches, rotates,
// and fsyncs.
func (l *Log) run() {
	defer close(l.done)
	var tickC <-chan time.Time
	if l.opts.Policy == SyncInterval {
		t := time.NewTicker(l.opts.Interval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-l.quit:
			l.flushBatch()
			l.syncNow()
			l.f.Close()
			l.mu.Lock()
			l.cond.Broadcast()
			l.mu.Unlock()
			return
		case <-l.wake:
			l.flushBatch()
		case req := <-l.exec:
			req.done <- req.fn()
		case <-tickC:
			l.flushBatch()
			l.syncNow()
		}
	}
}

// execReq asks the log goroutine — the only owner of the active
// segment file — to run fn between batches.
type execReq struct {
	fn   func() error
	done chan error
}

// onLogGoroutine runs fn on the log goroutine and returns its error,
// or ErrClosed if the log shut down first.
func (l *Log) onLogGoroutine(fn func() error) error {
	req := execReq{fn: fn, done: make(chan error, 1)}
	select {
	case l.exec <- req:
		return <-req.done
	case <-l.done:
		return ErrClosed
	}
}

// flushBatch swaps out the pending buffer and writes it as one batch —
// the group commit. Under SyncAlways it fsyncs before advancing
// durableSeq and waking the committers in the batch.
func (l *Log) flushBatch() {
	l.mu.Lock()
	if len(l.pending) == 0 || l.failed != nil {
		l.mu.Unlock()
		return
	}
	buf := l.pending
	batchSeq := l.lastSeq
	batchFirst := l.pendingFirst
	l.pending = l.spare[:0]
	l.spare = nil
	l.mu.Unlock()

	err := l.writeBatch(buf, batchFirst)
	if err == nil {
		l.dirty = true
		if l.opts.Policy == SyncAlways {
			if err = l.f.Sync(); err == nil {
				l.dirty = false
			}
		}
	}

	l.mu.Lock()
	l.spare = buf[:0]
	if err != nil {
		l.latchLocked(err)
	} else {
		if batchSeq > l.durableSeq {
			l.durableSeq = batchSeq
		}
		// Mirror the durable batch into the bounded in-memory tail, the
		// fast path for replication followers (see TailReader). The
		// mirror stays off until a follower exists: a non-replicating
		// server must not pay a per-flush copy for a buffer nobody
		// reads. Followers attaching later catch up from segment files
		// until the mirror overtakes their cursor.
		if l.tailOn {
			if len(l.tail) == 0 {
				l.tailFirst = batchFirst
			}
			l.tail = append(l.tail, buf...)
			l.trimTailLocked()
		}
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// tailBufMax bounds the in-memory follower tail. Followers whose
// cursor falls off the front catch up from segment files instead.
// Compaction is deferred until the buffer doubles the budget so the
// front-drop memmove is amortized O(1) per appended byte — trimming on
// every flush would move ~tailBufMax bytes per group commit, which
// under fsync=interval measurably taxes the whole write path.
const tailBufMax = 1 << 20

// trimTailLocked drops whole frames off the front of the tail until it
// fits the budget, always keeping at least the newest frame. Callers
// hold l.mu.
func (l *Log) trimTailLocked() {
	if len(l.tail) <= 2*tailBufMax {
		return
	}
	drop := 0
	for len(l.tail)-drop > tailBufMax {
		n := frameHeaderLen + int(binary.LittleEndian.Uint32(l.tail[drop:]))
		if drop+n >= len(l.tail) {
			break
		}
		drop += n
		l.tailFirst++
	}
	l.tail = append(l.tail[:0], l.tail[drop:]...)
}

// latchLocked flips the log into its terminal fail-stop state. Callers
// hold l.mu.
func (l *Log) latchLocked(cause error) {
	if l.failed == nil {
		l.failed = &FailStopError{Cause: cause}
	}
}

// writeBatch appends buf — a run of complete frames — to the active
// segment, rotating at frame boundaries when the segment fills. A
// frame is never split across segments; a frame larger than the
// segment limit gets a segment of its own.
func (l *Log) writeBatch(buf []byte, firstSeq uint64) error {
	nextSeq := firstSeq
	for len(buf) > 0 {
		n := frameHeaderLen + int(binary.LittleEndian.Uint32(buf))
		if l.segBytes > segHeaderLen && l.segBytes+int64(n) > l.opts.SegmentBytes {
			if err := l.rotate(nextSeq); err != nil {
				return err
			}
		}
		// Greedily extend the chunk with every further frame that fits.
		end := n
		for end+frameHeaderLen <= len(buf) {
			m := frameHeaderLen + int(binary.LittleEndian.Uint32(buf[end:]))
			if l.segBytes+int64(end+m) > l.opts.SegmentBytes {
				break
			}
			end += m
		}
		w, err := l.f.Write(buf[:end])
		l.segBytes += int64(w)
		if err != nil {
			return err
		}
		buf = buf[end:]
		if len(buf) >= frameHeaderLen+1 {
			// The first uvarint of the next frame's body is its seq — the
			// header of a segment opened for it.
			nextSeq, _ = binary.Uvarint(buf[frameHeaderLen:])
		}
	}
	return nil
}

// rotate closes the active segment (fully durable first) and opens the
// next one, whose records start at firstSeq.
func (l *Log) rotate(firstSeq uint64) error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.mu.Lock()
	idx := l.segs[len(l.segs)-1].idx + 1
	l.mu.Unlock()
	return l.openSegment(idx, firstSeq)
}

// syncNow fsyncs the active segment if anything was written since the
// last fsync. After a latched failure it does nothing: the log is
// fail-stop and never touches the disk again.
func (l *Log) syncNow() {
	if !l.dirty || l.f == nil {
		return
	}
	l.mu.Lock()
	failed := l.failed != nil
	l.mu.Unlock()
	if failed {
		return
	}
	if err := l.f.Sync(); err != nil {
		l.mu.Lock()
		l.latchLocked(err)
		l.cond.Broadcast()
		l.mu.Unlock()
		return
	}
	l.dirty = false
}

// openSegment creates segment idx with the given first sequence
// number, writes its header, and registers it as active.
func (l *Log) openSegment(idx int, firstSeq uint64) error {
	path := filepath.Join(l.opts.Dir, segName(idx))
	f, err := l.opts.FS.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, firstSeq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.opts.FS, l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segBytes = segHeaderLen
	l.mu.Lock()
	l.segs = append(l.segs, segment{idx: idx, firstSeq: firstSeq, path: path})
	l.mu.Unlock()
	return nil
}

// WriteSnapshot persists a consistent cut of the store as one full
// image (the pre-chain OFSNAP1 snap-*.snap format) and truncates the
// log's history: dump must read the store state in one read-only
// transaction (kv.Store.Dump — the validation-free read-only commit
// path, so snapshots run under live write traffic). Servers never call
// it; they cut incremental chains (WriteSnapshotInc). It stays as
// experiment E16's full-image comparison arm, and tests use it to write
// the OFSNAP1 format that recovery must still read from older
// directories.
//
// Cut protocol: the cut sequence C is read *before* dump runs, so
// every record with seq <= C committed before the dump's snapshot was
// taken and is included in it. The dump may additionally contain
// effects of records later than C; recovery replays every record with
// seq > C on top, and because records are whole-transaction effect
// lists applied in log order, re-applying those overlapping records
// reproduces exactly the logged state. Segments whose records are all
// <= C, and snapshots older than this one, are deleted.
func (l *Log) WriteSnapshot(dump func() ([]kv.Pair, error)) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	l.mu.Lock()
	cut, err := l.lastSeq, l.failed
	l.mu.Unlock()
	if err != nil {
		return err
	}
	pairs, err := dump()
	if err != nil {
		return err
	}
	img := SnapshotImage(cut, pairs)
	tmp := filepath.Join(l.opts.Dir, "snapshot.tmp")
	if err := l.opts.FS.WriteFile(tmp, img, 0o644); err != nil {
		return err
	}
	if err := fsyncFile(l.opts.FS, tmp); err != nil {
		return err
	}
	if err := l.opts.FS.Rename(tmp, filepath.Join(l.opts.Dir, snapName(cut))); err != nil {
		return err
	}
	if err := syncDir(l.opts.FS, l.opts.Dir); err != nil {
		return err
	}
	// A full image supersedes any chain; the next incremental cut
	// starts a fresh chain with a full cut.
	l.chainCut, l.chainImgs, l.chainEpochs = 0, nil, nil
	l.truncateTo(cut, map[string]bool{snapName(cut): true})
	return nil
}

func segName(idx int) string     { return fmt.Sprintf("wal-%08d.seg", idx) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%020d.snap", seq) }

func fsyncFile(fsys faultfs.FS, path string) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	cerr := f.Close()
	if err != nil {
		return err
	}
	return cerr
}

func syncDir(fsys faultfs.FS, dir string) error {
	f, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	return err
}

// SnapshotImage renders the canonical snapshot file image for a cut and
// a set of pairs: entries are sorted by key (pairs is sorted in place),
// so two stores holding the same logical state produce byte-identical
// images regardless of key intern order. The campaign's import/export
// round-trip check relies on this.
func SnapshotImage(cut uint64, pairs []kv.Pair) []byte {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	return encodeSnapshot(cut, pairs)
}
