package wal

// Replication support: the primary side of WAL shipping serves records
// to followers out of this file, and the replica side ingests them.
//
// A follower is addressed purely by sequence number. TailReader.Next
// blocks until the cursor's record is durable *on this node* — a
// record is never shipped before the local policy has persisted it, so
// under SyncAlways an ack to the client strictly precedes the record
// reaching any replica (the documented async-replication window).
// Reads come from the bounded in-memory tail when the cursor is recent,
// and from segment files (seq-addressed catch-up) when it is not; a
// cursor older than the oldest retained segment needs a snapshot
// (ErrSnapshotNeeded).
//
// Ingest reuses recovery's refusal discipline: AppendFrames verifies
// every frame's CRC and that sequence numbers increment by exactly one
// from the log's current tail — a corrupt or gapped stream is rejected
// loudly instead of diverging.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/faultfs"
	"repro/internal/kv"
)

// ErrSnapshotNeeded reports that a follower's cursor points before the
// oldest retained segment: the history was truncated by a snapshot and
// the follower must bootstrap from a snapshot image instead.
var ErrSnapshotNeeded = errors.New("wal: requested records truncated; snapshot needed")

// tailChunkMax is the soft cap on bytes one TailReader.Next call
// returns. A single frame larger than the cap is still returned whole —
// frames are never split.
const tailChunkMax = 256 << 10

// TailReader is a follower cursor over the log's record stream. Next
// is owned by one goroutine; Cancel may be called from any other.
type TailReader struct {
	l         *Log
	next      uint64 // seq of the next record to deliver
	cancelled bool   // guarded by l.mu
}

// Cancel unblocks a concurrent (or future) Next, which then returns
// ErrClosed — how the primary detaches a follower on shutdown.
func (tr *TailReader) Cancel() {
	tr.l.mu.Lock()
	tr.cancelled = true
	tr.l.cond.Broadcast()
	tr.l.mu.Unlock()
}

// NewTailReader positions a follower cursor at seq from (typically the
// follower's lastSeq+1). The first reader latches the in-memory tail
// mirror on (it stays on for the log's lifetime); records flushed
// before that are served from segment files.
func (l *Log) NewTailReader(from uint64) *TailReader {
	l.mu.Lock()
	l.tailOn = true
	l.mu.Unlock()
	return &TailReader{l: l, next: from}
}

// NextSeq returns the seq the next call to Next will deliver first.
func (tr *TailReader) NextSeq() uint64 { return tr.next }

// Next returns the next run of durable frames at the cursor, appended
// into scratch[:0] (callers reuse the returned slice as the next
// scratch). It blocks until at least one more record is durable under
// the log's policy. Errors: ErrSnapshotNeeded when the cursor's history
// was truncated, ErrClosed after Close, the latched fail-stop error
// after a disk failure.
func (tr *TailReader) Next(scratch []byte) ([]byte, error) {
	l := tr.l
	l.mu.Lock()
	for l.durableSeq < tr.next || tr.cancelled {
		if tr.cancelled {
			l.mu.Unlock()
			return nil, ErrClosed
		}
		if l.failed != nil {
			err := l.failed
			l.mu.Unlock()
			return nil, err
		}
		if l.closed {
			l.mu.Unlock()
			return nil, ErrClosed
		}
		l.cond.Wait()
	}

	// Fast path: the cursor is inside the in-memory tail.
	if len(l.tail) > 0 && tr.next >= l.tailFirst {
		out := scratch[:0]
		seq := l.tailFirst
		for off := 0; off < len(l.tail); seq++ {
			n := frameHeaderLen + int(binary.LittleEndian.Uint32(l.tail[off:]))
			if seq == tr.next {
				if len(out) > 0 && len(out)+n > tailChunkMax {
					break
				}
				out = append(out, l.tail[off:off+n]...)
				tr.next++
			}
			off += n
		}
		l.mu.Unlock()
		return out, nil
	}

	// Catch-up path: read the segment file holding the cursor.
	durable := l.durableSeq
	var seg segment
	found := false
	for i := len(l.segs) - 1; i >= 0; i-- {
		if l.segs[i].firstSeq <= tr.next {
			seg = l.segs[i]
			found = true
			break
		}
	}
	l.mu.Unlock()
	if !found {
		return nil, ErrSnapshotNeeded
	}
	b, err := l.opts.FS.ReadFile(seg.path)
	if err != nil {
		// Lost a race with snapshot truncation; the cursor's history is
		// gone from disk.
		return nil, ErrSnapshotNeeded
	}
	if len(b) < segHeaderLen || string(b[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("wal: %s: bad segment header", seg.path)
	}
	out := scratch[:0]
	for off := segHeaderLen; off < len(b); {
		seq, _, n, ok := parseFrame(b[off:])
		if !ok || seq > durable {
			// Frames past the durable point may still be mid-write (or a
			// recovered torn tail); they are not shippable yet.
			break
		}
		if seq == tr.next {
			if len(out) > 0 && len(out)+n > tailChunkMax {
				break
			}
			out = append(out, b[off:off+n]...)
			tr.next++
		}
		off += n
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("wal: %s: durable record %d missing from its segment — refusing to ship a hole", seg.path, tr.next)
	}
	return out, nil
}

// OldestRetainedSeq returns the first sequence number still present in
// segment files. Followers whose cursor is older need a snapshot.
func (l *Log) OldestRetainedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return l.lastSeq + 1
	}
	return l.segs[0].firstSeq
}

// ValidateFrames walks b, which must be a run of complete CRC-valid
// frames whose sequence numbers increment by exactly one, and returns
// the first and last seq plus the record count. It is the stream-ingest
// twin of recovery's contiguity refusal: a short frame, CRC mismatch or
// seq gap is an error, never silently skipped.
func ValidateFrames(b []byte) (first, last uint64, count int, err error) {
	for len(b) > 0 {
		seq, _, n, ok := parseFrame(b)
		if !ok {
			return 0, 0, 0, fmt.Errorf("wal: corrupt or truncated frame in stream (offset of record %d)", last+1)
		}
		if count == 0 {
			first = seq
		} else if seq != last+1 {
			return 0, 0, 0, fmt.Errorf("wal: stream record seq %d follows %d — refusing a hole", seq, last)
		}
		last = seq
		count++
		b = b[n:]
	}
	return first, last, count, nil
}

// AppendFrames ingests a run of already-framed records shipped from a
// primary, preserving their original sequence numbers. The frames must
// be CRC-valid, internally contiguous, and start at exactly lastSeq+1 —
// the same refusal recovery applies to on-disk holes. The records flow
// through the normal group-commit path (and therefore into this node's
// own follower tail, so replicas can be chained). AppendFrames does not
// wait for durability: a replica that crashes replays its own WAL, and
// anything lost beyond that is re-shipped by the primary on reconnect.
func (l *Log) AppendFrames(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	first, last, _, err := ValidateFrames(b)
	if err != nil {
		return err
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
	if first != l.lastSeq+1 {
		l.mu.Unlock()
		return fmt.Errorf("wal: stream starts at seq %d but the log ends at %d — refusing to append a hole", first, l.lastSeq)
	}
	if len(l.pending) == 0 {
		l.pendingFirst = first
	}
	l.pending = append(l.pending, b...)
	l.lastSeq = last
	select {
	case l.wake <- struct{}{}:
	default:
	}
	l.mu.Unlock()
	return nil
}

// DecodeFrames walks a run of frames, calling fn once per record with
// its seq and decoded effects. The effects slice is reused across
// calls — fn must not retain it.
func DecodeFrames(b []byte, fn func(seq uint64, effects []kv.Effect) error) error {
	var eff []kv.Effect
	for len(b) > 0 {
		seq, payload, n, ok := parseFrame(b)
		if !ok {
			return fmt.Errorf("wal: corrupt frame in stream")
		}
		it, err := iterEffects(payload)
		if err != nil {
			return err
		}
		eff = eff[:0]
		for it.n > 0 {
			key, val, del, err := it.next()
			if err != nil {
				return err
			}
			eff = append(eff, kv.Effect{Key: string(key), Val: val, Del: del})
		}
		if err := fn(seq, eff); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// EncodeFrame appends one record frame for a committed transaction's
// effects — the exact bytes Append would log — for tests and the
// campaign's replica-apply determinism checks.
func EncodeFrame(p []byte, seq uint64, effects []kv.Effect) []byte {
	return appendFrame(p, seq, effects)
}

// DecodeSnapshot parses a snapshot payload into its cut and state map —
// the replica-bootstrap twin of recovery's snapshot load. It accepts
// both a legacy full image and a chain bundle (see chain.go); a bundle
// is verified whole before any of it is merged, so the caller never
// observes a partial chain.
func DecodeSnapshot(img []byte) (cut uint64, state map[string]uint64, err error) {
	if !isBundle(img) {
		return decodeSnapshot(img)
	}
	cut, files, err := decodeBundle(img)
	if err != nil {
		return 0, nil, err
	}
	_, base, err := bundleChain(cut, files)
	if err != nil {
		return 0, nil, err
	}
	n := 0
	for s := range base {
		n += base[s].Len()
	}
	state = make(map[string]uint64, n)
	for s := range base {
		err := base[s].walk(func(k string, v uint64) error {
			// Cloned so the map does not pin the whole bundle buffer.
			state[strings.Clone(k)] = v
			return nil
		})
		if err != nil {
			return 0, nil, err
		}
	}
	return cut, state, nil
}

// NewestSnapshot returns the payload and cut of the newest loadable
// snapshot in the log directory, for serving to a bootstrapping
// replica: a chain becomes a bundle of its manifest plus images, a
// legacy snapshot ships as its raw file. ok is false when no loadable
// snapshot exists. snapMu keeps a concurrent cut's truncation from
// removing chain files mid-assembly.
func (l *Log) NewestSnapshot() (img []byte, cut uint64, ok bool, err error) {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	ents, err := l.opts.FS.ReadDir(l.opts.Dir)
	if err != nil {
		return nil, 0, false, err
	}
	type cand struct {
		cut   uint64
		chain bool
	}
	var cands []cand
	for _, e := range ents {
		if seq, isSnap := parseSnapName(e.Name()); isSnap {
			cands = append(cands, cand{cut: seq})
		} else if c, isMani := parseManifestName(e.Name()); isMani {
			cands = append(cands, cand{cut: c, chain: true})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cut != cands[j].cut {
			return cands[i].cut > cands[j].cut
		}
		return cands[i].chain && !cands[j].chain
	})
	for _, c := range cands {
		if c.chain {
			b, err := l.bundleFor(c.cut)
			if err != nil {
				continue
			}
			return b, c.cut, true, nil
		}
		b, err := l.opts.FS.ReadFile(filepath.Join(l.opts.Dir, snapName(c.cut)))
		if err != nil {
			continue
		}
		if _, _, err := decodeSnapshot(b); err != nil {
			continue
		}
		return b, c.cut, true, nil
	}
	return nil, 0, false, nil
}

// bundleFor reads the chain committed at cut and packages it as a wire
// bundle. Any unreadable or inconsistent piece fails the whole bundle.
func (l *Log) bundleFor(cut uint64) ([]byte, error) {
	mb, err := l.opts.FS.ReadFile(filepath.Join(l.opts.Dir, manifestName(cut)))
	if err != nil {
		return nil, err
	}
	mcut, imgCuts, err := decodeManifest(mb)
	if err != nil {
		return nil, err
	}
	if mcut != cut {
		return nil, fmt.Errorf("wal: manifest %s declares cut %d", manifestName(cut), mcut)
	}
	files := make([]bundleFile, 0, len(imgCuts)+1)
	files = append(files, bundleFile{name: manifestName(cut), data: mb})
	for s, ic := range imgCuts {
		name := shardImageName(ic, s)
		ib, err := l.opts.FS.ReadFile(filepath.Join(l.opts.Dir, name))
		if err != nil {
			return nil, err
		}
		icut, idx, _, err := decodeShardImage(ib)
		if err != nil {
			return nil, err
		}
		if icut != ic || idx != s {
			return nil, fmt.Errorf("wal: %s declares cut %d shard %d", name, icut, idx)
		}
		files = append(files, bundleFile{name: name, data: ib})
	}
	return encodeBundle(cut, files), nil
}

// InstallSnapshot replaces an open log's history with a shipped
// snapshot payload (legacy image or chain bundle) — the replica path
// for falling too far behind a primary that truncated the records the
// replica still needs. The payload is persisted as the newest snapshot,
// the covered segments are removed, a fresh segment adjoining the cut
// is opened, and the log's sequence numbers jump to the cut: the next
// record is cut+1. The cut must be ahead of the log's last seq —
// installing a snapshot that does not advance the log is refused. The
// caller owns reconciling the store state to the payload (see
// wal.DecodeSnapshot).
//
// Crash safety: the payload is durable before any history is removed,
// so every intermediate crash state recovers — to the old history
// before the commit rename, to the snapshot plus whatever contiguous
// history survives after it.
func (l *Log) InstallSnapshot(img []byte) (uint64, error) {
	cut, err := snapshotPayloadCut(img)
	if err != nil {
		return 0, err
	}
	return cut, l.onLogGoroutine(func() error { return l.installSnapshot(img, cut) })
}

// snapshotPayloadCut fully validates a snapshot payload — either format
// — and returns its cut.
func snapshotPayloadCut(img []byte) (uint64, error) {
	if isBundle(img) {
		cut, files, err := decodeBundle(img)
		if err != nil {
			return 0, err
		}
		if _, _, err := bundleChain(cut, files); err != nil {
			return 0, err
		}
		return cut, nil
	}
	cut, _, err := decodeSnapshot(img)
	return cut, err
}

// persistSnapshotPayload writes a validated snapshot payload into dir
// with the cut's crash-safety ordering and returns the set of snapshot
// file names it owns. A legacy image goes through temp write + rename;
// a bundle writes its images first (each fsynced, then the directory)
// and commits via the manifest's temp write + rename — exactly the
// ordering a live incremental cut uses, so every crash state recovers.
func persistSnapshotPayload(fsys faultfs.FS, dir string, img []byte, cut uint64) (keep map[string]bool, err error) {
	if !isBundle(img) {
		tmp := filepath.Join(dir, "snapshot.tmp")
		if err := fsys.WriteFile(tmp, img, 0o644); err != nil {
			return nil, err
		}
		if err := fsyncFile(fsys, tmp); err != nil {
			return nil, err
		}
		if err := fsys.Rename(tmp, filepath.Join(dir, snapName(cut))); err != nil {
			return nil, err
		}
		if err := syncDir(fsys, dir); err != nil {
			return nil, err
		}
		return map[string]bool{snapName(cut): true}, nil
	}
	bcut, files, err := decodeBundle(img)
	if err != nil {
		return nil, err
	}
	if bcut != cut {
		return nil, fmt.Errorf("wal: bundle declares cut %d, want %d", bcut, cut)
	}
	if _, _, err := bundleChain(cut, files); err != nil {
		return nil, err
	}
	keep = make(map[string]bool, len(files))
	var manifest []byte
	for _, f := range files {
		keep[f.name] = true
		if f.name == manifestName(cut) {
			manifest = f.data
			continue
		}
		path := filepath.Join(dir, f.name)
		if err := fsys.WriteFile(path, f.data, 0o644); err != nil {
			return nil, err
		}
		if err := fsyncFile(fsys, path); err != nil {
			return nil, err
		}
	}
	if err := syncDir(fsys, dir); err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, "manifest.tmp")
	if err := fsys.WriteFile(tmp, manifest, 0o644); err != nil {
		return nil, err
	}
	if err := fsyncFile(fsys, tmp); err != nil {
		return nil, err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName(cut))); err != nil {
		return nil, err
	}
	if err := syncDir(fsys, dir); err != nil {
		return nil, err
	}
	return keep, nil
}

// installSnapshot is the log-goroutine body of InstallSnapshot.
func (l *Log) installSnapshot(img []byte, cut uint64) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	l.flushBatch()
	l.mu.Lock()
	if err := l.failed; err != nil {
		l.mu.Unlock()
		return err
	}
	if cut <= l.lastSeq {
		last := l.lastSeq
		l.mu.Unlock()
		return fmt.Errorf("wal: snapshot cut %d does not advance the log (last seq %d)", cut, last)
	}
	old := make([]segment, len(l.segs))
	copy(old, l.segs)
	l.mu.Unlock()

	// Persist the payload first: from here on every crash state recovers.
	keep, err := persistSnapshotPayload(l.opts.FS, l.opts.Dir, img, cut)
	if err != nil {
		return err
	}

	// Drop the covered history. The old segments are all <= lastSeq <
	// cut+1, so none of their records outlive the snapshot.
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	for _, s := range old {
		l.opts.FS.Remove(s.path)
	}
	lastIdx := old[len(old)-1].idx

	l.mu.Lock()
	l.segs = l.segs[:0]
	l.lastSeq, l.durableSeq, l.snapSeq = cut, cut, cut
	l.pending = l.pending[:0]
	l.tail = l.tail[:0]
	l.tailFirst = 0
	l.cond.Broadcast()
	l.mu.Unlock()
	// Installed images were cut under the shipper's shard partition,
	// which need not match this process's handle ordering — a local
	// incremental cut must never link to them (see chain.go), so the
	// next cut is forced full.
	l.dropChain()
	if err := l.openSegment(lastIdx+1, cut+1); err != nil {
		return err
	}

	// Superseded snapshot artifacts; removal failures only cost disk.
	l.cleanSnapshotFiles(keep)
	return nil
}

// InstallSnapshotImage validates a snapshot payload (legacy image or
// chain bundle) and writes it into dir as canonical snapshot files so a
// subsequent Open recovers from it — the replica-bootstrap install
// path. The caller re-opens the log afterwards.
func InstallSnapshotImage(fsys faultfs.FS, dir string, img []byte) (cut uint64, err error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	cut, err = snapshotPayloadCut(img)
	if err != nil {
		return 0, err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if _, err := persistSnapshotPayload(fsys, dir, img, cut); err != nil {
		return 0, err
	}
	return cut, nil
}
