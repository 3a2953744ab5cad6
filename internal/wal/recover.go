package wal

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Recovered reports what Open reconstructed from the log directory.
type Recovered struct {
	// State holds the tail: every effect replayed past the snapshot
	// cut. When recovery used a legacy full snapshot (Base == nil) it
	// is the complete store content, as before. When recovery used a
	// manifest chain, the snapshot part lives in Base and State holds
	// only the replayed tail — iterate with Each or materialize with
	// Merged instead of reading State directly. Open builds it (and
	// Tombstones) once, after the last record, from the replay
	// accumulator: its cost follows the distinct keys of the tail, not
	// the records.
	State map[string]uint64
	// Base holds the chain's per-shard images (nil when a legacy
	// snapshot or no snapshot was used) in wire form (see ShardBase),
	// deliberately not merged into a map — loading an image is file
	// read + CRC + one validating walk with no per-entry hash+insert
	// or allocation, which is what keeps chain recovery bounded by
	// dirty-set + tail rather than paying map construction over the
	// whole store. Keys overridden or deleted by the tail are shadowed
	// via State and Tombstones.
	Base []ShardBase
	// Tombstones are the keys the tail deleted (chain recovery only):
	// they may still appear in Base and must be skipped when merging.
	Tombstones map[string]struct{}
	// Keys is the recovered entry count — it survives a consumer
	// nil-ing State/Base after loading them.
	Keys int
	// LastSeq is the highest sequence number recovered; appending
	// resumes at LastSeq+1.
	LastSeq uint64
	// SnapshotSeq is the cut of the snapshot used (0 = none found).
	SnapshotSeq uint64
	// Records is the number of log records replayed on top of the
	// snapshot.
	Records int
	// TornTail reports that the last segment ended in an incomplete or
	// CRC-invalid record — the expected shape of a crash mid-write. The
	// torn bytes were truncated away; every record before them
	// survived.
	TornTail bool

	// tail is the replay accumulator's entry list: one entry per
	// distinct key of the tail, in the order the log first mentioned
	// them. State and Tombstones are views of it; Each walks it.
	tail []tailEnt
}

// tailEnt is the final word of the replayed tail on one key.
type tailEnt struct {
	key string
	val uint64
	del bool // the tail's last effect on key was a delete
}

// replay accumulates the effects of the records past the snapshot cut.
// A record costs one map lookup per effect and no allocation; a key
// costs one string, the first time the log mentions it. A delete flips
// a flag rather than removing the entry, so an entry's position — the
// order Each later yields it in — never depends on what followed. The
// zero value is an empty accumulator.
type replay struct {
	idx  map[string]int32 // key -> position in ents
	ents []tailEnt
}

// set records that key's latest effect is a put of val or a delete.
func (a *replay) set(key []byte, val uint64, del bool) {
	if i, ok := a.idx[string(key)]; ok { // the conversion does not allocate
		e := &a.ents[i]
		e.val, e.del = val, del
		return
	}
	if a.idx == nil {
		a.idx = map[string]int32{}
	}
	k := string(key)
	a.idx[k] = int32(len(a.ents))
	a.ents = append(a.ents, tailEnt{key: k, val: val, del: del})
}

// apply replays one record payload.
func (a *replay) apply(payload []byte) error {
	it, err := iterEffects(payload)
	if err != nil {
		return err
	}
	for it.n > 0 {
		key, val, del, err := it.next()
		if err != nil {
			return err
		}
		a.set(key, val, del)
	}
	return nil
}

// finish hands the accumulated tail to rec and builds the State and
// Tombstones views of it.
func (a *replay) finish(rec *Recovered) {
	rec.tail = a.ents
	rec.State = make(map[string]uint64, len(a.ents))
	if rec.Base != nil {
		rec.Tombstones = map[string]struct{}{}
	}
	for i := range a.ents {
		e := &a.ents[i]
		switch {
		case !e.del:
			rec.State[e.key] = e.val
		case rec.Base != nil:
			// Only a chain base can still hold a key the tail deleted.
			rec.Tombstones[e.key] = struct{}{}
		}
	}
}

// Each calls fn once per recovered key with its final value: the chain
// base first (skipping entries the tail overrode or deleted), then the
// tail in the order the log first mentioned each key. The sequence is a
// function of the directory's bytes alone, so two recoveries of one
// directory load a store identically. It stops on the first error.
func (r *Recovered) Each(fn func(key string, val uint64) error) error {
	for s := range r.Base {
		err := r.Base[s].walk(func(k string, v uint64) error {
			if _, ok := r.State[k]; ok {
				return nil
			}
			if _, ok := r.Tombstones[k]; ok {
				return nil
			}
			return fn(k, v)
		})
		if err != nil {
			return err
		}
	}
	if r.tail == nil {
		// Assembled outside Open from a State map alone (a replica's
		// snapshot bootstrap): there is no log order to follow.
		for k, v := range r.State {
			if err := fn(k, v); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range r.tail {
		if e := &r.tail[i]; !e.del {
			if err := fn(e.key, e.val); err != nil {
				return err
			}
		}
	}
	return nil
}

// Release drops the recovered content — State, Base, Tombstones and the
// tail behind them — keeping the counters. A consumer that has loaded
// the state calls it so the process does not hold the store twice.
func (r *Recovered) Release() {
	r.State, r.Base, r.Tombstones, r.tail = nil, nil, nil, nil
}

// Merged materializes the full recovered state as one map — the
// convenience for checks and small stores; the server loads via Each
// and never builds this map.
func (r *Recovered) Merged() map[string]uint64 {
	m := make(map[string]uint64, r.Keys)
	r.Each(func(k string, v uint64) error {
		m[k] = v
		return nil
	})
	return m
}

// Open recovers the log directory (creating it if missing) and returns
// a Log ready to append, together with the recovered state: the latest
// valid snapshot, with every log record after its cut replayed on top.
// A torn final record — a crash mid-write — is truncated away; a
// corrupt record anywhere before the tail is an error, because
// replaying past a hole would silently drop committed transactions.
// Appending resumes in a fresh segment numbered after the last
// existing one.
func Open(opts Options) (*Log, Recovered, error) {
	opts.fill()
	rec := Recovered{State: map[string]uint64{}}
	var acc replay
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, rec, err
	}
	ents, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		return nil, rec, err
	}

	// cand is one snapshot candidate: a manifest chain or a legacy full
	// image at a cut.
	type cand struct {
		cut   uint64
		chain bool
	}
	var segIdxs []int
	var cands []cand
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An interrupted snapshot or manifest write; rename never
			// happened, so no complete chain references it.
			opts.FS.Remove(filepath.Join(opts.Dir, name))
		case parseSegIdx(name) >= 0:
			segIdxs = append(segIdxs, parseSegIdx(name))
		default:
			if seq, ok := parseSnapName(name); ok {
				cands = append(cands, cand{cut: seq})
			} else if cut, ok := parseManifestName(name); ok {
				cands = append(cands, cand{cut: cut, chain: true})
			}
		}
	}
	sort.Ints(segIdxs)
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cut != cands[j].cut {
			return cands[i].cut > cands[j].cut
		}
		return cands[i].chain && !cands[j].chain
	})

	// Newest loadable snapshot wins; an unreadable one (half-written
	// before an old crash, bitrot) falls back to the one before it —
	// correctness is unaffected because the full log tail since that
	// older cut is replayed. A manifest chain loads only whole: any
	// missing or corrupt referenced image poisons the entire chain
	// (loadChain), so recovery never sees a partial chain — the same
	// all-or-nothing discipline as the structural-hole refusal below.
	for _, c := range cands {
		if c.chain {
			base, err := loadChain(opts.FS, opts.Dir, c.cut)
			if err != nil {
				continue
			}
			rec.Base = base
		} else {
			img, err := opts.FS.ReadFile(filepath.Join(opts.Dir, snapName(c.cut)))
			if err != nil {
				continue
			}
			cut, count, entries, err := openSnapshot(img)
			if err != nil || cut != c.cut {
				continue
			}
			// A full image is the head of the tail: its entries seed the
			// accumulator in file order, the records replay over them.
			if walkSnapshot(entries, count, func(k []byte, v uint64) { acc.set(k, v, false) }) != nil {
				acc = replay{}
				continue
			}
		}
		rec.SnapshotSeq = c.cut
		rec.LastSeq = c.cut
		break
	}

	l := &Log{
		opts: opts,
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		exec: make(chan execReq),
		// One pending signal is enough: a cut covers every rotation
		// before it.
		cutDue: make(chan struct{}, 1),
	}
	l.cond = sync.NewCond(&l.mu)

	// next is the continuity cursor: the seq the next frame must carry.
	// Zero means "not yet anchored" (anchored by the first segment's
	// header).
	var next uint64
	for i, idx := range segIdxs {
		last := i == len(segIdxs)-1
		if err := l.replaySegment(idx, i == 0, last, &rec, &acc, &next); err != nil {
			return nil, rec, err
		}
	}
	acc.finish(&rec)

	// Count recovered keys. This pass doubles as the chain's structural
	// validation: each image's entry stream is walked exactly once
	// (bounds-checked by ShardBase.walk), so Open never hands back a
	// base it could not fully read. A base entry the tail mentions at
	// all — overridden or deleted — is shadowed.
	rec.Keys = len(rec.State)
	for s := range rec.Base {
		err := rec.Base[s].walk(func(k string, _ uint64) error {
			if _, shadowed := acc.idx[k]; !shadowed {
				rec.Keys++
			}
			return nil
		})
		if err != nil {
			return nil, rec, fmt.Errorf("wal: snapshot chain at cut %d: %w; refusing to recover from an unreadable base", rec.SnapshotSeq, err)
		}
	}
	nextIdx := 1
	if n := len(segIdxs); n > 0 {
		nextIdx = segIdxs[n-1] + 1
	}
	l.lastSeq = rec.LastSeq
	l.durableSeq = rec.LastSeq
	l.snapSeq = rec.SnapshotSeq
	if err := l.openSegment(nextIdx, rec.LastSeq+1); err != nil {
		return nil, rec, err
	}
	go l.run()
	return l, rec, nil
}

// replaySegment replays one segment file into rec, registering it in
// the live segment list. In the last segment a torn tail is truncated
// off; anywhere else it is corruption and an error.
//
// Sequence continuity is enforced: record seqs increment by exactly
// one, within and across segments, and the first surviving segment
// must adjoin the snapshot cut (firstSeq <= cut+1). A gap means
// committed records went missing — a snapshot lost after its segments
// were truncated away, or a deleted middle segment — and replaying
// past it would silently drop committed transactions, so recovery
// refuses instead.
func (l *Log) replaySegment(idx int, first, last bool, rec *Recovered, acc *replay, next *uint64) error {
	path := filepath.Join(l.opts.Dir, segName(idx))
	b, err := l.opts.FS.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) < segHeaderLen || string(b[:len(segMagic)]) != segMagic {
		if !last {
			return fmt.Errorf("wal: %s: bad segment header", path)
		}
		// A crash between file creation and the header fsync; the
		// segment carries nothing.
		rec.TornTail = len(b) > 0
		return l.opts.FS.Remove(path)
	}
	firstSeq := binary.LittleEndian.Uint64(b[len(segMagic):])
	if first {
		// The oldest surviving segment must adjoin the snapshot:
		// everything before it was truncated as covered.
		if firstSeq > rec.SnapshotSeq+1 {
			return fmt.Errorf("wal: %s: log starts at seq %d but the snapshot covers only up to %d — records %d..%d are missing (lost or unreadable snapshot?); refusing to recover a hole",
				path, firstSeq, rec.SnapshotSeq, rec.SnapshotSeq+1, firstSeq-1)
		}
		*next = firstSeq
	} else if firstSeq != *next {
		return fmt.Errorf("wal: %s: segment starts at seq %d, want %d — a middle segment is missing; refusing to recover a hole",
			path, firstSeq, *next)
	}
	if last && len(b) == segHeaderLen && firstSeq == rec.LastSeq+1 {
		// What an earlier boot that logged nothing left behind: a header
		// and no record, starting exactly where the segment Open is about
		// to create starts. It carries nothing, like the header-less file
		// above; keeping it would grow the directory by one file per
		// restart.
		return l.opts.FS.Remove(path)
	}
	l.segs = append(l.segs, segment{idx: idx, firstSeq: firstSeq, path: path})
	off := segHeaderLen
	for off < len(b) {
		seq, payload, n, ok := parseFrame(b[off:])
		if !ok {
			if !last {
				return fmt.Errorf("wal: %s: corrupt record at offset %d (not the log tail)", path, off)
			}
			rec.TornTail = true
			return l.opts.FS.Truncate(path, int64(off))
		}
		if seq != *next {
			return fmt.Errorf("wal: %s: record seq %d at offset %d, want %d — refusing to recover a hole", path, seq, off, *next)
		}
		*next = seq + 1
		if seq > rec.SnapshotSeq {
			if err := acc.apply(payload); err != nil {
				return fmt.Errorf("wal: %s: record %d: %w", path, seq, err)
			}
			rec.Records++
		}
		if seq > rec.LastSeq {
			rec.LastSeq = seq
		}
		off += n
	}
	return nil
}

// parseSegIdx extracts the index of a segment file name, or -1.
func parseSegIdx(name string) int {
	rest, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return -1
	}
	rest, ok = strings.CutSuffix(rest, ".seg")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// parseSnapName extracts the cut sequence of a snapshot file name.
func parseSnapName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".snap")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}
