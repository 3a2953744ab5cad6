package wal

// Chained incremental snapshots. A full-store snapshot (snap-*.snap)
// costs O(store) per cut and recovery O(store + tail); at the 10M-key
// production scale the ROADMAP targets, both are wrong. The chain
// format makes the cut cost proportional to the *dirty set* instead:
//
//   - Each cut writes one per-shard image file (shard-<cut>-<idx>.shard)
//     for every shard dirtied since the previous cut, then one manifest
//     (manifest-<cut>.mf) referencing, for every shard, either the fresh
//     image or the still-valid image of an earlier cut. Clean shards are
//     linked, not re-dumped.
//   - Recovery loads the newest manifest whose referenced images all
//     decode (falling back to older manifests, then to legacy full
//     snapshots), and replays only the log tail past the manifest cut.
//   - Truncation keeps exactly the newest manifest's files and the
//     segments past its cut, so disk and recovery time stay bounded by
//     dirty-set size + tail length regardless of store size.
//
// Dirty tracking is the two-read epoch protocol against kv's per-shard
// dirty counters (see kv.Store.DirtyEpochLocked). The writer reads the
// cut sequence C first, then every shard's epoch under that shard's
// commit-order lock. Because a write batch bumps its shards' epochs
// inside the commit-order critical section *after* its log seq was
// assigned, the locked epoch read observes the bump of every record
// with seq <= C. A shard whose epoch is unchanged since the epochs
// recorded at the previous manifest therefore received no effect that
// is not already in its previous image (any such record either applied
// before the previous dump, or bumped the epoch in between); false
// dirtiness — an epoch bump for a record past C — only costs an extra
// dump, never correctness, because tail replay is idempotent
// prefix-repair.
//
// Chains never link across process restarts: shard membership hashes
// intern handles, and intern order is not stable across recovery, so
// an image written by an earlier process may partition keys differently.
// The first cut after Open or InstallSnapshot is always a full cut
// (every shard dumped), after which incremental linking resumes.
//
// On-disk formats (little-endian, like record.go):
//
// Shard image (shard-<cut>-<idx>.shard):
//
//	[8]  magic "OFSHRD1\n"
//	[8]  cut sequence number
//	[4]  shard index
//	[8]  entry count
//	entries: uvarint keylen, key bytes, uvarint value (sorted by key)
//	[4]  IEEE CRC32 of everything after the magic
//
// Manifest (manifest-<cut>.mf):
//
//	[8]  magic "OFMANI1\n"
//	[8]  cut sequence number
//	[4]  shard count S
//	S × [8] per-shard image cut (the shard's image file is
//	        shard-<imagecut>-<idx>.shard)
//	[4]  IEEE CRC32 of everything after the magic
//
// Images are written and fsynced before the manifest, and the manifest
// goes through temp write + rename + directory sync, so a chain either
// exists completely or the previous complete chain is untouched — a
// crash anywhere inside a cut leaves the directory recoverable.
//
// Bundle (replication wire payload, never a directory file):
//
//	[8]  magic "OFBNDL1\n"
//	[8]  cut sequence number
//	[4]  file count
//	files: [2] name length, name bytes, [4] content length, content
//	[4]  IEEE CRC32 of everything after the magic
//
// A bundle packages a manifest plus its images so the one-blob
// replication snapshot protocol ('S' message) carries a chain without
// wire changes; DecodeSnapshot and InstallSnapshot dispatch on the
// magic and accept both bundles and legacy single images.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faultfs"
	"repro/internal/kv"
)

const (
	shardMagic  = "OFSHRD1\n"
	maniMagic   = "OFMANI1\n"
	bundleMagic = "OFBNDL1\n"
)

// SnapshotSource supplies the incremental snapshot writer with dirty
// tracking and per-shard dumps. kv.Store implements it; the recovery
// benchmark drives the writer with a synthetic source.
type SnapshotSource interface {
	// Shards returns the shard count (stable for the store's lifetime).
	Shards() int
	// DirtyEpochLocked returns shard i's dirty counter, observed under
	// the shard's commit-order lock so the read includes the bump of
	// every record whose sequence was assigned before this call began
	// (see kv.Store.DirtyEpochLocked for the ordering argument).
	DirtyEpochLocked(i int) uint64
	// DumpShard reads shard i's present keys in one read-only
	// transaction. Dumps of different shards may observe different
	// snapshot timestamps; the tail replay repairs the overlap.
	DumpShard(i int) ([]kv.Pair, error)
}

func manifestName(cut uint64) string { return fmt.Sprintf("manifest-%020d.mf", cut) }
func shardImageName(cut uint64, shard int) string {
	return fmt.Sprintf("shard-%020d-%05d.shard", cut, shard)
}

// parseManifestName extracts the cut of a manifest file name.
func parseManifestName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "manifest-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".mf")
	if !ok {
		return 0, false
	}
	cut, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return cut, true
}

// parseShardImageName extracts the (cut, shard) of an image file name.
func parseShardImageName(name string) (cut uint64, shard int, ok bool) {
	rest, ok := strings.CutPrefix(name, "shard-")
	if !ok {
		return 0, 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".shard")
	if !ok {
		return 0, 0, false
	}
	dash := strings.LastIndexByte(rest, '-')
	if dash < 0 {
		return 0, 0, false
	}
	cut, err := strconv.ParseUint(rest[:dash], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	s, err := strconv.Atoi(rest[dash+1:])
	if err != nil || s < 0 {
		return 0, 0, false
	}
	return cut, s, true
}

// isSnapshotArtifact reports whether name is any snapshot file the
// truncation passes manage: a legacy full image, a manifest, or a
// per-shard image.
func isSnapshotArtifact(name string) bool {
	if _, ok := parseSnapName(name); ok {
		return true
	}
	if _, ok := parseManifestName(name); ok {
		return true
	}
	if _, _, ok := parseShardImageName(name); ok {
		return true
	}
	return false
}

// ShardImage renders the image file for one shard at a cut. Entries are
// sorted by key in place, so a shard's image depends only on its
// logical content, not on dump order.
func ShardImage(cut uint64, shard int, pairs []kv.Pair) []byte {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	p := make([]byte, 0, 28+len(pairs)*16)
	p = append(p, shardMagic...)
	p = binary.LittleEndian.AppendUint64(p, cut)
	p = binary.LittleEndian.AppendUint32(p, uint32(shard))
	p = binary.LittleEndian.AppendUint64(p, uint64(len(pairs)))
	for i := range pairs {
		p = binary.AppendUvarint(p, uint64(len(pairs[i].Key)))
		p = append(p, pairs[i].Key...)
		p = binary.AppendUvarint(p, pairs[i].Val)
	}
	return binary.LittleEndian.AppendUint32(p, crc32.ChecksumIEEE(p[len(shardMagic):]))
}

// ShardBase is one decoded shard image held in its wire form: the
// entry region as a single string plus the entry count. Recovery only
// ever reads the base sequentially (Recovered.Each, the key count,
// the replication map merge), so no per-key strings, index arrays or
// map entries are ever built for it — loading a chain is file read +
// CRC + one walk, and the garbage collector never sees a per-entry
// object. That constant factor is what keeps restart time bounded by
// dirty-set + tail instead of store size. Keys yielded by walk share
// text's backing memory; callers that retain them long-term (map
// builders) should strings.Clone them.
type ShardBase struct {
	text  string // the image's entry region, verbatim
	count int
}

// Len returns the entry count.
func (b *ShardBase) Len() int { return b.count }

// uvarintStr is binary.Uvarint over a string, so walking entries never
// converts the region back to bytes.
func uvarintStr(s string) (uint64, int) {
	var x uint64
	var shift uint
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x80 {
			if i > 9 || i == 9 && c > 1 {
				return 0, -(i + 1)
			}
			return x | uint64(c)<<shift, i + 1
		}
		x |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

// walk calls fn for every entry in key order, slicing keys out of the
// image's backing memory. A structural fault in the entry stream —
// impossible unless the CRC was forged, since the writer renders count
// and entries together — is reported as an error, never as a partial
// or silently-shortened walk.
func (b *ShardBase) walk(fn func(key string, val uint64) error) error {
	off := 0
	for i := 0; i < b.count; i++ {
		klen, n := uvarintStr(b.text[off:])
		if n <= 0 || uint64(len(b.text)-off-n) < klen {
			return fmt.Errorf("wal: shard image entry cut short")
		}
		key := b.text[off+n : off+n+int(klen)]
		off += n + int(klen)
		val, n := uvarintStr(b.text[off:])
		if n <= 0 {
			return fmt.Errorf("wal: shard image value cut short")
		}
		off += n
		if err := fn(key, val); err != nil {
			return err
		}
	}
	if off != len(b.text) {
		return fmt.Errorf("wal: shard image has %d trailing bytes", len(b.text)-off)
	}
	return nil
}

// decodeShardImage parses an image file into its cut, shard index and
// wire-form entry list. The CRC covers the whole body, so entries are
// not re-validated here; ShardBase.walk bounds-checks the stream when
// it is first read (Open's key-count pass does this for every loaded
// image).
func decodeShardImage(b []byte) (cut uint64, shard int, base ShardBase, err error) {
	if len(b) < len(shardMagic)+24 || string(b[:len(shardMagic)]) != shardMagic {
		return 0, 0, ShardBase{}, fmt.Errorf("wal: not a shard image")
	}
	body, tail := b[len(shardMagic):len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0, 0, ShardBase{}, fmt.Errorf("wal: shard image CRC mismatch")
	}
	cut = binary.LittleEndian.Uint64(body)
	shard = int(binary.LittleEndian.Uint32(body[8:]))
	count := binary.LittleEndian.Uint64(body[12:])
	if count > uint64(len(body)-20) {
		return 0, 0, ShardBase{}, fmt.Errorf("wal: shard image declares %d entries in %d bytes", count, len(body)-20)
	}
	return cut, shard, ShardBase{text: string(body[20:]), count: int(count)}, nil
}

// encodeManifest renders a manifest for a cut and its per-shard image
// cuts.
func encodeManifest(cut uint64, imgCuts []uint64) []byte {
	p := make([]byte, 0, 24+len(imgCuts)*8)
	p = append(p, maniMagic...)
	p = binary.LittleEndian.AppendUint64(p, cut)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(imgCuts)))
	for _, c := range imgCuts {
		p = binary.LittleEndian.AppendUint64(p, c)
	}
	return binary.LittleEndian.AppendUint32(p, crc32.ChecksumIEEE(p[len(maniMagic):]))
}

// decodeManifest parses a manifest into its cut and per-shard image
// cuts.
func decodeManifest(b []byte) (cut uint64, imgCuts []uint64, err error) {
	if len(b) < len(maniMagic)+16 || string(b[:len(maniMagic)]) != maniMagic {
		return 0, nil, fmt.Errorf("wal: not a manifest")
	}
	body, tail := b[len(maniMagic):len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0, nil, fmt.Errorf("wal: manifest CRC mismatch")
	}
	cut = binary.LittleEndian.Uint64(body)
	n := binary.LittleEndian.Uint32(body[8:])
	body = body[12:]
	if uint64(len(body)) != uint64(n)*8 {
		return 0, nil, fmt.Errorf("wal: manifest shard table cut short")
	}
	imgCuts = make([]uint64, n)
	for i := range imgCuts {
		imgCuts[i] = binary.LittleEndian.Uint64(body[i*8:])
	}
	for _, c := range imgCuts {
		if c > cut {
			return 0, nil, fmt.Errorf("wal: manifest references image cut %d past its own cut %d", c, cut)
		}
	}
	return cut, imgCuts, nil
}

// WriteSnapshotInc cuts an incremental chain snapshot at the log's
// current last sequence: shards dirtied since the previous manifest are
// re-dumped (each in its own read-only transaction — the store is never
// frozen whole), clean shards are linked to their existing images, and
// covered history is truncated. The first cut of a log's lifetime is a
// full cut. See the package comment of this file for the protocol.
func (l *Log) WriteSnapshotInc(src SnapshotSource) error {
	l.mu.Lock()
	cut := l.lastSeq
	l.mu.Unlock()
	return l.WriteSnapshotIncCut(cut, src)
}

// WriteSnapshotIncCut is WriteSnapshotInc with an explicit cut, for
// callers whose applied state trails the log (a replication replica
// cuts at its last *applied* seq). The cut must have been read before
// the call — the dirty-epoch reads below order against it. A cut older
// than the newest snapshot is skipped silently (the snapshot cannot
// move backwards); a cut equal to it re-cuts only when no chain base
// exists yet (establishing one after recovery or snapshot install).
func (l *Log) WriteSnapshotIncCut(cut uint64, src SnapshotSource) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	l.mu.Lock()
	err := l.failed
	if err == nil && cut > l.lastSeq {
		err = fmt.Errorf("wal: snapshot cut %d beyond last seq %d", cut, l.lastSeq)
	}
	snapSeq := l.snapSeq
	written := l.written.Load()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if cut < snapSeq {
		return nil
	}
	nshards := src.Shards()
	full := l.chainImgs == nil || len(l.chainImgs) != nshards
	if cut == snapSeq && !full && cut == l.chainCut {
		return nil // nothing moved since the last cut
	}

	// Two-read epoch protocol: the cut C is already fixed; reading each
	// shard's epoch under its commit-order lock now guarantees every
	// record with seq <= C has bumped. Comparing against the epochs
	// recorded at the previous manifest (which were read before that
	// manifest's dumps ran) classifies the shard.
	epochs := make([]uint64, nshards)
	for i := range epochs {
		epochs[i] = src.DirtyEpochLocked(i)
	}
	imgCuts := make([]uint64, nshards)
	imgBytes := make([]int64, nshards)
	var totalBytes int64
	wroteImage := false
	for s := 0; s < nshards; s++ {
		if !full && epochs[s] == l.chainEpochs[s] {
			imgCuts[s], imgBytes[s] = l.chainImgs[s], l.chainImgBytes[s]
			totalBytes += imgBytes[s]
			continue
		}
		pairs, err := src.DumpShard(s)
		if err != nil {
			return err
		}
		img := ShardImage(cut, s, pairs)
		path := filepath.Join(l.opts.Dir, shardImageName(cut, s))
		if err := l.opts.FS.WriteFile(path, img, 0o644); err != nil {
			return err
		}
		if err := fsyncFile(l.opts.FS, path); err != nil {
			return err
		}
		imgCuts[s], imgBytes[s] = cut, int64(len(img))
		totalBytes += imgBytes[s]
		wroteImage = true
	}
	if wroteImage {
		// Image directory entries must be durable before a manifest
		// referencing them can land.
		if err := syncDir(l.opts.FS, l.opts.Dir); err != nil {
			return err
		}
	}

	// The manifest is the commit point of the cut: temp write + rename +
	// dir sync, so the chain flips from the previous complete one to
	// this complete one atomically.
	tmp := filepath.Join(l.opts.Dir, "manifest.tmp")
	if err := l.opts.FS.WriteFile(tmp, encodeManifest(cut, imgCuts), 0o644); err != nil {
		return err
	}
	if err := fsyncFile(l.opts.FS, tmp); err != nil {
		return err
	}
	if err := l.opts.FS.Rename(tmp, filepath.Join(l.opts.Dir, manifestName(cut))); err != nil {
		return err
	}
	if err := syncDir(l.opts.FS, l.opts.Dir); err != nil {
		return err
	}
	l.chainCut, l.chainImgs, l.chainImgBytes, l.chainEpochs = cut, imgCuts, imgBytes, epochs
	l.mu.Lock()
	l.chainBytes, l.cutWritten = totalBytes, written
	l.mu.Unlock()

	keep := map[string]bool{manifestName(cut): true}
	for s, c := range imgCuts {
		keep[shardImageName(c, s)] = true
	}
	l.truncateTo(cut, keep)
	return nil
}

// dropChain forgets the chain base, so the next incremental cut is full
// and the next rotation signals CutDue. Callers hold l.snapMu.
func (l *Log) dropChain() {
	l.chainCut, l.chainImgs, l.chainImgBytes, l.chainEpochs = 0, nil, nil, nil
	l.mu.Lock()
	l.chainBytes = 0
	l.mu.Unlock()
}

// truncateTo advances the snapshot cut, drops segments fully covered by
// it and removes every snapshot artifact not named in keep. Removal
// failures are ignored — stale files only cost disk and are retried by
// the next cut.
func (l *Log) truncateTo(cut uint64, keep map[string]bool) {
	l.mu.Lock()
	l.snapSeq = cut
	l.cuts++
	var drop []string
	kept := l.segs[:0]
	for i, s := range l.segs {
		if i+1 < len(l.segs) && l.segs[i+1].firstSeq <= cut+1 {
			drop = append(drop, s.path)
		} else {
			kept = append(kept, s)
		}
	}
	l.segs = kept
	l.mu.Unlock()
	for _, p := range drop {
		l.opts.FS.Remove(p)
	}
	l.cleanSnapshotFiles(keep)
}

// cleanSnapshotFiles removes snapshot artifacts (legacy images,
// manifests, shard images) not named in keep.
func (l *Log) cleanSnapshotFiles(keep map[string]bool) {
	ents, err := l.opts.FS.ReadDir(l.opts.Dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if !keep[name] && isSnapshotArtifact(name) {
			l.opts.FS.Remove(filepath.Join(l.opts.Dir, name))
		}
	}
}

// loadChain reads and verifies the complete chain of the manifest at
// cut: the manifest itself plus every referenced image, each checked
// for CRC, matching cut and matching shard index. Any failure poisons
// the whole chain — a partial chain is never returned.
func loadChain(fsys faultfs.FS, dir string, cut uint64) (base []ShardBase, err error) {
	mb, err := fsys.ReadFile(filepath.Join(dir, manifestName(cut)))
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
	base = make([]ShardBase, len(imgCuts))
	for s, ic := range imgCuts {
		ib, err := fsys.ReadFile(filepath.Join(dir, shardImageName(ic, s)))
		if err != nil {
			return nil, fmt.Errorf("wal: chain %d: shard %d image: %w", cut, s, err)
		}
		icut, idx, sb, err := decodeShardImage(ib)
		if err != nil {
			return nil, fmt.Errorf("wal: chain %d: shard %d image: %w", cut, s, err)
		}
		if icut != ic || idx != s {
			return nil, fmt.Errorf("wal: chain %d: shard %d image declares cut %d shard %d", cut, s, icut, idx)
		}
		base[s] = sb
	}
	return base, nil
}

// isBundle reports whether a snapshot payload is a chain bundle rather
// than a legacy full image.
func isBundle(img []byte) bool {
	return len(img) >= len(bundleMagic) && string(img[:len(bundleMagic)]) == bundleMagic
}

// bundleFile is one named blob of a snapshot bundle.
type bundleFile struct {
	name string
	data []byte
}

// encodeBundle packages named files as one wire payload.
func encodeBundle(cut uint64, files []bundleFile) []byte {
	size := 24
	for _, f := range files {
		size += 6 + len(f.name) + len(f.data)
	}
	p := make([]byte, 0, size)
	p = append(p, bundleMagic...)
	p = binary.LittleEndian.AppendUint64(p, cut)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(files)))
	for _, f := range files {
		p = binary.LittleEndian.AppendUint16(p, uint16(len(f.name)))
		p = append(p, f.name...)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(f.data)))
		p = append(p, f.data...)
	}
	return binary.LittleEndian.AppendUint32(p, crc32.ChecksumIEEE(p[len(bundleMagic):]))
}

// decodeBundle parses a bundle payload.
func decodeBundle(b []byte) (cut uint64, files []bundleFile, err error) {
	if len(b) < len(bundleMagic)+16 || string(b[:len(bundleMagic)]) != bundleMagic {
		return 0, nil, fmt.Errorf("wal: not a snapshot bundle")
	}
	body, tail := b[len(bundleMagic):len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0, nil, fmt.Errorf("wal: snapshot bundle CRC mismatch")
	}
	cut = binary.LittleEndian.Uint64(body)
	n := binary.LittleEndian.Uint32(body[8:])
	body = body[12:]
	files = make([]bundleFile, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(body) < 2 {
			return 0, nil, fmt.Errorf("wal: bundle entry cut short")
		}
		nl := int(binary.LittleEndian.Uint16(body))
		body = body[2:]
		if len(body) < nl+4 {
			return 0, nil, fmt.Errorf("wal: bundle entry cut short")
		}
		name := string(body[:nl])
		body = body[nl:]
		dl := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if len(body) < dl {
			return 0, nil, fmt.Errorf("wal: bundle entry cut short")
		}
		files = append(files, bundleFile{name: name, data: body[:dl]})
		body = body[dl:]
	}
	if len(body) != 0 {
		return 0, nil, fmt.Errorf("wal: bundle has %d trailing bytes", len(body))
	}
	return cut, files, nil
}

// bundleChain verifies a decoded bundle is a complete chain — exactly
// one manifest whose cut matches the bundle's, with every referenced
// image present and consistent — and returns the manifest's image cuts
// and the decoded per-shard bases.
func bundleChain(cut uint64, files []bundleFile) (imgCuts []uint64, base []ShardBase, err error) {
	byName := make(map[string][]byte, len(files))
	for _, f := range files {
		byName[f.name] = f.data
	}
	mb, ok := byName[manifestName(cut)]
	if !ok {
		return nil, nil, fmt.Errorf("wal: bundle at cut %d is missing its manifest", cut)
	}
	mcut, imgCuts, err := decodeManifest(mb)
	if err != nil {
		return nil, nil, err
	}
	if mcut != cut {
		return nil, nil, fmt.Errorf("wal: bundle manifest declares cut %d, bundle says %d", mcut, cut)
	}
	base = make([]ShardBase, len(imgCuts))
	for s, ic := range imgCuts {
		ib, ok := byName[shardImageName(ic, s)]
		if !ok {
			return nil, nil, fmt.Errorf("wal: bundle at cut %d is missing shard %d's image", cut, s)
		}
		icut, idx, sb, err := decodeShardImage(ib)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: bundle shard %d image: %w", s, err)
		}
		if icut != ic || idx != s {
			return nil, nil, fmt.Errorf("wal: bundle shard %d image declares cut %d shard %d", s, icut, idx)
		}
		base[s] = sb
	}
	return imgCuts, base, nil
}
