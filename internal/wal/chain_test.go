package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kv"
)

// fakeSource is a SnapshotSource over plain maps: the test mirrors every
// appended effect into it and bumps epochs by hand, standing in for the
// kv store's commit-hook bumps.
type fakeSource struct {
	epochs []uint64
	shards []map[string]uint64
	dumps  []int // DumpShard call count, per shard
}

func newFakeSource(n int) *fakeSource {
	fs := &fakeSource{
		epochs: make([]uint64, n),
		shards: make([]map[string]uint64, n),
		dumps:  make([]int, n),
	}
	for i := range fs.shards {
		fs.shards[i] = map[string]uint64{}
	}
	return fs
}

func (f *fakeSource) Shards() int                   { return len(f.shards) }
func (f *fakeSource) DirtyEpochLocked(i int) uint64 { return f.epochs[i] }
func (f *fakeSource) DumpShard(i int) ([]kv.Pair, error) {
	f.dumps[i]++
	pairs := make([]kv.Pair, 0, len(f.shards[i]))
	for k, v := range f.shards[i] {
		pairs = append(pairs, kv.Pair{Key: k, Val: v})
	}
	return pairs, nil
}

// apply mirrors one batch into shard sh (bumping its epoch) and appends
// it to the log, like a commit hook would.
func (f *fakeSource) apply(t *testing.T, l *Log, sh int, effects []kv.Effect) {
	t.Helper()
	if err := l.Append(effects); err != nil {
		t.Fatalf("Append: %v", err)
	}
	for _, e := range effects {
		if e.Del {
			delete(f.shards[sh], e.Key)
		} else {
			f.shards[sh][e.Key] = e.Val
		}
	}
	f.epochs[sh]++
}

func (f *fakeSource) merged() map[string]uint64 {
	m := map[string]uint64{}
	for _, sh := range f.shards {
		for k, v := range sh {
			m[k] = v
		}
	}
	return m
}

func listSnapshotFiles(t *testing.T, dir string) (manifests, images, snaps []string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".mf"):
			manifests = append(manifests, name)
		case strings.HasSuffix(name, ".shard"):
			images = append(images, name)
		case strings.HasSuffix(name, ".snap"):
			snaps = append(snaps, name)
		}
	}
	return
}

func TestIncrementalCutDumpsOnlyDirtyShards(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever, SegmentBytes: 128})
	src := newFakeSource(4)
	for i := 0; i < 4; i++ {
		src.apply(t, l, i, []kv.Effect{put(fmt.Sprintf("s%d-a", i), uint64(i))})
	}

	// First cut of the log's lifetime: full, every shard dumped.
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc: %v", err)
	}
	for i, n := range src.dumps {
		if n != 1 {
			t.Fatalf("full cut dumped shard %d %d times, want 1", i, n)
		}
	}

	// Dirty only shard 2; the next cut must re-dump it and nothing else.
	src.apply(t, l, 2, []kv.Effect{put("s2-b", 22)})
	src.apply(t, l, 2, []kv.Effect{del("s2-a")})
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc #2: %v", err)
	}
	for i, n := range src.dumps {
		want := 1
		if i == 2 {
			want = 2
		}
		if n != want {
			t.Fatalf("after incremental cut shard %d dumped %d times, want %d", i, n, want)
		}
	}

	// Exactly one manifest; shard 2's image is at the new cut, the other
	// three still link to the full cut's images.
	manifests, images, snaps := listSnapshotFiles(t, dir)
	if len(manifests) != 1 || len(snaps) != 0 {
		t.Fatalf("after cuts: manifests=%v snaps=%v", manifests, snaps)
	}
	if len(images) != 4 {
		t.Fatalf("kept %d shard images %v, want 4", len(images), images)
	}
	fresh := 0
	for _, img := range images {
		cut, _, ok := parseShardImageName(img)
		if !ok {
			t.Fatalf("bad image name %q", img)
		}
		if cut == 6 {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d images at the incremental cut, want 1 (only the dirty shard)", fresh)
	}

	// Tail past the cut, then recover: base + tail must merge to the
	// reference state and replay only the tail.
	src.apply(t, l, 0, []kv.Effect{put("s0-b", 100)})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if rec.Base == nil {
		t.Fatalf("recovery ignored the chain (Base == nil)")
	}
	if rec.SnapshotSeq != 6 || rec.Records != 1 {
		t.Fatalf("recovered cut=%d records=%d, want cut=6 records=1", rec.SnapshotSeq, rec.Records)
	}
	if got, want := rec.Merged(), src.merged(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if rec.Keys != len(src.merged()) {
		t.Fatalf("rec.Keys = %d, want %d", rec.Keys, len(src.merged()))
	}
}

func TestChainTailDeleteShadowsBase(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever})
	src := newFakeSource(2)
	src.apply(t, l, 0, []kv.Effect{put("a", 1), put("b", 2)})
	src.apply(t, l, 1, []kv.Effect{put("c", 3)})
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc: %v", err)
	}
	// Tail: delete a base key, overwrite another, re-put a deleted one.
	src.apply(t, l, 0, []kv.Effect{del("a"), put("b", 20)})
	src.apply(t, l, 1, []kv.Effect{del("c")})
	src.apply(t, l, 1, []kv.Effect{put("c", 30)})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := openT(t, dir, Options{})
	want := map[string]uint64{"b": 20, "c": 30}
	if got := rec.Merged(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if rec.Keys != 2 {
		t.Fatalf("rec.Keys = %d, want 2", rec.Keys)
	}
}

func TestBrokenChainRefusedLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever, SegmentBytes: 128})
	src := newFakeSource(3)
	for i := 0; i < 3; i++ {
		src.apply(t, l, i, []kv.Effect{put(fmt.Sprintf("k%d", i), uint64(i))})
	}
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc: %v", err)
	}
	// Enough churn to rotate segments — flushed before the cut, so the
	// cut's truncation actually drops the history the chain covers.
	pad := strings.Repeat("x", 64)
	for i := 0; i < 8; i++ {
		src.apply(t, l, 1, []kv.Effect{put("k1-"+pad, uint64(i))})
	}
	waitDurable(t, l, 11)
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc #2: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Corrupt one image the manifest references (a linked clean-shard
	// image from the first cut). The chain must be poisoned whole: with
	// the covered segments already truncated, recovery refuses rather
	// than serving a partial chain.
	_, images, _ := listSnapshotFiles(t, dir)
	corrupted := false
	for _, img := range images {
		if cut, _, _ := parseShardImageName(img); cut == 3 {
			b, err := os.ReadFile(filepath.Join(dir, img))
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			b[len(b)-1] ^= 0xFF
			if err := os.WriteFile(filepath.Join(dir, img), b, 0o644); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatalf("no linked image from the first cut found in %v", images)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatalf("Open loaded a partial chain")
	} else if !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("Open error %q does not refuse the hole", err)
	}
}

func TestManifestTmpLeftoverRemoved(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever})
	src := newFakeSource(2)
	src.apply(t, l, 0, []kv.Effect{put("a", 1)})
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A crash mid-cut leaves manifest.tmp; the rename never happened so
	// the previous chain is still the newest complete one.
	tmp := filepath.Join(dir, "manifest.tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	_, rec := openT(t, dir, Options{})
	if rec.SnapshotSeq != 1 {
		t.Fatalf("recovered cut %d, want 1", rec.SnapshotSeq)
	}
	if got := rec.Merged(); !reflect.DeepEqual(got, map[string]uint64{"a": 1}) {
		t.Fatalf("recovered %v", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("manifest.tmp not cleaned up: %v", err)
	}
}

func TestLegacyThenIncrementalCut(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever})
	src := newFakeSource(2)
	src.apply(t, l, 0, []kv.Effect{put("a", 1)})
	dump := func() ([]kv.Pair, error) {
		var pairs []kv.Pair
		for _, sh := range src.shards {
			for k, v := range sh {
				pairs = append(pairs, kv.Pair{Key: k, Val: v})
			}
		}
		return pairs, nil
	}
	if err := l.WriteSnapshot(dump); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	src.apply(t, l, 1, []kv.Effect{put("b", 2)})
	// The incremental cut supersedes the legacy snapshot (full, since no
	// chain base exists) and removes it.
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc: %v", err)
	}
	manifests, images, snaps := listSnapshotFiles(t, dir)
	if len(manifests) != 1 || len(images) != 2 || len(snaps) != 0 {
		t.Fatalf("manifests=%v images=%v snaps=%v, want 1/2/0", manifests, images, snaps)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := openT(t, dir, Options{})
	if got := rec.Merged(); !reflect.DeepEqual(got, map[string]uint64{"a": 1, "b": 2}) {
		t.Fatalf("recovered %v", got)
	}
}

func TestChainBundleShipAndInstall(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever})
	src := newFakeSource(3)
	for i := 0; i < 3; i++ {
		src.apply(t, l, i, []kv.Effect{put(fmt.Sprintf("k%d", i), uint64(i+1))})
	}
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc: %v", err)
	}
	src.apply(t, l, 0, []kv.Effect{put("k0", 10)})
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc #2: %v", err)
	}

	img, cut, ok, err := l.NewestSnapshot()
	if err != nil || !ok {
		t.Fatalf("NewestSnapshot: ok=%v err=%v", ok, err)
	}
	if cut != 4 {
		t.Fatalf("NewestSnapshot cut = %d, want 4", cut)
	}
	if !isBundle(img) {
		t.Fatalf("chain did not ship as a bundle")
	}
	dcut, state, err := DecodeSnapshot(img)
	if err != nil || dcut != cut {
		t.Fatalf("DecodeSnapshot: cut=%d err=%v", dcut, err)
	}
	if want := src.merged(); !reflect.DeepEqual(state, want) {
		t.Fatalf("bundle state %v, want %v", state, want)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Cold install into a fresh dir, then recover from it.
	dir2 := t.TempDir()
	if icut, err := InstallSnapshotImage(nil, dir2, img); err != nil || icut != cut {
		t.Fatalf("InstallSnapshotImage: cut=%d err=%v", icut, err)
	}
	_, rec := openT(t, dir2, Options{})
	if rec.SnapshotSeq != cut || !reflect.DeepEqual(rec.Merged(), src.merged()) {
		t.Fatalf("cold install recovered cut=%d state=%v", rec.SnapshotSeq, rec.Merged())
	}

	// Live install into an open log that is behind the bundle's cut.
	dir3 := t.TempDir()
	l3, _ := openT(t, dir3, Options{Policy: SyncNever})
	if err := l3.Append([]kv.Effect{put("stale", 1)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if icut, err := l3.InstallSnapshot(img); err != nil || icut != cut {
		t.Fatalf("InstallSnapshot: cut=%d err=%v", icut, err)
	}
	if err := l3.Append([]kv.Effect{put("post", 9)}); err != nil {
		t.Fatalf("Append after install: %v", err)
	}
	if err := l3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec3 := openT(t, dir3, Options{})
	want := src.merged()
	want["post"] = 9
	if got := rec3.Merged(); !reflect.DeepEqual(got, want) {
		t.Fatalf("live install recovered %v, want %v", got, want)
	}
	if rec3.LastSeq != cut+1 {
		t.Fatalf("live install LastSeq = %d, want %d", rec3.LastSeq, cut+1)
	}
}

// TestRotationCutAmortised drives the CutDue rule at the default
// segment size with a source whose images are larger than a segment:
// the first rotation signals (no chain yet), and after that cut no
// rotation signals until the log bytes written since the cut reach the
// chain's image bytes.
func TestRotationCutAmortised(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever})
	defer l.Close()
	due := func() bool {
		select {
		case <-l.CutDue():
			return true
		default:
			return false
		}
	}

	// 4 shards × 40 keys × 16 KiB: about 2.5 MiB of images.
	src := newFakeSource(4)
	for s := range src.shards {
		for i := 0; i < 40; i++ {
			src.shards[s][fmt.Sprintf("%d-%03d-%s", s, i, strings.Repeat("k", 16<<10))] = uint64(i)
		}
	}

	// appendOne logs one 8 KiB record, waits for it to reach its
	// segment, and reports whether that write rotated.
	var seq uint64
	var logBytes int64
	appendOne := func() (rotated bool) {
		t.Helper()
		segs := l.Stats().Segments
		eff := []kv.Effect{put(fmt.Sprintf("%06d-%s", seq, strings.Repeat("v", 8<<10)), seq)}
		if err := l.Append(eff); err != nil {
			t.Fatalf("Append: %v", err)
		}
		seq++
		waitDurable(t, l, seq)
		logBytes += int64(len(EncodeFrame(nil, seq, eff)))
		return l.Stats().Segments > segs
	}

	for !appendOne() {
		if due() {
			t.Fatal("CutDue signalled before any rotation")
		}
	}
	if !due() {
		t.Fatal("the first rotation did not signal CutDue with no chain")
	}
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc: %v", err)
	}
	_, images, _ := listSnapshotFiles(t, dir)
	var imgBytes int64
	for _, name := range images {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		imgBytes += fi.Size()
	}
	if imgBytes <= 2<<20 {
		t.Fatalf("images hold %d bytes, want more than two 1 MiB segments", imgBytes)
	}
	cutBytes := logBytes

	quiet := 0
	for {
		before := logBytes
		if !appendOne() {
			if due() {
				t.Fatal("CutDue signalled without a rotation")
			}
			continue
		}
		since := before - cutBytes
		if got, want := due(), since >= imgBytes; got != want {
			t.Fatalf("rotation %d bytes after the cut (images %d bytes): CutDue = %v, want %v", since, imgBytes, got, want)
		}
		if since >= imgBytes {
			break
		}
		quiet++
	}
	if quiet < 2 {
		t.Fatalf("%d rotations passed without a cut, want at least 2 for %d image bytes", quiet, imgBytes)
	}
	if st := l.Stats(); st.Cuts != 1 {
		t.Fatalf("Stats().Cuts = %d, want 1", st.Cuts)
	}
}
