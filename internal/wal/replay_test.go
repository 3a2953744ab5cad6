package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/kv"
)

// oracleApply is applyPayload exactly as recovery ran it before the
// replay accumulator replaced it: every effect becomes a fresh string
// and a map assign or delete. It stays here as the reference the new
// decoder is checked against.
func oracleApply(state map[string]uint64, tombs map[string]struct{}, payload []byte) error {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return fmt.Errorf("wal: bad effect count")
	}
	payload = payload[n:]
	for i := uint64(0); i < count; i++ {
		if len(payload) == 0 {
			return fmt.Errorf("wal: effect list cut short")
		}
		tag := payload[0]
		payload = payload[1:]
		klen, n := binary.Uvarint(payload)
		if n <= 0 || uint64(len(payload[n:])) < klen {
			return fmt.Errorf("wal: bad key length")
		}
		key := string(payload[n : n+int(klen)])
		payload = payload[n+int(klen):]
		switch tag {
		case tagPut:
			val, n := binary.Uvarint(payload)
			if n <= 0 {
				return fmt.Errorf("wal: bad value")
			}
			payload = payload[n:]
			state[key] = val
			if tombs != nil {
				delete(tombs, key)
			}
		case tagDel:
			delete(state, key)
			if tombs != nil {
				tombs[key] = struct{}{}
			}
		default:
			return fmt.Errorf("wal: unknown effect tag %d", tag)
		}
	}
	return nil
}

// oracleRec is what the oracle recovers from a directory.
type oracleRec struct {
	state   map[string]uint64
	tombs   map[string]struct{} // nil unless a chain base was loaded
	base    []ShardBase
	records int
	lastSeq uint64
	snapSeq uint64
	torn    bool
	// order lists the tail's keys as the log first mentions them (a
	// legacy image's entries count as the head of the log).
	order []string
}

// merged is the full recovered state: the base minus what the tail
// overrode or deleted, plus the tail.
func (o *oracleRec) merged() map[string]uint64 {
	m := map[string]uint64{}
	for s := range o.base {
		o.base[s].walk(func(k string, v uint64) error {
			if _, dead := o.tombs[k]; !dead {
				m[k] = v
			}
			return nil
		})
	}
	for k, v := range o.state {
		m[k] = v
	}
	return m
}

// each is the key sequence Recovered.Each must produce: unshadowed base
// entries in image order, then the live tail in first-mention order.
func (o *oracleRec) each() []string {
	var keys []string
	for s := range o.base {
		o.base[s].walk(func(k string, _ uint64) error {
			_, over := o.state[k]
			_, dead := o.tombs[k]
			if !over && !dead {
				keys = append(keys, k)
			}
			return nil
		})
	}
	for _, k := range o.order {
		if _, ok := o.state[k]; ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// oracleSegment replays one segment image the way replaySegment did at
// the parent commit, without touching the disk. next is the continuity
// cursor (0 = anchor on this segment's header).
func (o *oracleRec) oracleSegment(b []byte, first, last bool, next *uint64, seen map[string]bool) error {
	if len(b) < segHeaderLen || string(b[:len(segMagic)]) != segMagic {
		if !last {
			return fmt.Errorf("bad segment header")
		}
		o.torn = len(b) > 0
		return nil
	}
	firstSeq := binary.LittleEndian.Uint64(b[len(segMagic):])
	if first {
		if firstSeq > o.snapSeq+1 {
			return fmt.Errorf("log starts at %d past the snapshot cut %d", firstSeq, o.snapSeq)
		}
		*next = firstSeq
	} else if firstSeq != *next {
		return fmt.Errorf("segment starts at %d, want %d", firstSeq, *next)
	}
	for off := segHeaderLen; off < len(b); {
		seq, payload, n, ok := parseFrame(b[off:])
		if !ok {
			if !last {
				return fmt.Errorf("corrupt record at offset %d", off)
			}
			o.torn = true
			return nil
		}
		if seq != *next {
			return fmt.Errorf("record seq %d, want %d", seq, *next)
		}
		*next = seq + 1
		if seq > o.snapSeq {
			if err := oracleApply(o.state, o.tombs, payload); err != nil {
				return err
			}
			o.records++
			// First-mention order, read off the payload independently of
			// the decoder under test: DecodeFrames is checked elsewhere,
			// so walk the raw bytes with the oracle's own layout.
			o.noteOrder(payload, seen)
		}
		if seq > o.lastSeq {
			o.lastSeq = seq
		}
		off += n
	}
	return nil
}

// noteOrder appends the keys of an oracle-accepted payload to o.order
// the first time each is seen.
func (o *oracleRec) noteOrder(payload []byte, seen map[string]bool) {
	count, n := binary.Uvarint(payload)
	payload = payload[n:]
	for i := uint64(0); i < count; i++ {
		tag := payload[0]
		klen, n := binary.Uvarint(payload[1:])
		key := string(payload[1+n : 1+n+int(klen)])
		payload = payload[1+n+int(klen):]
		if tag == tagPut {
			_, n := binary.Uvarint(payload)
			payload = payload[n:]
		}
		if !seen[key] {
			seen[key] = true
			o.order = append(o.order, key)
		}
	}
}

// oracleRecover recovers dir read-only, following Open's rules as they
// stood before this file's subject changed: newest loadable snapshot
// (a chain beats a legacy image at the same cut), then every segment
// in index order through oracleApply.
func oracleRecover(t testing.TB, dir string) (*oracleRec, error) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracleRec{state: map[string]uint64{}}
	seen := map[string]bool{}
	var segIdxs []int
	var chains, snaps []uint64
	for _, e := range ents {
		if idx := parseSegIdx(e.Name()); idx >= 0 {
			segIdxs = append(segIdxs, idx)
		} else if cut, ok := parseManifestName(e.Name()); ok {
			chains = append(chains, cut)
		} else if cut, ok := parseSnapName(e.Name()); ok {
			snaps = append(snaps, cut)
		}
	}
	sort.Ints(segIdxs)
	// The test directories hold at most one snapshot of either kind.
	switch {
	case len(chains) > 0:
		cut := chains[len(chains)-1]
		if o.base, err = loadChain(faultfs.OS, dir, cut); err != nil {
			t.Fatalf("oracle: chain %d: %v", cut, err)
		}
		o.tombs = map[string]struct{}{}
		o.snapSeq, o.lastSeq = cut, cut
	case len(snaps) > 0:
		cut := snaps[len(snaps)-1]
		img, err := os.ReadFile(filepath.Join(dir, snapName(cut)))
		if err != nil {
			t.Fatal(err)
		}
		if _, o.state, err = decodeSnapshot(img); err != nil {
			t.Fatalf("oracle: snapshot %d: %v", cut, err)
		}
		for k := range o.state {
			o.order = append(o.order, k)
		}
		sort.Strings(o.order) // file order: SnapshotImage sorts by key
		for _, k := range o.order {
			seen[k] = true
		}
		o.snapSeq, o.lastSeq = cut, cut
	}
	var next uint64
	for i, idx := range segIdxs {
		b, err := os.ReadFile(filepath.Join(dir, segName(idx)))
		if err != nil {
			t.Fatal(err)
		}
		if err := o.oracleSegment(b, i == 0, i == len(segIdxs)-1, &next, seen); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkAgainstOracle compares everything Open reports with the oracle.
func checkAgainstOracle(t *testing.T, tag string, rec *Recovered, o *oracleRec) {
	t.Helper()
	want := o.merged()
	if got := rec.Merged(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Merged() = %v, oracle %v", tag, got, want)
	}
	if !reflect.DeepEqual(rec.State, o.state) {
		t.Fatalf("%s: State = %v, oracle %v", tag, rec.State, o.state)
	}
	if len(rec.Tombstones) != len(o.tombs) {
		t.Fatalf("%s: Tombstones = %v, oracle %v", tag, rec.Tombstones, o.tombs)
	}
	for k := range o.tombs {
		if _, ok := rec.Tombstones[k]; !ok {
			t.Fatalf("%s: Tombstones = %v, oracle %v", tag, rec.Tombstones, o.tombs)
		}
	}
	if (rec.Base != nil) != (o.base != nil) {
		t.Fatalf("%s: Base loaded = %v, oracle %v", tag, rec.Base != nil, o.base != nil)
	}
	if rec.Keys != len(want) || rec.Records != o.records || rec.LastSeq != o.lastSeq ||
		rec.SnapshotSeq != o.snapSeq || rec.TornTail != o.torn {
		t.Fatalf("%s: Keys/Records/LastSeq/SnapshotSeq/TornTail = %d/%d/%d/%d/%v, oracle %d/%d/%d/%d/%v", tag,
			rec.Keys, rec.Records, rec.LastSeq, rec.SnapshotSeq, rec.TornTail,
			len(want), o.records, o.lastSeq, o.snapSeq, o.torn)
	}
}

func eachKeys(t *testing.T, rec *Recovered) []string {
	t.Helper()
	var keys []string
	if err := rec.Each(func(k string, _ uint64) error {
		keys = append(keys, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// Shapes of the seeded random logs.
const (
	shapePlain  = iota // records only
	shapeChain         // a chain cut midway: base + tail with tombstones
	shapeLegacy        // a legacy full image midway
)

// writeRandomLog fills dir with a seeded log over a small key set:
// multi-effect records mixing PUT and DEL (so DEL→PUT and PUT→DEL→PUT
// runs on one key are common), segments a few records long, optionally
// a snapshot midway, optionally a torn final record.
func writeRandomLog(t *testing.T, dir string, seed int64, shape int, torn bool) {
	t.Helper()
	const keys, shards = 12, 3
	rng := rand.New(rand.NewSource(seed))
	l, _ := openT(t, dir, Options{Policy: SyncNever, SegmentBytes: 200})
	src := newFakeSource(shards)
	records := 150 + rng.Intn(250)
	cutAt := records/3 + rng.Intn(records/3)
	for r := 0; r < records; r++ {
		eff := make([]kv.Effect, 1+rng.Intn(4))
		for i := range eff {
			k := rng.Intn(keys)
			key := fmt.Sprintf("k%02d", k)
			if rng.Intn(5) < 2 {
				eff[i] = del(key)
				delete(src.shards[k%shards], key)
			} else {
				eff[i] = put(key, uint64(rng.Intn(1000)+1))
				src.shards[k%shards][key] = eff[i].Val
			}
			src.epochs[k%shards]++
		}
		if err := l.Append(eff); err != nil {
			t.Fatal(err)
		}
		if r != cutAt {
			continue
		}
		switch shape {
		case shapeChain:
			if err := l.WriteSnapshotInc(src); err != nil {
				t.Fatal(err)
			}
		case shapeLegacy:
			err := l.WriteSnapshot(func() ([]kv.Pair, error) {
				var pairs []kv.Pair
				for k, v := range src.merged() {
					pairs = append(pairs, kv.Pair{Key: k, Val: v})
				}
				return pairs, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !torn {
		return
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	sort.Strings(segs)
	lastSeg := segs[len(segs)-1]
	fi, err := os.Stat(lastSeg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > segHeaderLen+int64(rng.Intn(7)+1) {
		if err := os.Truncate(lastSeg, fi.Size()-int64(rng.Intn(7)+1)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayMatchesOracle is the differential test of the replay
// accumulator: over seeded random logs of every shape, what Open
// reports equals what the pre-accumulator decoder computes from the
// same bytes.
func TestReplayMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 36; seed++ {
		shape, torn := int(seed%3), seed%2 == 1
		dir := t.TempDir()
		writeRandomLog(t, dir, seed, shape, torn)
		o, err := oracleRecover(t, dir)
		if err != nil {
			t.Fatalf("seed %d: oracle refused a log the writer produced: %v", seed, err)
		}
		if shape == shapeChain && len(o.tombs) == 0 {
			t.Fatalf("seed %d: chain log has no tail tombstone; the generator lost its point", seed)
		}
		l, rec := openT(t, dir, Options{})
		checkAgainstOracle(t, fmt.Sprintf("seed %d", seed), &rec, o)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveredEachOrder pins that Each is a function of the log: base
// entries in image order, then the tail in first-mention order, and the
// same sequence from a second Open of the same directory.
func TestRecoveredEachOrder(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		dir := t.TempDir()
		writeRandomLog(t, dir, seed, int(seed%3), seed%2 == 1)
		o, err := oracleRecover(t, dir)
		if err != nil {
			t.Fatal(err)
		}
		want := o.each()
		for open := 1; open <= 2; open++ {
			l, rec := openT(t, dir, Options{})
			if got := eachKeys(t, &rec); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, open %d: Each yields %v, want %v", seed, open, got, want)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReplayAllocBudget pins that replay allocates per distinct key,
// not per record: 100k single-effect records over 1k keys.
func TestReplayAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const keys, records = 1000, 100_000
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever})
	writeReqRespLog(t, l, keys, records)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		l, rec, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Records != records {
			t.Fatalf("replayed %d records, want %d", rec.Records, records)
		}
		l.Close()
	})
	if budget := float64(4*keys + 300); allocs > budget {
		t.Fatalf("Open over %d records on %d keys made %.0f allocations, budget %.0f", records, keys, allocs, budget)
	}
}

// writeReqRespLog appends the record stream the write-reqresp workload
// leaves behind: one effect per record, 7 in 8 a SET and 1 in 8 a DEL,
// keys drawn uniformly.
func writeReqRespLog(t testing.TB, l *Log, keys, records int) {
	t.Helper()
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key%06d", i)
	}
	rng := rand.New(rand.NewSource(1))
	eff := make([]kv.Effect, 1)
	for r := 0; r < records; r++ {
		eff[0] = kv.Effect{Key: names[rng.Intn(keys)], Val: uint64(r + 1), Del: r%8 == 7}
		if err := l.Append(eff); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkOpen measures recovery of a write-reqresp-shaped log: 320k
// single-effect records on 1024 keys, about 6.5 MB.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	l, _, err := Open(Options{Dir: dir, Policy: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	writeReqRespLog(b, l, 1024, 320_000)
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, rec, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Records != 320_000 {
			b.Fatalf("replayed %d records", rec.Records)
		}
		b.StopTimer()
		l.Close()
		b.StartTimer()
	}
}

// TestOpenCloseCyclesLeaveNoSegments pins that a restart which logs
// nothing does not grow the directory: the header-only segment one boot
// leaves is removed by the next instead of piling up.
func TestOpenCloseCyclesLeaveNoSegments(t *testing.T) {
	for _, withRecords := range []bool{false, true} {
		dir := t.TempDir()
		l, _ := openT(t, dir, Options{Policy: SyncNever})
		want, lastSeq := map[string]uint64{}, uint64(0)
		if withRecords {
			if err := l.Append([]kv.Effect{put("a", 1), put("b", 2)}); err != nil {
				t.Fatal(err)
			}
			want, lastSeq = map[string]uint64{"a": 1, "b": 2}, 1
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 20; cycle++ {
			l, rec := openT(t, dir, Options{Policy: SyncNever})
			if !reflect.DeepEqual(rec.State, want) || rec.TornTail {
				t.Fatalf("cycle %d: recovered %v (torn=%v), want %v", cycle, rec.State, rec.TornTail, want)
			}
			if got := l.Stats().Segments; got > 2 {
				t.Fatalf("cycle %d: log tracks %d segments", cycle, got)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) > 2 {
			t.Fatalf("20 empty restarts left %d segment files: %v", len(segs), segs)
		}
		// The sequence still continues where the records stopped.
		l, _ = openT(t, dir, Options{Policy: SyncNever})
		if err := l.Append([]kv.Effect{put("c", 3)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want["c"] = 3
		l, rec := openT(t, dir, Options{})
		if !reflect.DeepEqual(rec.State, want) || rec.LastSeq != lastSeq+1 {
			t.Fatalf("after the cycles: recovered %v at seq %d, want %v", rec.State, rec.LastSeq, want)
		}
		l.Close()
	}
}

// rawFrame frames an arbitrary body (seq + payload) with a valid length
// and CRC, so malformed payloads reach the effect decoder instead of
// dying at the checksum.
func rawFrame(seq uint64, payload []byte) []byte {
	body := binary.AppendUvarint(nil, seq)
	body = append(body, payload...)
	p := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	p = binary.LittleEndian.AppendUint32(p, crc32.ChecksumIEEE(body))
	return append(p, body...)
}

func segHeader(firstSeq uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte(segMagic), firstSeq)
}

// payloadOf returns the payload (count + effects) of an effect list.
func payloadOf(effects ...kv.Effect) []byte {
	_, payload, _, _ := parseFrame(appendFrame(nil, 0, effects))
	return payload
}

// malformedPayloads are the decoder's refusal cases, one per error.
func malformedPayloads() [][]byte {
	good := payloadOf(put("alpha", 300), del("beta"), put("alpha", 7))
	return [][]byte{
		{},                                  // no count at all
		{0x80},                              // count varint cut short
		{2, tagPut, 1, 'a', 5},              // second effect missing
		{1, tagPut, 0x80},                   // key length varint cut short
		{1, tagPut, 9, 'a', 'b'},            // klen runs past the buffer
		{1, tagDel, 0xff, 0xff, 0xff, 0x7f}, // klen far past the buffer
		{1, tagPut, 1, 'a'},                 // value missing
		{1, tagPut, 1, 'a', 0x80},           // value varint cut short
		{1, 7, 1, 'a', 5},                   // unknown tag
		good[:len(good)-1],                  // a valid payload minus its last byte
		append(bytes.Clone(good), 0xEE),     // trailing garbage: accepted and ignored
	}
}

// FuzzEffects drives the unified effect decoder with arbitrary
// payloads: it must never panic or read out of bounds, must accept
// exactly the payloads the oracle accepts, and on those must leave the
// same state and tombstones.
func FuzzEffects(f *testing.F) {
	f.Add(payloadOf(put("a", 1)))
	f.Add(payloadOf(put("a", 1), del("a"), put("a", 2), del("b")))
	f.Add(payloadOf(del("only")))
	for _, p := range malformedPayloads() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		state, tombs := map[string]uint64{}, map[string]struct{}{}
		oerr := oracleApply(state, tombs, payload)
		var acc replay
		err := acc.apply(payload)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("decoder says %v, oracle says %v", err, oerr)
		}
		// Both apply effects in order up to the first bad one, so the
		// states agree on refused payloads too.
		rec := Recovered{Base: []ShardBase{}}
		acc.finish(&rec)
		if !reflect.DeepEqual(rec.State, state) || !reflect.DeepEqual(rec.Tombstones, tombs) {
			t.Fatalf("state %v tombstones %v, oracle %v %v", rec.State, rec.Tombstones, state, tombs)
		}
		// DecodeFrames reads through the same iterator.
		var got []kv.Effect
		derr := DecodeFrames(rawFrame(1, payload), func(_ uint64, eff []kv.Effect) error {
			got = append(got, eff...)
			return nil
		})
		if (derr == nil) != (oerr == nil) {
			t.Fatalf("DecodeFrames says %v, oracle says %v", derr, oerr)
		}
		if derr == nil && !reflect.DeepEqual(replayRef(got), state) {
			t.Fatalf("DecodeFrames effects %v replay to %v, oracle %v", got, replayRef(got), state)
		}
	})
}

// FuzzReplaySegment hands Open a directory whose only segment is an
// arbitrary image: it must never panic, must refuse exactly the images
// the oracle refuses, and must agree with the oracle on the rest.
func FuzzReplaySegment(f *testing.F) {
	valid := segHeader(1)
	valid = appendFrame(valid, 1, []kv.Effect{put("a", 1), put("b", 2)})
	valid = appendFrame(valid, 2, []kv.Effect{del("a")})
	valid = appendFrame(valid, 3, []kv.Effect{put("a", 9), del("c")})
	f.Add(valid)
	f.Add(segHeader(1))                                  // header only
	f.Add(valid[:segHeaderLen-3])                        // header cut short
	f.Add(valid[:len(valid)-2])                          // torn tail
	f.Add(append(segHeader(5), valid[segHeaderLen:]...)) // log starts past the (absent) snapshot
	tailFlip := bytes.Clone(valid)
	tailFlip[len(tailFlip)-1] ^= 0x40 // CRC mismatch in the last frame: a torn tail
	f.Add(tailFlip)
	midFlip := bytes.Clone(valid)
	midFlip[segHeaderLen+frameHeaderLen+2] ^= 0x40 // CRC mismatch in the first frame: everything after it is lost
	f.Add(midFlip)
	gap := appendFrame(segHeader(1), 1, []kv.Effect{put("a", 1)})
	f.Add(appendFrame(gap, 3, []kv.Effect{put("b", 2)})) // seq hole
	for _, p := range malformedPayloads() {
		f.Add(append(appendFrame(segHeader(1), 1, []kv.Effect{put("a", 1)}), rawFrame(2, p)...))
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), image, 0o644); err != nil {
			t.Fatal(err)
		}
		o, oerr := oracleRecover(t, dir)
		l, rec, err := Open(Options{Dir: dir, Policy: SyncNever})
		if (err == nil) != (oerr == nil) {
			t.Fatalf("Open says %v, oracle says %v", err, oerr)
		}
		if err != nil {
			return
		}
		defer l.Close()
		checkAgainstOracle(t, "fuzz", &rec, o)
		if got, want := eachKeys(t, &rec), o.each(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Each yields %v, want %v", got, want)
		}
	})
}
