package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/kv"
)

// writeCompatDir runs a fixed script against a fresh log directory —
// records rotating across tiny segments, a chain cut over two shards,
// then a tail that deletes a base key, overwrites another and re-puts a
// deleted one — and returns the state the directory must recover to.
// Every byte it leaves on disk is determined by the script: the cut
// waits for the log goroutine, so which segments it truncates does not
// depend on scheduling. testdata/pr14-dir is this script's output under
// the PR 14 build (the last before the replay accumulator).
func writeCompatDir(t *testing.T, dir string) map[string]uint64 {
	t.Helper()
	l, _ := openT(t, dir, Options{Policy: SyncNever, SegmentBytes: 128})
	src := newFakeSource(2)
	shardOf := map[string]int{"a": 0, "b": 1, "c": 0, "d": 1, "e": 0, "f": 1, "g": 0, "h": 1}
	apply := func(effects ...kv.Effect) {
		t.Helper()
		if err := l.Append(effects); err != nil {
			t.Fatal(err)
		}
		for _, e := range effects {
			sh := shardOf[e.Key]
			if e.Del {
				delete(src.shards[sh], e.Key)
			} else {
				src.shards[sh][e.Key] = e.Val
			}
			src.epochs[sh]++
		}
	}
	for i, k := range []string{"a", "b", "c", "d", "e", "f"} {
		apply(put(k, uint64(i+1)), put("g", uint64(100+i)))
	}
	apply(del("c"), put("h", 300))
	apply(del("missing"))
	apply(put("c", 77), del("d"))
	waitDurable(t, l, l.LastSeq())
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatal(err)
	}
	apply(del("a"))                           // deletes a base key
	apply(put("b", 2000), put("e", 1<<40))    // overwrites base keys
	apply(del("f"), put("f", 6000))           // DEL -> PUT in one record
	apply(put("d", 4000))                     // re-puts a key deleted before the cut
	apply(put("x", 1), del("x"), put("x", 2)) // PUT -> DEL -> PUT
	apply(del("h"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return src.merged()
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestOnDiskFormatInterchangeable pins that the replay rewrite changed
// no byte on disk, in either direction: a directory the PR 14 build
// wrote recovers here to the scripted state, and the same script under
// this build writes the same files byte for byte — so what this build
// writes is what the PR 14 build reads.
func TestOnDiskFormatInterchangeable(t *testing.T) {
	fixture := readDir(t, filepath.Join("testdata", "pr14-dir"))
	if len(fixture) == 0 {
		t.Fatal("testdata/pr14-dir is empty")
	}

	mine := t.TempDir()
	want := writeCompatDir(t, mine)
	written := readDir(t, mine)
	for name, b := range fixture {
		if !bytes.Equal(written[name], b) {
			t.Errorf("%s: this build wrote %d bytes, the PR 14 build %d (or the contents differ)", name, len(written[name]), len(b))
		}
	}
	if len(written) != len(fixture) {
		t.Errorf("this build wrote %d files, the PR 14 build %d", len(written), len(fixture))
	}

	theirs := t.TempDir()
	for name, b := range fixture {
		if err := os.WriteFile(filepath.Join(theirs, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, rec := openT(t, theirs, Options{})
	defer l.Close()
	if got := rec.Merged(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the PR 14 build's directory recovers to %v, want %v", got, want)
	}
	if rec.Base == nil || rec.TornTail || rec.Keys != len(want) {
		t.Fatalf("recovered Base=%v TornTail=%v Keys=%d, want a chain, no torn tail, %d keys", rec.Base != nil, rec.TornTail, rec.Keys, len(want))
	}
}
