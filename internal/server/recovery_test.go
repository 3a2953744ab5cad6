package server

import (
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestRecoveryHelperProcess is not a regular test: it is the server
// subprocess of the kill-and-recover tests, entered only when re-exec'd
// with OFTM_RECOVERY_HELPER=1. It serves with a WAL in fsync=always
// mode until the parent SIGKILLs it — by construction it never flushes
// gracefully.
func TestRecoveryHelperProcess(t *testing.T) {
	if os.Getenv("OFTM_RECOVERY_HELPER") != "1" {
		t.Skip("helper process for TestKillAndRecover")
	}
	dir := os.Getenv("OFTM_WAL_DIR")
	// OFTM_RUNTIME pins the serving runtime (empty = the default worker
	// runtime) so recovery smoke can run the kill-and-recover scenario
	// against either path explicitly.
	s, err := New(Config{Addr: "127.0.0.1:0", Engine: "nztm", WALDir: dir, Fsync: "always",
		Runtime: os.Getenv("OFTM_RUNTIME")})
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(3)
	}
	if err := s.Listen(); err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(3)
	}
	// Publish the ephemeral address where the parent polls for it.
	addrFile := filepath.Join(dir, "helper.addr")
	if err := os.WriteFile(addrFile+".tmp", []byte(s.Addr().String()), 0o644); err != nil {
		os.Exit(3)
	}
	os.Rename(addrFile+".tmp", addrFile)
	s.Serve() // runs until SIGKILL
}

// spawnHelper starts the helper server subprocess and returns it with
// its published address.
func spawnHelper(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestRecoveryHelperProcess$")
	cmd.Env = append(os.Environ(), "OFTM_RECOVERY_HELPER=1", "OFTM_WAL_DIR="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper: %v", err)
	}
	addrFile := filepath.Join(dir, "helper.addr")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			os.Remove(addrFile)
			return cmd, string(b)
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("helper never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// driveLoad sends n mixed write requests (SET/DEL/CAS) synchronously —
// each acknowledged before the next is sent — and returns the
// reference map the acknowledged prefix must reproduce. With
// fsync=always every acknowledged write is durable before its ack, so
// after a SIGKILL with no request in flight the recovered state must
// equal this map exactly.
func driveLoad(t *testing.T, cl *Client, n int) map[string]uint64 {
	t.Helper()
	ref := map[string]uint64{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i%37)
		var req string
		switch i % 5 {
		case 0, 1, 2:
			req = fmt.Sprintf("SET %s %d", key, i)
		case 3:
			req = "DEL " + key
		default:
			req = fmt.Sprintf("CAS %s %d %d", key, ref[key], i)
		}
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, req, err)
		}
		if strings.HasPrefix(resp[0], "ERR") {
			t.Fatalf("request %d (%s): %s", i, req, resp[0])
		}
		switch {
		case strings.HasPrefix(req, "SET"):
			ref[key] = uint64(i)
		case strings.HasPrefix(req, "DEL"):
			delete(ref, key)
		case resp[0] == "SWAPPED":
			ref[key] = uint64(i)
		}
	}
	return ref
}

// TestKillAndRecover is the crash/restart scenario: a real server
// subprocess takes writes with -wal-dir and fsync=always, is
// hard-stopped with SIGKILL (no graceful flush), and the same wal dir
// is then recovered twice over — once by a direct wal.Open (the
// independent replay reference) and once by a full restarted server
// queried over TCP. Both must reproduce the acknowledged-write map
// exactly.
func TestKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	cmd, addr := spawnHelper(t, dir)
	cl, err := Dial(addr)
	if err != nil {
		cmd.Process.Kill()
		t.Fatalf("dial helper: %v", err)
	}
	ref := driveLoad(t, cl, 300)
	cl.Close()

	// Hard stop: SIGKILL, mid-session, no QUIT, no server.Close.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	cmd.Wait()

	// Independent replay of the on-disk log.
	l, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("wal.Open after kill: %v", err)
	}
	l.Close()
	if !reflect.DeepEqual(rec.State, ref) {
		t.Fatalf("replayed WAL state diverges from acknowledged writes:\n got %v\nwant %v", rec.State, ref)
	}

	// Full server restart on the same directory, checked over TCP.
	s := startServer(t, Config{Engine: "nztm", WALDir: dir, Fsync: "always"})
	if got := s.Recovered().Keys; got != len(ref) {
		t.Fatalf("server recovered %d keys, want %d", got, len(ref))
	}
	cl2, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for k, want := range ref {
		got, found, err := cl2.Get(k)
		if err != nil || !found || got != want {
			t.Fatalf("GET %s after recovery = (%d,%v,%v), want (%d,true,nil)", k, got, found, err, want)
		}
	}
	// And nothing beyond the reference survived.
	resp, err := cl2.Do("LEN")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("LEN %d", len(ref)); resp[0] != want {
		t.Fatalf("LEN after recovery = %q, want %q", resp[0], want)
	}
}

// TestRotationCutBoundsRestart checks the default restart bound: a
// server with default snapshot settings writes several segments of
// log, each rotation triggers a chain cut, and after a SIGKILL the
// directory holds one chain and at most two segments, and the restart
// replays less than one segment of records.
func TestRotationCutBoundsRestart(t *testing.T) {
	dir := t.TempDir()
	cmd, addr := spawnHelper(t, dir)
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial helper: %v", err)
	}
	// Every write logs at least keyLen bytes, so n writes are at least
	// 4.5 MiB of log and one 1 MiB segment holds fewer than perSeg.
	const keyLen, n, window = 1 << 10, 4608, 48
	const perSeg = (1 << 20) / keyLen
	pad := strings.Repeat("x", keyLen)
	ref := map[string]uint64{}
	for i := 0; i < n; i += window {
		reqs := make([]string, window)
		for j := range reqs {
			k := fmt.Sprintf("big%02d-%s", (i+j)%64, pad)
			reqs[j] = fmt.Sprintf("SET %s %d", k, i+j)
			ref[k] = uint64(i + j)
		}
		resp, err := cl.Do(reqs...)
		if err != nil {
			t.Fatalf("window at %d: %v", i, err)
		}
		for j, r := range resp {
			if !strings.HasPrefix(r, "OK") {
				t.Fatalf("%s: %s", reqs[j][:12], r)
			}
		}
	}
	cl.Close()

	// Wait for the cut that follows the last rotation to finish: one
	// manifest (the older ones are removed last), and its cut covers
	// every record before the newest segment.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var newestFirst, newestCut uint64
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if len(segs) > 0 {
			sort.Strings(segs)
			// A segment header is an 8-byte magic and the first seq.
			if b, err := os.ReadFile(segs[len(segs)-1]); err == nil && len(b) >= 16 {
				newestFirst = binary.LittleEndian.Uint64(b[8:16])
			}
		}
		mfs, _ := filepath.Glob(filepath.Join(dir, "manifest-*.mf"))
		for _, m := range mfs {
			var cut uint64
			fmt.Sscanf(filepath.Base(m), "manifest-%d.mf", &cut)
			newestCut = max(newestCut, cut)
		}
		if newestFirst > 1 && len(mfs) == 1 && newestCut+1 >= newestFirst {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cut after the last rotation: %d segment(s), newest starts at %d, %d manifest(s), newest cut %d",
				len(segs), newestFirst, len(mfs), newestCut)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	cmd.Wait()
	killed = true

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	mfs, _ := filepath.Glob(filepath.Join(dir, "manifest-*.mf"))
	if len(segs) > 2 || len(mfs) != 1 {
		t.Fatalf("directory after the kill: %d segment(s) and %d manifest(s), want <= 2 and 1", len(segs), len(mfs))
	}

	s := startServer(t, Config{Engine: "nztm", WALDir: dir, Fsync: "always"})
	rec := s.Recovered()
	if rec.SnapshotSeq == 0 {
		t.Fatal("restart recovered without a snapshot")
	}
	if rec.Records >= perSeg {
		t.Fatalf("restart replayed %d records, want fewer than the %d writes one segment holds", rec.Records, perSeg)
	}
	if rec.Keys != len(ref) {
		t.Fatalf("server recovered %d keys, want %d", rec.Keys, len(ref))
	}
	cl2, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for k, want := range ref {
		got, found, err := cl2.Get(k)
		if err != nil || !found || got != want {
			t.Fatalf("GET %s after recovery = (%d,%v,%v), want (%d,true,nil)", k[:5], got, found, err, want)
		}
	}
}

// TestKillAndRecoverTornTail is TestKillAndRecover with a harsher
// crash: after the SIGKILL the last segment is truncated mid-record —
// the shape of a crash during a write — and recovery must drop exactly
// the torn record while keeping every complete one.
func TestKillAndRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	cmd, addr := spawnHelper(t, dir)
	cl, err := Dial(addr)
	if err != nil {
		cmd.Process.Kill()
		t.Fatalf("dial helper: %v", err)
	}
	// Distinct keys so chopping the final record off the reference is
	// unambiguous.
	const n = 50
	for i := 0; i < n; i++ {
		if err := cl.Set(fmt.Sprintf("torn%03d", i), uint64(i)); err != nil {
			t.Fatalf("SET %d: %v", i, err)
		}
	}
	cl.Close()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Tear the tail: chop a few bytes off the newest segment, cutting
	// the last record's frame in half.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments after kill (err=%v)", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s := startServer(t, Config{Engine: "nztm", WALDir: dir, Fsync: "always"})
	rec := s.Recovered()
	if !rec.TornTail {
		t.Fatal("torn tail not detected")
	}
	// Every record but the torn last one survives.
	if got := rec.Keys; got != n-1 {
		t.Fatalf("recovered %d keys, want %d (all but the torn final record)", got, n-1)
	}
	cl2, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for i := 0; i < n-1; i++ {
		k := fmt.Sprintf("torn%03d", i)
		got, found, err := cl2.Get(k)
		if err != nil || !found || got != uint64(i) {
			t.Fatalf("GET %s = (%d,%v,%v), want (%d,true,nil)", k, got, found, err, i)
		}
	}
	if _, found, _ := cl2.Get(fmt.Sprintf("torn%03d", n-1)); found {
		t.Fatal("the torn final record resurfaced after recovery")
	}
}

// TestWALRestartCycle exercises the graceful path end to end in
// process: writes, snapshot, clean Close, restart, more writes,
// restart again — state carries across both.
func TestWALRestartCycle(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{Engine: "nztm", WALDir: dir, Fsync: "never"})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := cl.Set(fmt.Sprintf("cycle%02d", i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	cl.Close()
	s.Close()

	s2 := startServer(t, Config{Engine: "dstm", WALDir: dir, Fsync: "never"}) // engine swap is fine: the log is engine-agnostic
	if s2.Recovered().SnapshotSeq == 0 {
		t.Fatal("second boot ignored the snapshot")
	}
	// The boot recorded where its time went, loaded without a single
	// store transaction, and released recovery's copy of the state.
	if replay, load := s2.RecoveryTimes(); replay <= 0 || load <= 0 {
		t.Fatalf("RecoveryTimes = (%v, %v), want both stages timed", replay, load)
	}
	if st := s2.Store().Stats(); st.Txns != 0 {
		t.Fatalf("loading %d recovered keys ran %d store transactions, want 0", s2.Recovered().Keys, st.Txns)
	}
	if rec := s2.Recovered(); rec.Keys != 20 || rec.State != nil || rec.Base != nil {
		t.Fatalf("Recovered() after load: Keys=%d State=%v Base=%v, want 20 keys and the content released", rec.Keys, rec.State, rec.Base)
	}
	cl2, err := Dial(s2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.Set("cycle99", 99); err != nil {
		t.Fatal(err)
	}
	cl2.Close()
	s2.Close()

	s3 := startServer(t, Config{Engine: "nztm", WALDir: dir})
	cl3, err := Dial(s3.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl3.Close()
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("cycle%02d", i)
		v, found, err := cl3.Get(k)
		if err != nil || !found || v != uint64(i) {
			t.Fatalf("GET %s = (%d,%v,%v) on third boot", k, v, found, err)
		}
	}
	if v, found, _ := cl3.Get("cycle99"); !found || v != 99 {
		t.Fatal("write from the second boot lost")
	}
}
