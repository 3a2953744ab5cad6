package server

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// startReplicaPair boots an in-process primary (with a replication
// listener) and one replica following it, both over their own WAL dirs.
func startReplicaPair(t *testing.T, runtime string) (*Server, *Server) {
	t.Helper()
	prim := startServer(t, Config{
		Engine: "nztm", Runtime: runtime,
		WALDir: t.TempDir(), Fsync: "never",
		ReplicateAddr: "127.0.0.1:0",
	})
	repl := startServer(t, Config{
		Engine: "nztm", Runtime: runtime,
		WALDir:    t.TempDir(),
		ReplicaOf: prim.ReplAddr().String(),
	})
	return prim, repl
}

// waitReplApplied polls the replica until it has applied through seq.
func waitReplApplied(t *testing.T, repl *Server, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for repl.ReplStats().LastApplied < seq {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at applied seq %d, want %d", repl.ReplStats().LastApplied, seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaFollowerReads pins the tentpole end to end in process, on
// both runtimes: writes at the primary become visible to reads at the
// replica; the replica refuses writes with the readonly error; STATS
// REPL renders on both roles; PROMOTE flips the replica to a primary
// that accepts writes.
func TestReplicaFollowerReads(t *testing.T) {
	for _, rt := range []string{"goroutine", "worker"} {
		t.Run(rt, func(t *testing.T) {
			prim, repl := startReplicaPair(t, rt)

			pc, err := Dial(prim.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer pc.Close()
			for i := 0; i < 20; i++ {
				if err := pc.Set(fmt.Sprintf("k%02d", i), uint64(i)); err != nil {
					t.Fatalf("primary SET: %v", err)
				}
			}
			waitReplApplied(t, repl, prim.WAL().LastSeq())

			rc, err := Dial(repl.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()

			// Follower reads: every primary write is visible.
			for i := 0; i < 20; i++ {
				v, found, err := rc.Get(fmt.Sprintf("k%02d", i))
				if err != nil || !found || v != uint64(i) {
					t.Fatalf("replica GET k%02d = (%d,%v,%v), want %d", i, v, found, err, i)
				}
			}
			if resp, _ := rc.Do("LEN"); resp[0] != "LEN 20" {
				t.Fatalf("replica LEN = %q, want LEN 20", resp[0])
			}

			// Write gating: every write verb answers the readonly error;
			// reads inside MULTI still work.
			for _, req := range []string{"SET x 1", "DEL k00", "CAS k00 0 9"} {
				resp, err := rc.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(resp[0], "ERR readonly") {
					t.Fatalf("replica %q = %q, want ERR readonly", req, resp[0])
				}
			}
			resp, err := rc.Do("MULTI", "GET k00", "SET k00 5", "EXEC")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(resp[3], "ERR readonly") {
				t.Fatalf("replica EXEC-with-write = %q, want ERR readonly", resp[3])
			}
			resp, err = rc.Do("MULTI", "GET k00", "GET k01", "EXEC")
			if err != nil {
				t.Fatal(err)
			}
			if want := "RESULTS 2; VALUE 0; VALUE 1"; resp[3] != want {
				t.Fatalf("replica read-only EXEC = %q, want %q", resp[3], want)
			}

			// STATS REPL on both roles.
			resp, err = pc.Do("STATS REPL")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(resp[0], "REPL role=primary peers=1 ") {
				t.Fatalf("primary STATS REPL = %q", resp[0])
			}
			resp, err = rc.Do("STATS REPL")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(resp[0], "REPL role=replica ") || !strings.Contains(resp[0], " lag=0") {
				t.Fatalf("replica STATS REPL = %q", resp[0])
			}

			// PROMOTE on a primary is refused; on the replica it answers
			// PROMOTED <seq> and writes start working.
			resp, err = pc.Do("PROMOTE")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(resp[0], "ERR") {
				t.Fatalf("primary PROMOTE = %q, want ERR", resp[0])
			}
			resp, err = rc.Do("PROMOTE")
			if err != nil {
				t.Fatal(err)
			}
			seal, ok := strings.CutPrefix(resp[0], "PROMOTED ")
			if !ok {
				t.Fatalf("replica PROMOTE = %q, want PROMOTED <seq>", resp[0])
			}
			if sealSeq, err := strconv.ParseUint(seal, 10, 64); err != nil || sealSeq != prim.WAL().LastSeq() {
				t.Fatalf("PROMOTED seq = %q, want %d", seal, prim.WAL().LastSeq())
			}
			if err := rc.Set("post-promote", 42); err != nil {
				t.Fatalf("SET after promote: %v", err)
			}
			if v, found, _ := rc.Get("post-promote"); !found || v != 42 {
				t.Fatalf("GET post-promote = (%d,%v)", v, found)
			}
			resp, err = rc.Do("STATS REPL")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(resp[0], "REPL role=primary ") {
				t.Fatalf("post-promote STATS REPL = %q", resp[0])
			}
			// Idempotence guard: a second PROMOTE is an error.
			resp, _ = rc.Do("PROMOTE")
			if !strings.HasPrefix(resp[0], "ERR") {
				t.Fatalf("second PROMOTE = %q, want ERR", resp[0])
			}
		})
	}
}

// TestReplPrimaryHelperProcess is the primary subprocess of the
// kill-primary tests: a real server with fsync=always and a replication
// listener, killed by the parent with SIGKILL.
func TestReplPrimaryHelperProcess(t *testing.T) {
	if os.Getenv("OFTM_REPL_HELPER") != "1" {
		t.Skip("helper process for TestKillPrimaryPromoteReplica")
	}
	dir := os.Getenv("OFTM_WAL_DIR")
	cfg := Config{Addr: "127.0.0.1:0", Engine: "nztm", WALDir: dir, Fsync: "always",
		ReplicateAddr: "127.0.0.1:0"}
	// The incremental-bootstrap test runs the helper with aggressive
	// snapshot cuts and small segments so its history truncates quickly.
	if v := os.Getenv("OFTM_SNAP_EVERY"); v != "" {
		cfg.SnapshotEvery, _ = time.ParseDuration(v)
	}
	if v := os.Getenv("OFTM_SEG_BYTES"); v != "" {
		n, _ := strconv.ParseInt(v, 10, 64)
		cfg.WALSegmentBytes = n
	}
	s, err := New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repl helper: %v\n", err)
		os.Exit(3)
	}
	if err := s.Listen(); err != nil {
		fmt.Fprintf(os.Stderr, "repl helper: %v\n", err)
		os.Exit(3)
	}
	addrFile := filepath.Join(dir, "helper.addr")
	body := s.Addr().String() + "\n" + s.ReplAddr().String()
	if err := os.WriteFile(addrFile+".tmp", []byte(body), 0o644); err != nil {
		os.Exit(3)
	}
	os.Rename(addrFile+".tmp", addrFile)
	s.Serve() // runs until SIGKILL
}

// spawnReplPrimary starts the primary helper subprocess and returns it
// with its client and replication addresses.
func spawnReplPrimary(t *testing.T, dir string, extraEnv ...string) (*exec.Cmd, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestReplPrimaryHelperProcess$")
	cmd.Env = append(os.Environ(), "OFTM_REPL_HELPER=1", "OFTM_WAL_DIR="+dir)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting repl helper: %v", err)
	}
	addrFile := filepath.Join(dir, "helper.addr")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			parts := strings.Split(strings.TrimSpace(string(b)), "\n")
			if len(parts) == 2 {
				os.Remove(addrFile)
				return cmd, parts[0], parts[1]
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("repl helper never published its addresses")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestKillPrimaryPromoteReplica is the failover scenario from the
// acceptance criteria: a subprocess primary takes acknowledged
// fsync=always writes, the replica catches up, the primary is
// SIGKILLed, the replica is promoted via the PROMOTE verb — and every
// write acknowledged before the kill is served by the promoted node,
// whose log is a contiguous prefix (the PROMOTED seq equals the shipped
// history; no structural hole is accepted on the way).
func TestKillPrimaryPromoteReplica(t *testing.T) {
	pdir := t.TempDir()
	cmd, addr, replAddr := spawnReplPrimary(t, pdir)
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	repl := startServer(t, Config{Engine: "nztm", WALDir: t.TempDir(), ReplicaOf: replAddr})

	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	ref := driveLoad(t, cl, 300)

	// Catch-up barrier: first ask the primary how far its durable log
	// goes (with one peer, min shipped == last shipped; lag=0 means all
	// of it has been shipped), then wait for the replica to apply it.
	var shipped uint64
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := cl.Do("STATS REPL")
		if err != nil {
			t.Fatalf("primary STATS REPL: %v", err)
		}
		var lag uint64 = 1
		for _, f := range strings.Fields(resp[0]) {
			if rest, ok := strings.CutPrefix(f, "last_shipped="); ok {
				shipped, _ = strconv.ParseUint(rest, 10, 64)
			}
			if rest, ok := strings.CutPrefix(f, "lag="); ok {
				lag, _ = strconv.ParseUint(rest, 10, 64)
			}
		}
		if lag == 0 && shipped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never drained its shipping lag: %q", resp[0])
		}
		time.Sleep(time.Millisecond)
	}
	cl.Close()
	waitReplApplied(t, repl, shipped)

	// Hard stop the primary: SIGKILL, no flush, no goodbye.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill primary: %v", err)
	}
	cmd.Wait()
	killed = true

	// Promote over the wire and verify every acknowledged write.
	rc, err := Dial(repl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	resp, err := rc.Do("PROMOTE")
	if err != nil {
		t.Fatal(err)
	}
	seal, ok := strings.CutPrefix(resp[0], "PROMOTED ")
	if !ok {
		t.Fatalf("PROMOTE = %q", resp[0])
	}
	if sealSeq, err := strconv.ParseUint(seal, 10, 64); err != nil || sealSeq != shipped {
		t.Fatalf("PROMOTED seq = %q, want the caught-up history %d", seal, shipped)
	}
	for k, want := range ref {
		got, found, err := rc.Get(k)
		if err != nil || !found || got != want {
			t.Fatalf("promoted GET %s = (%d,%v,%v), want (%d,true,nil)", k, got, found, err, want)
		}
	}
	if resp, _ := rc.Do("LEN"); resp[0] != fmt.Sprintf("LEN %d", len(ref)) {
		t.Fatalf("promoted LEN = %q, want %d keys", resp[0], len(ref))
	}
	// The promoted node is a writable primary with a sealed, contiguous
	// log: new writes append right after the shipped prefix.
	if err := rc.Set("after-failover", 1); err != nil {
		t.Fatalf("SET after failover: %v", err)
	}
	if got := repl.WAL().LastSeq(); got != shipped+1 {
		t.Fatalf("post-failover log seq = %d, want %d (no hole, no gap)", got, shipped+1)
	}
}

// TestReplicaBootstrapIncremental is the failover scenario with
// incremental snapshots on both nodes: the subprocess primary cuts
// chain snapshots aggressively over small segments, so by the time the
// replica connects the history its cursor needs is truncated and the
// bootstrap must ship a manifest chain (as a bundle). The replica
// installs it, follows live records, survives the primary's SIGKILL,
// and serves every acknowledged write after PROMOTE.
func TestReplicaBootstrapIncremental(t *testing.T) {
	pdir := t.TempDir()
	cmd, addr, replAddr := spawnReplPrimary(t, pdir,
		"OFTM_SNAP_EVERY=25ms", "OFTM_SEG_BYTES=2048")
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	ref := driveLoad(t, cl, 300)

	// Wait until a chain exists and the snapshot's truncation dropped
	// the first segment: a replica starting at cursor 1 then cannot
	// catch up from files and must bootstrap from the chain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ents, err := os.ReadDir(pdir)
		if err != nil {
			t.Fatalf("ReadDir(%s): %v", pdir, err)
		}
		haveManifest, haveFirstSeg := false, false
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".mf") {
				haveManifest = true
			}
			if e.Name() == "wal-00000001.seg" {
				haveFirstSeg = true
			}
		}
		if haveManifest && !haveFirstSeg {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never cut+truncated a chain snapshot (manifest=%v firstSeg=%v)", haveManifest, haveFirstSeg)
		}
		time.Sleep(5 * time.Millisecond)
	}

	rdir := t.TempDir()
	repl := startServer(t, Config{Engine: "nztm", WALDir: rdir, ReplicaOf: replAddr,
		SnapshotEvery: 25 * time.Millisecond})

	// The bootstrap installed a chain, not a legacy image: the replica's
	// own log dir holds a manifest plus shard images.
	ents, err := os.ReadDir(rdir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", rdir, err)
	}
	manifests, images := 0, 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".mf") {
			manifests++
		}
		if strings.HasSuffix(e.Name(), ".shard") {
			images++
		}
	}
	if manifests != 1 || images == 0 {
		t.Fatalf("replica dir after bootstrap: %d manifests, %d shard images — want a chain", manifests, images)
	}

	// More acknowledged writes after the bootstrap, streamed live.
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("post%03d", i)
		if err := cl.Set(k, uint64(i)); err != nil {
			t.Fatalf("primary SET %s: %v", k, err)
		}
		ref[k] = uint64(i)
	}

	var shipped uint64
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := cl.Do("STATS REPL")
		if err != nil {
			t.Fatalf("primary STATS REPL: %v", err)
		}
		var lag uint64 = 1
		for _, f := range strings.Fields(resp[0]) {
			if rest, ok := strings.CutPrefix(f, "last_shipped="); ok {
				shipped, _ = strconv.ParseUint(rest, 10, 64)
			}
			if rest, ok := strings.CutPrefix(f, "lag="); ok {
				lag, _ = strconv.ParseUint(rest, 10, 64)
			}
		}
		if lag == 0 && shipped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never drained its shipping lag: %q", resp[0])
		}
		time.Sleep(time.Millisecond)
	}
	cl.Close()
	waitReplApplied(t, repl, shipped)

	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill primary: %v", err)
	}
	cmd.Wait()
	killed = true

	rc, err := Dial(repl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	resp, err := rc.Do("PROMOTE")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp[0], "PROMOTED ") {
		t.Fatalf("PROMOTE = %q", resp[0])
	}
	for k, want := range ref {
		got, found, err := rc.Get(k)
		if err != nil || !found || got != want {
			t.Fatalf("promoted GET %s = (%d,%v,%v), want (%d,true,nil)", k, got, found, err, want)
		}
	}
	if resp, _ := rc.Do("LEN"); resp[0] != fmt.Sprintf("LEN %d", len(ref)) {
		t.Fatalf("promoted LEN = %q, want %d keys", resp[0], len(ref))
	}
	if err := rc.Set("after-failover", 1); err != nil {
		t.Fatalf("SET after failover: %v", err)
	}
}

// TestReplicaRebootstrapAfterRotationCut is the bundle bootstrap with
// no snapshot timer on either node: while the replica is down, the
// primary's rotation-triggered cuts truncate its history past the
// replica's cursor, so the restarted replica must bootstrap from the
// shipped chain bundle, then follow live writes and converge.
func TestReplicaRebootstrapAfterRotationCut(t *testing.T) {
	prim := startServer(t, Config{Engine: "nztm", WALDir: t.TempDir(), Fsync: "never",
		ReplicateAddr: "127.0.0.1:0", WALSegmentBytes: 4096})
	rdir := t.TempDir()
	rcfg := Config{Engine: "nztm", WALDir: rdir, ReplicaOf: prim.ReplAddr().String()}
	repl := startServer(t, rcfg)

	cl, err := Dial(prim.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := driveLoad(t, cl, 100)
	waitReplApplied(t, repl, prim.WAL().LastSeq())
	cursor := repl.WAL().LastSeq()
	if err := repl.Close(); err != nil {
		t.Fatalf("close replica: %v", err)
	}

	// History the replica misses, over many 4 KiB segments.
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("down%03d", i)
		if err := cl.Set(k, uint64(i)); err != nil {
			t.Fatalf("SET %s: %v", k, err)
		}
		ref[k] = uint64(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for prim.WAL().OldestRetainedSeq() <= cursor+1 {
		if time.Now().After(deadline) {
			t.Fatalf("primary never truncated past the replica's cursor %d (oldest retained %d, %+v)",
				cursor, prim.WAL().OldestRetainedSeq(), prim.WAL().Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := prim.WAL().Stats(); st.Cuts == 0 {
		t.Fatalf("primary truncated without a cut: %+v", st)
	}

	repl = startServer(t, rcfg)
	if got := repl.Recovered().SnapshotSeq; got <= cursor {
		t.Fatalf("replica restarted at snapshot cut %d, want a bootstrap past its cursor %d", got, cursor)
	}
	ents, err := os.ReadDir(rdir)
	if err != nil {
		t.Fatal(err)
	}
	manifests, images := 0, 0
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".mf"):
			manifests++
		case strings.HasSuffix(e.Name(), ".shard"):
			images++
		case strings.HasSuffix(e.Name(), ".snap"):
			t.Fatalf("replica installed a full image %s, want a chain bundle", e.Name())
		}
	}
	if manifests != 1 || images == 0 {
		t.Fatalf("replica dir after bootstrap: %d manifests, %d shard images — want a chain", manifests, images)
	}

	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("post%03d", i)
		if err := cl.Set(k, uint64(i)); err != nil {
			t.Fatalf("SET %s: %v", k, err)
		}
		ref[k] = uint64(i)
	}
	waitReplApplied(t, repl, prim.WAL().LastSeq())
	rc, err := Dial(repl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for k, want := range ref {
		got, found, err := rc.Get(k)
		if err != nil || !found || got != want {
			t.Fatalf("replica GET %s = (%d,%v,%v), want (%d,true,nil)", k, got, found, err, want)
		}
	}
	if resp, _ := rc.Do("LEN"); resp[0] != fmt.Sprintf("LEN %d", len(ref)) {
		t.Fatalf("replica LEN = %q, want %d keys", resp[0], len(ref))
	}
}
