package repl

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/nztm"
	"repro/internal/wal"
)

func newStore() *kv.Store { return kv.New(nztm.New(), 4, 8) }

func openPrimary(t *testing.T, dir string, opts wal.Options) (*wal.Log, *Primary) {
	t.Helper()
	opts.Dir = dir
	l, _, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("Open primary log: %v", err)
	}
	p := NewPrimary(l)
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go p.Serve()
	return l, p
}

// connectReplica bootstraps a replica of p, loads the returned state
// into a fresh store, and starts the apply loop.
func connectReplica(t *testing.T, p *Primary, dir string) (*Replica, *kv.Store) {
	t.Helper()
	r, rec, err := Connect(ReplicaConfig{
		PrimaryAddr:    p.Addr().String(),
		WAL:            wal.Options{Dir: dir, Policy: wal.SyncNever},
		ConnectTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	store := newStore()
	if err := store.Load(rec.Keys, rec.Each); err != nil {
		t.Fatalf("load recovered state: %v", err)
	}
	r.Start(store)
	return r, store
}

// waitApplied blocks until the replica has applied through seq.
func waitApplied(t *testing.T, r *Replica, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.Stats().LastApplied < seq {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, want %d (connected=%v)",
				r.Stats().LastApplied, seq, r.Stats().Connected)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustGet(t *testing.T, store *kv.Store, key string, want uint64) {
	t.Helper()
	se := store.NewSession()
	res, err := se.Do(nil, kv.Op{Kind: kv.OpGet, Handle: se.Handle(key)})
	if err != nil {
		t.Fatalf("GET %s: %v", key, err)
	}
	if !res.Found || res.Val != want {
		t.Fatalf("GET %s = (found=%v, %d), want %d", key, res.Found, res.Val, want)
	}
}

// TestCatchUpAndLiveStream is the core shipping path: a replica joins
// mid-history, catches up from segment files, then follows live
// appends.
func TestCatchUpAndLiveStream(t *testing.T) {
	l, p := openPrimary(t, t.TempDir(), wal.Options{Policy: wal.SyncNever})
	defer p.Close()
	defer l.Close()

	for i := 0; i < 10; i++ {
		if err := l.Append([]kv.Effect{{Key: key(i), Val: uint64(i)}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}

	r, store := connectReplica(t, p, t.TempDir())
	defer r.Stop()
	waitApplied(t, r, 10)
	for i := 0; i < 10; i++ {
		mustGet(t, store, key(i), uint64(i))
	}

	// Live tail: new primary records arrive without reconnecting.
	for i := 10; i < 20; i++ {
		if err := l.Append([]kv.Effect{{Key: key(i), Val: uint64(i * 2)}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	waitApplied(t, r, 20)
	mustGet(t, store, key(19), 38)

	// The replica's own log holds the exact prefix (same seqs).
	if r.Log().LastSeq() != 20 {
		t.Fatalf("replica log last seq = %d, want 20", r.Log().LastSeq())
	}
	// The primary records a batch as shipped only after its send
	// returns, so the replica can apply it first: poll with
	// waitApplied's deadline.
	deadline := time.Now().Add(10 * time.Second)
	for st := p.Stats(); st.Peers != 1 || st.LastShipped != 20; st = p.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("primary stats = %+v, want 1 peer shipped through 20", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSnapshotBootstrap joins a replica whose cursor precedes the
// primary's truncated history: bootstrap must come from the snapshot.
func TestSnapshotBootstrap(t *testing.T) {
	dir := t.TempDir()
	l, p := openPrimary(t, dir, wal.Options{Policy: wal.SyncNever, SegmentBytes: 128})
	defer p.Close()
	defer l.Close()

	state := map[string]uint64{}
	for i := 0; i < 12; i++ {
		state[key(i)] = uint64(i + 100)
		if err := l.Append([]kv.Effect{{Key: key(i), Val: uint64(i + 100)}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.WriteSnapshot(func() ([]kv.Pair, error) {
		var ps []kv.Pair
		for k, v := range state {
			ps = append(ps, kv.Pair{Key: k, Val: v})
		}
		return ps, nil
	}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	r, store := connectReplica(t, p, t.TempDir())
	defer r.Stop()
	waitApplied(t, r, 12)
	for i := 0; i < 12; i++ {
		mustGet(t, store, key(i), uint64(i+100))
	}
	// The snapshot cut became the replica's log base; the stream
	// continues past it.
	if err := l.Append([]kv.Effect{{Key: "after", Val: 7}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	waitApplied(t, r, 13)
	mustGet(t, store, "after", 7)
}

// TestReplicaPersistsAndResumes stops a replica, advances the primary,
// and reconnects a new replica over the same directory: it must resume
// from its own recovered log, not refetch everything.
func TestReplicaPersistsAndResumes(t *testing.T) {
	l, p := openPrimary(t, t.TempDir(), wal.Options{Policy: wal.SyncNever})
	defer p.Close()
	defer l.Close()
	rdir := t.TempDir()

	for i := 0; i < 5; i++ {
		if err := l.Append([]kv.Effect{{Key: key(i), Val: 1}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	r, _ := connectReplica(t, p, rdir)
	waitApplied(t, r, 5)
	r.Stop()
	if err := r.Log().Close(); err != nil {
		t.Fatalf("close replica log: %v", err)
	}

	for i := 5; i < 9; i++ {
		if err := l.Append([]kv.Effect{{Key: key(i), Val: 2}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}

	r2, rec, err := Connect(ReplicaConfig{
		PrimaryAddr:    p.Addr().String(),
		WAL:            wal.Options{Dir: rdir, Policy: wal.SyncNever},
		ConnectTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if rec.LastSeq != 5 {
		t.Fatalf("recovered last seq = %d, want 5 (local log)", rec.LastSeq)
	}
	store := newStore()
	if err := store.Load(rec.Keys, rec.Each); err != nil {
		t.Fatalf("load: %v", err)
	}
	r2.Start(store)
	defer r2.Stop()
	waitApplied(t, r2, 9)
	mustGet(t, store, key(8), 2)
}

// TestPrimaryRefusesDivergedFollower pins the divergence guard: a
// follower ahead of the primary's log is refused, not healed.
func TestPrimaryRefusesDivergedFollower(t *testing.T) {
	l, p := openPrimary(t, t.TempDir(), wal.Options{Policy: wal.SyncNever})
	defer p.Close()
	defer l.Close()
	if err := l.Append([]kv.Effect{{Key: "a", Val: 1}}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	// A replica whose own log is longer than the primary's (e.g. an old
	// promoted primary rejoining).
	rdir := t.TempDir()
	rl, _, err := wal.Open(wal.Options{Dir: rdir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := rl.Append([]kv.Effect{{Key: "b", Val: uint64(i)}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := rl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, _, err = Connect(ReplicaConfig{
		PrimaryAddr:    p.Addr().String(),
		WAL:            wal.Options{Dir: rdir, Policy: wal.SyncNever},
		ConnectTimeout: 5 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "refus") {
		t.Fatalf("diverged Connect = %v, want refusal", err)
	}
}

// TestReplicaReconnects kills the stream (primary restart on the same
// address is simulated by closing just the peer connection via a full
// primary Close and a new Primary over the same log) and checks the
// replica resumes from its own cursor.
func TestReplicaReconnects(t *testing.T) {
	dir := t.TempDir()
	l, p := openPrimary(t, dir, wal.Options{Policy: wal.SyncNever})
	defer l.Close()

	if err := l.Append([]kv.Effect{{Key: "a", Val: 1}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	r, store := connectReplica(t, p, t.TempDir())
	defer r.Stop()
	waitApplied(t, r, 1)

	addr := p.Addr().String()
	p.Close() // drops the follower mid-stream

	// Rebind the replication listener on the same address, same log.
	p2 := NewPrimary(l)
	if err := p2.Listen(addr); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	go p2.Serve()
	defer p2.Close()

	if err := l.Append([]kv.Effect{{Key: "b", Val: 2}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	waitApplied(t, r, 2)
	mustGet(t, store, "b", 2)
}

// TestStopIsCleanAndIdempotent pins promote's half: after Stop, the
// replica's log is quiescent, contiguous, and appendable (the promoted
// node keeps writing where the stream left off).
func TestStopIsCleanAndIdempotent(t *testing.T) {
	l, p := openPrimary(t, t.TempDir(), wal.Options{Policy: wal.SyncNever})
	defer p.Close()
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := l.Append([]kv.Effect{{Key: key(i), Val: 9}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	r, _ := connectReplica(t, p, t.TempDir())
	waitApplied(t, r, 3)
	r.Stop()
	r.Stop() // idempotent

	rl := r.Log()
	if rl.LastSeq() != 3 {
		t.Fatalf("sealed log last seq = %d, want 3", rl.LastSeq())
	}
	// The promoted log accepts fresh writes at seq 4.
	if err := rl.Append([]kv.Effect{{Key: "post", Val: 1}}); err != nil {
		t.Fatalf("post-promote Append: %v", err)
	}
	if rl.LastSeq() != 4 {
		t.Fatalf("post-promote last seq = %d, want 4", rl.LastSeq())
	}
	if err := rl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestChainedReplication pins that shipping works off any advancing
// log: a replica's own Primary serves its ingested stream to a
// second-tier replica.
func TestChainedReplication(t *testing.T) {
	l, p := openPrimary(t, t.TempDir(), wal.Options{Policy: wal.SyncNever})
	defer p.Close()
	defer l.Close()

	r1, _ := connectReplica(t, p, t.TempDir())
	defer r1.Stop()

	// Serve r1's log to a downstream follower.
	p2 := NewPrimary(r1.Log())
	if err := p2.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen mid-tier: %v", err)
	}
	go p2.Serve()
	defer p2.Close()
	r2, store2 := connectReplica(t, p2, t.TempDir())
	defer r2.Stop()

	for i := 0; i < 8; i++ {
		if err := l.Append([]kv.Effect{{Key: key(i), Val: uint64(i + 1)}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	waitApplied(t, r2, 8)
	for i := 0; i < 8; i++ {
		mustGet(t, store2, key(i), uint64(i+1))
	}
}

// TestConnectTimeout pins the bootstrap failure mode: no primary.
func TestConnectTimeout(t *testing.T) {
	_, _, err := Connect(ReplicaConfig{
		PrimaryAddr:    "127.0.0.1:1", // nothing listens here
		WAL:            wal.Options{Dir: t.TempDir(), Policy: wal.SyncNever},
		ConnectTimeout: 200 * time.Millisecond,
	})
	if err == nil {
		t.Fatalf("Connect to dead address succeeded")
	}
	if errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Connect leaked a closed-log error: %v", err)
	}
}

func key(i int) string {
	return "key" + string([]byte{byte('0' + i/10), byte('0' + i%10)})
}
