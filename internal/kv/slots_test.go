package kv_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/locktm"
	"repro/internal/model"
	"repro/internal/nztm"
	"repro/internal/sim"
	"repro/internal/wal"
)

// countingTM counts the t-variables a store allocates, the transactions
// it begins and the reads and writes they issue — the paper's cost model, observed at
// the core.TM seam. Single-goroutine, one transaction at a time: the Tx
// wrapper is reused and passes Recycle through, so the wrapper itself
// adds no allocation to the transactions it counts.
type countingTM struct {
	core.TM
	vars, begins, reads, writes int
	tx                          countingTx
}

func (c *countingTM) NewVar(name string, init uint64) core.Var {
	c.vars++
	return c.TM.NewVar(name, init)
}

func (c *countingTM) Begin(p *sim.Proc) core.Tx {
	c.begins++
	c.tx = countingTx{Tx: c.TM.Begin(p), c: c}
	return &c.tx
}

type countingTx struct {
	core.Tx
	c *countingTM
}

func (t *countingTx) Read(v core.Var) (uint64, error) {
	t.c.reads++
	return t.Tx.Read(v)
}

func (t *countingTx) Write(v core.Var, val uint64) error {
	t.c.writes++
	return t.Tx.Write(v, val)
}

func (t *countingTx) Recycle() {
	if r, ok := t.Tx.(core.TxRecycler); ok {
		r.Recycle()
	}
}

// TestOpCostIndependentOfStoreSize pins the slot layout's point: an
// operation touches only its own key's two t-variables, however many
// keys the store (and the key's shard) holds.
func TestOpCostIndependentOfStoreSize(t *testing.T) {
	for _, size := range []int{1, 4096} {
		tm := &countingTM{TM: nztm.New()}
		s := kv.New(tm, 8, 0)
		se := s.NewSession()
		for i := 0; i < size; i++ {
			if _, err := se.Put(nil, fmt.Sprintf("key%04d", i), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, key := range []string{"key0000", fmt.Sprintf("key%04d", size-1)} {
			tm.reads, tm.writes = 0, 0
			if _, ok, err := se.Get(nil, key); err != nil || !ok {
				t.Fatalf("size %d: get %s = (%v, %v)", size, key, ok, err)
			}
			if tm.reads > 2 || tm.writes != 0 {
				t.Fatalf("size %d: GET %s cost %d reads, %d writes; want <= 2, 0", size, key, tm.reads, tm.writes)
			}
			tm.reads, tm.writes = 0, 0
			if _, err := se.Put(nil, key, 7); err != nil {
				t.Fatal(err)
			}
			if tm.reads > 1 || tm.writes > 2 {
				t.Fatalf("size %d: SET %s cost %d reads, %d writes; want <= 1, <= 2", size, key, tm.reads, tm.writes)
			}
		}
	}
}

// TestChurnCreatesNoVariables pins that deleting and re-putting a key
// reuses its slot: delete/put cycles over a fixed key set allocate no
// t-variable, and a warm Session.Txn of one cycle stays within the
// allocation budget of a plain overwrite.
// txnAllocBudget is what a warm Session.Txn write batch allocates on
// nztm: the engine's one object per write transaction, nothing from the
// store.
const txnAllocBudget = 1

func TestChurnCreatesNoVariables(t *testing.T) {
	const keys, cycles = 64, 100_000
	tm := &countingTM{TM: nztm.New()}
	s := kv.New(tm, 8, 0)
	se := s.NewSession()
	cycle := make([][]kv.Op, keys)
	for i := range cycle {
		h := se.Handle(fmt.Sprintf("key%02d", i))
		cycle[i] = []kv.Op{{Kind: kv.OpDelete, Handle: h}, {Kind: kv.OpPut, Handle: h, Val: uint64(i)}}
		if _, err := se.Txn(nil, cycle[i]); err != nil {
			t.Fatal(err)
		}
	}
	vars := tm.vars
	if vars != 2*keys {
		t.Fatalf("%d keys allocated %d t-variables, want %d", keys, vars, 2*keys)
	}
	i := 0
	allocs := testing.AllocsPerRun(cycles, func() {
		if _, err := se.Txn(nil, cycle[i%keys]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if tm.vars != vars {
		t.Fatalf("%d delete/put cycles allocated %d t-variables, want 0", cycles, tm.vars-vars)
	}
	if n, err := s.Len(nil); err != nil || n != keys {
		t.Fatalf("len after churn = (%d, %v), want %d", n, err, keys)
	}
	if allocs > txnAllocBudget {
		t.Fatalf("Session.Txn delete+put allocates %.2f objects/op, budget %d", allocs, txnAllocBudget)
	}
}

// TestSameShardDisjointKeysNeverConflict is the paper's disjoint-access
// parallelism made executable at the store: on the strictly DAP engine
// (2pl), transactions on distinct keys share no t-variable even when
// every key lives in one shard, so an adversarial schedule produces no
// abort — and the recorded history is still serializable.
func TestSameShardDisjointKeysNeverConflict(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		env := sim.New()
		track := &initTrackTM{TM: locktm.NewTwoPhase(locktm.WithEnv(env)), init: map[model.VarID]uint64{}}
		s := kv.New(core.Recorded(track, env.Recorder()), 1, 0)
		for pi := 0; pi < 4; pi++ {
			own := []string{fmt.Sprintf("p%d.a", pi), fmt.Sprintf("p%d.b", pi)}
			rng := rand.New(rand.NewSource(seed*31 + int64(pi)))
			env.Spawn(func(p *sim.Proc) {
				for k := 0; k < 3; k++ {
					ops := []kv.Op{
						{Kind: kv.OpPut, Key: own[rng.Intn(2)], Val: uint64(rng.Intn(9) + 1)},
						{Kind: kv.OpGet, Key: own[rng.Intn(2)]},
						{Kind: kv.OpDelete, Key: own[rng.Intn(2)]},
					}
					if _, err := s.Txn(p, ops, core.MaxAttempts(40)); err != nil {
						t.Errorf("seed %d: txn: %v", seed, err)
					}
				}
			})
		}
		h := env.Run(sim.Random(seed))
		if err := h.WellFormed(); err != nil {
			t.Fatalf("seed %d: history not well-formed: %v", seed, err)
		}
		if aborts := s.Stats().Aborts(); aborts != 0 {
			t.Fatalf("seed %d: %d aborts between key-disjoint transactions of one shard", seed, aborts)
		}
		if res := checker.CheckSerializable(model.Transactions(h), track.init); !res.OK {
			t.Fatalf("seed %d: history not serializable: %s", seed, res.Reason)
		}
	}
}

// TestDumpsAgreeAndDeleteSurvivesRecovery drives a mixed put / delete /
// re-put history into a WAL-attached store and checks that the three
// whole-store readers agree with a reference map — Dump, the union of
// DumpShard over the shards, and Len — and that recovery through a
// chain snapshot plus a log tail restores deleted keys as absent.
func TestDumpsAgreeAndDeleteSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s := kv.New(nztm.New(), 4, 0)
	s.SetCommitHook(l.Append)
	se := s.NewSession()
	want := map[string]uint64{}
	rng := rand.New(rand.NewSource(5))
	step := func(n int) {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%02d", rng.Intn(48))
			if rng.Intn(3) == 0 {
				if _, err := se.Delete(nil, key); err != nil {
					t.Fatal(err)
				}
				delete(want, key)
			} else {
				v := rng.Uint64()
				if _, err := se.Put(nil, key, v); err != nil {
					t.Fatal(err)
				}
				want[key] = v
			}
		}
	}
	check := func(what string, got map[string]uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s has %d keys, want %d", what, len(got), len(want))
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || gv != v {
				t.Fatalf("%s: %s = (%d, %v), want %d", what, k, gv, ok, v)
			}
		}
	}

	step(600)
	// Mid-history chain cut: keys deleted after it are present in a
	// shard image and must be removed again by the tail replay.
	if err := l.WriteSnapshotInc(s); err != nil {
		t.Fatal(err)
	}
	step(200)
	if _, err := se.Put(nil, "gone", 1); err != nil {
		t.Fatal(err)
	}
	if removed, err := se.Delete(nil, "gone"); err != nil || !removed {
		t.Fatalf("delete gone = (%v, %v), want removed", removed, err)
	}

	all, err := s.Dump(nil)
	if err != nil {
		t.Fatal(err)
	}
	var union []kv.Pair
	for i := 0; i < s.Shards(); i++ {
		ps, err := s.DumpShard(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if sh := s.ShardOf(se.Handle(p.Key)); sh != i {
				t.Fatalf("DumpShard(%d) returned %s of shard %d", i, p.Key, sh)
			}
		}
		union = append(union, ps...)
	}
	check("Dump", pairMap(t, all))
	check("DumpShard union", pairMap(t, union))
	if n, err := s.Len(nil); err != nil || n != len(want) {
		t.Fatalf("Len = (%d, %v), want %d", n, err, len(want))
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Base == nil {
		t.Fatalf("recovery did not use the chain snapshot")
	}
	check("recovered state", rec.Merged())
}

// TestDumpWhileInterning runs the whole-store readers against writers
// that keep interning new keys (growing the slot table and the shards'
// handle lists underneath them); under -race this is the check on the
// grow-then-publish protocol. Every key a dump lists must carry the
// value its single writer put there.
func TestDumpWhileInterning(t *testing.T) {
	const writers, perWriter = 4, 300
	s := kv.New(nztm.New(), 4, 0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			se := s.NewSession()
			for i := 0; i < perWriter; i++ {
				if _, err := se.Put(nil, fmt.Sprintf("w%d.%03d", w, i), uint64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false // one more pass, over the final state
		default:
		}
		total := 0
		for i := 0; i < s.Shards(); i++ {
			ps, err := s.DumpShard(i)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ps {
				var w, n int
				if _, err := fmt.Sscanf(p.Key, "w%d.%d", &w, &n); err != nil || p.Val != uint64(n) {
					t.Fatalf("DumpShard(%d) listed %q = %d", i, p.Key, p.Val)
				}
			}
			total += len(ps)
		}
		if _, err := s.Dump(nil); err != nil {
			t.Fatal(err)
		}
		if n, err := s.Len(nil); err != nil || n < total {
			t.Fatalf("Len = (%d, %v) after shard dumps listed %d keys", n, err, total)
		}
		if !running && total != writers*perWriter {
			t.Fatalf("final shard dumps list %d keys, want %d", total, writers*perWriter)
		}
	}
}

// pairMap indexes a dump by key, failing on a key listed twice.
func pairMap(t *testing.T, pairs []kv.Pair) map[string]uint64 {
	t.Helper()
	m := make(map[string]uint64, len(pairs))
	for _, p := range pairs {
		if _, dup := m[p.Key]; dup {
			t.Fatalf("dump lists %s twice", p.Key)
		}
		m[p.Key] = p.Val
	}
	return m
}
