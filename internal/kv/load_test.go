package kv_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/dstm"
	"repro/internal/kv"
	"repro/internal/model"
	"repro/internal/nztm"
	"repro/internal/sim"
)

// pairStream adapts a pair list to the iterator shape Store.Load takes
// (the shape of wal.Recovered.Each).
func pairStream(pairs []kv.Pair) func(func(string, uint64) error) error {
	return func(fn func(string, uint64) error) error {
		for _, p := range pairs {
			if err := fn(p.Key, p.Val); err != nil {
				return err
			}
		}
		return nil
	}
}

func loadPairs(n int) []kv.Pair {
	pairs := make([]kv.Pair, n)
	for i := range pairs {
		pairs[i] = kv.Pair{Key: fmt.Sprintf("key%05d", i), Val: uint64(i)*3 + 1}
	}
	return pairs
}

// TestLoadCreatesWithoutTransactions pins Load's cost model at the
// core.TM seam: N new keys are 2N t-variables created with their
// values, and not one transaction.
func TestLoadCreatesWithoutTransactions(t *testing.T) {
	const n = 5000
	tm := &countingTM{TM: nztm.New()}
	s := kv.New(tm, 8, 0)
	if err := s.Load(n, pairStream(loadPairs(n))); err != nil {
		t.Fatal(err)
	}
	if tm.begins != 0 || tm.vars != 2*n {
		t.Fatalf("Load of %d keys began %d transactions and created %d t-variables, want 0 and %d", n, tm.begins, tm.vars, 2*n)
	}
	if st := s.Stats(); st.Txns != 0 || st.Ops() != 0 {
		t.Fatalf("Load moved the store's counters: %+v", st)
	}
	// A wrong (or absent) size hint costs speed, never correctness.
	for _, hint := range []int{0, 7, 10 * n} {
		s := kv.New(nztm.New(), 8, 0)
		if err := s.Load(hint, pairStream(loadPairs(n))); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Len(nil); err != nil || got != n {
			t.Fatalf("hint %d: Len = (%d, %v), want %d", hint, got, err, n)
		}
	}
}

// TestLoadEqualsPutLoop checks on every engine that a Loaded store is
// indistinguishable from one filled by Put: same Dump (handle order
// included), same Len, same per-shard dumps.
func TestLoadEqualsPutLoop(t *testing.T) {
	pairs := loadPairs(700)
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			loaded, put := kv.New(mk(), 8, 0), kv.New(mk(), 8, 0)
			if err := loaded.Load(len(pairs), pairStream(pairs)); err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				if _, err := put.Put(nil, p.Key, p.Val); err != nil {
					t.Fatal(err)
				}
			}
			ld, err1 := loaded.Dump(nil)
			pd, err2 := put.Dump(nil)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(ld, pd) || !reflect.DeepEqual(ld, pairs) {
				t.Fatalf("Dump differs: loaded %d pairs (%v), put-loaded %d pairs (%v)", len(ld), err1, len(pd), err2)
			}
			ln, err1 := loaded.Len(nil)
			pn, err2 := put.Len(nil)
			if err1 != nil || err2 != nil || ln != pn || ln != len(pairs) {
				t.Fatalf("Len = (%d, %v) loaded vs (%d, %v) put-loaded", ln, err1, pn, err2)
			}
			for i := 0; i < loaded.Shards(); i++ {
				ls, err1 := loaded.DumpShard(i)
				ps, err2 := put.DumpShard(i)
				if err1 != nil || err2 != nil || !reflect.DeepEqual(ls, ps) {
					t.Fatalf("DumpShard(%d) differs: %d pairs (%v) vs %d pairs (%v)", i, len(ls), err1, len(ps), err2)
				}
			}
			// The loaded store serves like any other.
			if v, ok, err := loaded.Get(nil, pairs[3].Key); err != nil || !ok || v != pairs[3].Val {
				t.Fatalf("Get = (%d, %v, %v), want %d", v, ok, err, pairs[3].Val)
			}
			if removed, err := loaded.Delete(nil, pairs[3].Key); err != nil || !removed {
				t.Fatalf("Delete = (%v, %v)", removed, err)
			}
			if swapped, existed, err := loaded.CAS(nil, pairs[4].Key, pairs[4].Val, 99); err != nil || !swapped || !existed {
				t.Fatalf("CAS = (%v, %v, %v)", swapped, existed, err)
			}
		})
	}
}

// TestLoadDuplicateAndInternedKeys covers the keys Load cannot create:
// one repeated in the stream ends with its later value, and one the
// store already knows is overwritten, both reusing their slot.
func TestLoadDuplicateAndInternedKeys(t *testing.T) {
	tm := &countingTM{TM: nztm.New()}
	s := kv.New(tm, 4, 0)
	if _, err := s.Put(nil, "old", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(nil, "gone", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(nil, "gone"); err != nil {
		t.Fatal(err)
	}
	vars := tm.vars
	stream := []kv.Pair{{Key: "a", Val: 1}, {Key: "old", Val: 2}, {Key: "a", Val: 3}, {Key: "b", Val: 4}, {Key: "a", Val: 5}, {Key: "gone", Val: 6}}
	if err := s.Load(len(stream), pairStream(stream)); err != nil {
		t.Fatal(err)
	}
	if tm.vars != vars+4 {
		t.Fatalf("Load created %d t-variables for 2 new keys, want 4", tm.vars-vars)
	}
	got, err := s.Dump(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"old": 2, "a": 5, "b": 4, "gone": 6}
	if !reflect.DeepEqual(pairMap(t, got), want) {
		t.Fatalf("after Load: %v, want %v", got, want)
	}
	// An error from the stream stops the load and leaves what was
	// created before it readable.
	boom := errors.New("boom")
	err = s.Load(2, func(fn func(string, uint64) error) error {
		if err := fn("c", 7); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Load = %v, want the stream's error", err)
	}
	if v, ok, err := s.Get(nil, "c"); err != nil || !ok || v != 7 {
		t.Fatalf("Get(c) after a failed stream = (%d, %v, %v), want 7", v, ok, err)
	}
}

// TestLoadThenHookLogsNothing is the recovery sequence: Load, then the
// commit hook, then traffic. The loaded keys must not reach the hook,
// and the first SET on one must reuse its slot.
func TestLoadThenHookLogsNothing(t *testing.T) {
	const n = 64
	tm := &countingTM{TM: nztm.New()}
	s := kv.New(tm, 8, 0)
	pairs := loadPairs(n)
	if err := s.Load(n, pairStream(pairs)); err != nil {
		t.Fatal(err)
	}
	var logged []kv.Effect
	s.SetCommitHook(func(eff []kv.Effect) error {
		logged = append(logged, eff...)
		return nil
	})
	se := s.NewSession()
	for _, p := range pairs {
		if v, ok, err := se.Get(nil, p.Key); err != nil || !ok || v != p.Val {
			t.Fatalf("Get(%s) = (%d, %v, %v), want %d", p.Key, v, ok, err, p.Val)
		}
	}
	if len(logged) != 0 {
		t.Fatalf("loaded keys reached the commit hook: %v", logged)
	}
	vars := tm.vars
	if created, err := se.Put(nil, pairs[9].Key, 1234); err != nil || created {
		t.Fatalf("SET on a loaded key = (created %v, %v), want an overwrite", created, err)
	}
	if tm.vars != vars {
		t.Fatalf("first SET on a loaded key created %d t-variables, want 0", tm.vars-vars)
	}
	if want := []kv.Effect{{Key: pairs[9].Key, Val: 1234}}; !reflect.DeepEqual(logged, want) {
		t.Fatalf("hook saw %v, want %v", logged, want)
	}
}

// TestLoadSimMode loads a sim-mode store — Load takes no scheduler
// step, so it needs no process — and then runs simulated processes
// over the loaded keys; the recorded history must be serializable
// from the loaded values as the variables' initial values.
func TestLoadSimMode(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for seed := int64(0); seed < 8; seed++ {
		env := sim.New()
		track := &initTrackTM{TM: dstm.New(dstm.WithEnv(env)), init: map[model.VarID]uint64{}}
		s := kv.New(core.Recorded(track, env.Recorder()), 4, 0)
		var pairs []kv.Pair
		for i, k := range keys[:4] {
			pairs = append(pairs, kv.Pair{Key: k, Val: uint64(10 + i)})
		}
		if err := s.Load(len(pairs), pairStream(pairs)); err != nil {
			t.Fatal(err)
		}
		for pi := 0; pi < 3; pi++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(pi)))
			env.Spawn(func(p *sim.Proc) {
				for k := 0; k < 2; k++ {
					ops := []kv.Op{
						{Kind: kv.OpGet, Key: keys[rng.Intn(len(keys))]},
						{Kind: kv.OpPut, Key: keys[rng.Intn(len(keys))], Val: uint64(rng.Intn(9) + 1)},
						{Kind: kv.OpDelete, Key: keys[rng.Intn(len(keys))]},
					}
					_, _ = s.Txn(p, ops, core.MaxAttempts(40))
				}
			})
		}
		h := env.Run(sim.Random(seed))
		if err := h.WellFormed(); err != nil {
			t.Fatalf("seed %d: history not well-formed: %v", seed, err)
		}
		if res := checker.CheckSerializable(model.Transactions(h), track.init); !res.OK {
			t.Fatalf("seed %d: history over a loaded store not serializable: %s", seed, res.Reason)
		}
	}
}
