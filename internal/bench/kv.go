package bench

// The kv-* workloads: closed-loop load against the sharded
// transactional store (internal/kv), the serving-stack counterpart of
// the var-array microbenchmarks. The store keeps one slot of
// t-variables per key, so an operation's cost does not depend on the
// shard count; the E9 sweep over shards measures what sharding does
// cost or buy (commit-order locks, plan routing), which without a
// commit hook and on one core is close to nothing.

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/kv"
)

const (
	// kvKeys is the workload key space (pre-populated at setup).
	kvKeys = 1024
)

// kvSetup builds and pre-populates a store on tm.
func kvSetup(tm core.TM, shards int) (*kv.Store, []string) {
	s := kv.New(tm, shards, 0)
	keys := make([]string, kvKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
		if _, err := s.Put(nil, keys[i], uint64(i)); err != nil {
			panic(fmt.Sprintf("bench: kv setup: %v", err))
		}
	}
	return s, keys
}

// kvSlot is one measured thread's serving state: a kv.Session (handle
// cache + plan scratch) plus reusable op and key buffers — the bench
// counterpart of the server's per-connection session, so the kv-*
// workloads measure the same allocation-free steady state the wire
// path runs on.
type kvSlot struct {
	se   *kv.Session
	ops  []kv.Op
	keys []string
	zipf *rand.Zipf
}

// kvSlots returns a thread-indexed slot accessor. Slots are
// thread-private (threadID-indexed, like the Zipf generators), so no
// locking is needed; out-of-range thread IDs get throwaway slots.
func kvSlots(s *kv.Store) func(t int) *kvSlot {
	slots := make([]*kvSlot, 64)
	return func(t int) *kvSlot {
		if t >= len(slots) {
			return &kvSlot{se: s.NewSession()}
		}
		if slots[t] == nil {
			slots[t] = &kvSlot{se: s.NewSession()}
		}
		return slots[t]
	}
}

// KVUniform is the uniform-key mix: 75% GET / 25% PUT over the whole
// key space, sharded S ways.
func KVUniform(shards int) Workload {
	return Workload{
		Name: fmt.Sprintf("kv-uniform-s%d", shards),
		Setup: func(tm core.TM) func(int, int, *rand.Rand) error {
			s, keys := kvSetup(tm, shards)
			slots := kvSlots(s)
			return func(t, _ int, rng *rand.Rand) error {
				se := slots(t).se
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(100) < 75 {
					_, _, err := se.Get(nil, k)
					return err
				}
				_, err := se.Put(nil, k, uint64(rng.Intn(1000)))
				return err
			}
		},
	}
}

// KVZipfian is the hot-key mix: keys drawn from a Zipf distribution
// (s=1.2), same 75/25 read/write split — the skewed traffic shape real
// caches see, where sharding helps less because the hot keys
// concentrate on few shards.
func KVZipfian(shards int) Workload {
	return Workload{
		Name: fmt.Sprintf("kv-zipf-s%d", shards),
		Setup: func(tm core.TM) func(int, int, *rand.Rand) error {
			s, keys := kvSetup(tm, shards)
			slots := kvSlots(s)
			return func(t, _ int, rng *rand.Rand) error {
				// One Zipf generator per measured thread (rand.Zipf is
				// not concurrency-safe); it lives in the thread's slot.
				slot := slots(t)
				if slot.zipf == nil {
					slot.zipf = rand.NewZipf(rng, 1.2, 8, kvKeys-1)
				}
				k := keys[slot.zipf.Uint64()]
				if rng.Intn(100) < 75 {
					_, _, err := slot.se.Get(nil, k)
					return err
				}
				_, err := slot.se.Put(nil, k, uint64(rng.Intn(1000)))
				return err
			}
		},
	}
}

// KVTxn is the multi-key transaction mix: every operation is one
// atomic Txn batch of keysPerOp uniformly random keys (half reads,
// half writes), which crosses shards almost always — the measured
// exception the store's cross-shard ratio tracks.
func KVTxn(shards, keysPerOp int) Workload {
	return Workload{
		Name: fmt.Sprintf("kv-txn%d-s%d", keysPerOp, shards),
		Setup: func(tm core.TM) func(int, int, *rand.Rand) error {
			s, keys := kvSetup(tm, shards)
			slots := kvSlots(s)
			return func(t, _ int, rng *rand.Rand) error {
				slot := slots(t)
				slot.ops = slot.ops[:0]
				for i := 0; i < keysPerOp; i++ {
					k := keys[rng.Intn(len(keys))]
					if i%2 == 0 {
						slot.ops = append(slot.ops, kv.Op{Kind: kv.OpGet, Handle: slot.se.Handle(k)})
					} else {
						slot.ops = append(slot.ops, kv.Op{Kind: kv.OpPut, Handle: slot.se.Handle(k), Val: uint64(rng.Intn(1000))})
					}
				}
				_, err := slot.se.Txn(nil, slot.ops)
				return err
			}
		},
	}
}

// KVSnapshot is the read-only snapshot mix: each operation reads
// keysPerOp keys across shards in one read-only transaction,
// exercising the engines' validation-free read-only commit.
func KVSnapshot(shards, keysPerOp int) Workload {
	return Workload{
		Name: fmt.Sprintf("kv-snap%d-s%d", keysPerOp, shards),
		Setup: func(tm core.TM) func(int, int, *rand.Rand) error {
			s, keys := kvSetup(tm, shards)
			slots := kvSlots(s)
			return func(t, _ int, rng *rand.Rand) error {
				slot := slots(t)
				slot.keys = slot.keys[:0]
				for i := 0; i < keysPerOp; i++ {
					slot.keys = append(slot.keys, keys[rng.Intn(len(keys))])
				}
				_, err := slot.se.GetMulti(nil, slot.keys)
				return err
			}
		},
	}
}

// E9 measures the serving stack: kv throughput against shard count per
// engine at 8 threads, for uniform and zipfian key traffic, plus the
// multi-key transaction and snapshot mixes at 8 shards.
func E9(w io.Writer) {
	const threads = 8
	const opsPerThread = 10000
	shardCounts := []int{1, 2, 4, 8}

	for _, dist := range []struct {
		title string
		mk    func(shards int) Workload
	}{
		{"uniform keys (75% get / 25% put)", KVUniform},
		{"zipfian hot keys (s=1.2, 75% get / 25% put)", KVZipfian},
	} {
		t := NewTable(fmt.Sprintf("Experiment E9 — kv ops/s by shards, %s, %d threads", dist.title, threads),
			"engine", "s=1", "s=2", "s=4", "s=8", "scale s1->s8")
		for _, e := range Engines() {
			if e.Name == "alg2" {
				continue
			}
			row := []any{e.Name}
			var first, last Result
			for _, sc := range shardCounts {
				last = RunThroughput(e.Raw, dist.mk(sc), threads, opsPerThread)
				if sc == 1 {
					first = last
				}
				row = append(row, fmt.Sprintf("%.0f", last.OpsPerSec()))
			}
			row = append(row, fmt.Sprintf("%.2fx", last.OpsPerSec()/first.OpsPerSec()))
			t.Add(row...)
		}
		fmt.Fprint(w, t.String())
		fmt.Fprintln(w)
	}

	t := NewTable("Experiment E9c — multi-key batches at 8 shards, 8 threads",
		"engine", "txn4 ops/s", "txn4 retries", "snap8 ops/s")
	for _, e := range Engines() {
		if e.Name == "alg2" {
			continue
		}
		txn := RunThroughput(e.Raw, KVTxn(8, 4), threads, opsPerThread)
		snap := RunThroughput(e.Raw, KVSnapshot(8, 8), threads, opsPerThread)
		t.Add(e.Name, fmt.Sprintf("%.0f", txn.OpsPerSec()),
			txn.Attempts-int64(txn.Ops), fmt.Sprintf("%.0f", snap.OpsPerSec()))
	}
	fmt.Fprint(w, t.String())
}

// KVSmoke runs every kv workload briefly on nztm — the CI smoke that
// proves the serving-stack workloads execute end to end. It returns an
// error if any workload fails or measures zero throughput.
func KVSmoke(w io.Writer) error {
	for _, wl := range []Workload{KVUniform(4), KVZipfian(4), KVTxn(4, 4), KVSnapshot(4, 8)} {
		r := RunThroughput(EngineByName("nztm").Raw, wl, 4, 250)
		if r.OpsPerSec() <= 0 {
			return fmt.Errorf("kv smoke: %s measured zero throughput", wl.Name)
		}
		fmt.Fprintf(w, "kv smoke: %-16s %8.0f ops/s (%d attempts for %d ops)\n",
			wl.Name, r.OpsPerSec(), r.Attempts, r.Ops)
	}
	return nil
}
