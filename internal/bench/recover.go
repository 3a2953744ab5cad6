package bench

// Experiment E16: recovery time at production scale — chained
// incremental snapshots vs one full image. The tentpole claim of the
// chain format is that restart cost is bounded by dirty-set size +
// log-tail length instead of store size: a store that cuts cheap
// incremental snapshots whenever ~1% of its keys have churned restarts
// from the newest chain plus a short tail, while a store whose only
// affordable cut was one full dump long ago restarts from a map-decoded
// full image plus every record since.
//
// The two directories are built from the same synthetic 10M-key state
// (OFTM_E16_KEYS overrides the size — CI runs a truncated row) by a
// synthetic wal.SnapshotSource that partitions the key space into
// contiguous per-shard ranges, so the benchmark measures the wal layer
// alone with no store or engine in the loop:
//
// Both directories are measured at the same point in their snapshot
// schedule: the worst case, a crash immediately before the next
// scheduled cut, so the tail is one full inter-cut interval long.
// The schedules are equal-overhead: a full dump writes ~100x the bytes
// of one 1%-dirty incremental cut, so at the same snapshot budget full
// cuts happen ~100x less often and their worst-case tail is ~100x
// longer.
//
//   - recover-incremental: a full chain cut, 1% churn confined to one
//     of 128 shards (0.78% of keys), an incremental cut that re-images
//     only that shard and truncates the churn, then a tail of keys/100
//     effects (one full 1%-churn interval). Recovery loads the chain
//     (wire-form per-shard images, no per-entry hashing) and replays
//     the short tail.
//   - recover-full: one legacy full image at the same base state, then
//     a tail of keys effects (one full inter-cut interval at the
//     equal-overhead cadence) with no further cut.
//
// The headline figure is the speedup of incremental over full wal.Open
// time; the acceptance gate is >= 5x at 10M keys. E16 stops its clock
// when wal.Open returns: what it bounds is finding and validating the
// state, not loading it into a store. Experiment E19 (below) measures
// the rest of a restart — Open, then the store loaded — on real
// engines.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/kv"
	"repro/internal/wal"
)

// e16Shards partitions the synthetic key space; one dirty shard is
// 1/128 = 0.78% of keys, inside the <=1%-dirty working-set bound the
// experiment claims.
const e16Shards = 128

func e16Key(i int) string { return fmt.Sprintf("user%012d", i) }

// chainSource is a synthetic wal.SnapshotSource over a contiguous key
// range: shard s owns keys [s*n/S, (s+1)*n/S). Epochs are bumped by
// the benchmark driver to mark churned shards dirty.
type chainSource struct {
	n      int
	epochs [e16Shards]uint64
}

func (s *chainSource) Shards() int                   { return e16Shards }
func (s *chainSource) DirtyEpochLocked(i int) uint64 { return s.epochs[i] }
func (s *chainSource) DumpShard(i int) ([]kv.Pair, error) {
	lo, hi := i*s.n/e16Shards, (i+1)*s.n/e16Shards
	pairs := make([]kv.Pair, 0, hi-lo)
	for k := lo; k < hi; k++ {
		pairs = append(pairs, kv.Pair{Key: e16Key(k), Val: uint64(k + 1)})
	}
	return pairs, nil
}

// RecoveryResult is one E16 measurement.
type RecoveryResult struct {
	Mode    string // "incremental" or "full"
	Keys    int    // synthetic store size
	TailOps int    // effects past the last cut (replayed at recovery)
	Setup   time.Duration
	Open    time.Duration // wal.Open wall time — the figure
	RecKeys uint64        // keys the recovery reports (sanity)
}

// e16Append writes ops effects over shard 0's key range as records of
// eight effects each, and waits until the log goroutine has drained
// them (rotation and truncation bookkeeping happen on flush).
func e16Append(l *wal.Log, src *chainSource, ops int) error {
	hi := src.n / e16Shards
	var batch [8]kv.Effect
	for done := 0; done < ops; {
		n := len(batch)
		if ops-done < n {
			n = ops - done
		}
		for j := 0; j < n; j++ {
			batch[j] = kv.Effect{Key: e16Key((done + j) % hi), Val: uint64(done + j + 1)}
		}
		if err := l.Append(batch[:n]); err != nil {
			return err
		}
		done += n
	}
	want := l.Stats().Appended
	for l.Stats().Durable < want {
		time.Sleep(time.Millisecond)
	}
	return nil
}

// RunRecovery builds one E16 directory for the given mode and measures
// wal.Open over it.
func RunRecovery(mode string, keys int) (RecoveryResult, error) {
	res := RecoveryResult{Mode: mode, Keys: keys}
	dir, err := os.MkdirTemp("", "oftm-e16-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever, SegmentBytes: 4 << 20})
	if err != nil {
		return res, err
	}
	src := &chainSource{n: keys}
	churn := keys / 100 // 1% of keys churn between incremental cuts
	switch mode {
	case "incremental":
		// Base chain, then one churn+cut cycle so the measured directory
		// is a real incremental chain (127 linked images + 1 fresh), then
		// the short tail an every-1%-churn cut schedule leaves behind.
		if err := l.WriteSnapshotInc(src); err != nil {
			return res, err
		}
		if err := e16Append(l, src, churn); err != nil {
			return res, err
		}
		src.epochs[0]++
		if err := l.WriteSnapshotInc(src); err != nil {
			return res, err
		}
		res.TailOps = churn
	case "full":
		pairs := make([]kv.Pair, 0, keys)
		for s := 0; s < e16Shards; s++ {
			p, _ := src.DumpShard(s)
			pairs = append(pairs, p...)
		}
		if err := l.WriteSnapshot(func() ([]kv.Pair, error) { return pairs, nil }); err != nil {
			return res, err
		}
		res.TailOps = keys
	default:
		l.Close()
		return res, fmt.Errorf("bench: unknown recovery mode %q", mode)
	}
	if err := e16Append(l, src, res.TailOps); err != nil {
		return res, err
	}
	if err := l.Close(); err != nil {
		return res, err
	}
	res.Setup = time.Since(t0)

	t1 := time.Now()
	l2, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return res, err
	}
	res.Open = time.Since(t1)
	res.RecKeys = uint64(rec.Keys)
	if mode == "incremental" && rec.Base == nil {
		l2.Close()
		return res, fmt.Errorf("bench: incremental recovery did not load a chain")
	}
	if rec.Keys != keys {
		l2.Close()
		return res, fmt.Errorf("bench: recovered %d keys, want %d", rec.Keys, keys)
	}
	return res, l2.Close()
}

// recoveryKeys returns the synthetic store size of the recovery
// experiments: OFTM_E16_KEYS when set (the CI truncated rows), else the
// experiment's own default.
func recoveryKeys(def int) int {
	if s := os.Getenv("OFTM_E16_KEYS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= e16Shards {
			return n
		}
	}
	return def
}

// E16 measures restart time against store size: incremental chain +
// short tail vs full image + equal-overhead long tail. The final
// "E16 speedup:" line is machine-readable — CI's snapshot-smoke job
// gates on it with a truncated key count.
func E16(w io.Writer) {
	keys := recoveryKeys(10_000_000) // the production scale the ROADMAP targets
	t := NewTable(fmt.Sprintf("Experiment E16 — recovery at scale: incremental chain vs full snapshot (%d keys, %d shards)", keys, e16Shards),
		"mode", "tail ops", "setup", "wal.Open", "keys recovered")
	times := map[string]time.Duration{}
	for _, mode := range []string{"incremental", "full"} {
		r, err := RunRecovery(mode, keys)
		if err != nil {
			fmt.Fprintf(w, "E16 %s: %v\n", mode, err)
			return
		}
		times[mode] = r.Open
		t.Add("recover-"+r.Mode, r.TailOps,
			r.Setup.Round(time.Millisecond), r.Open.Round(time.Millisecond), r.RecKeys)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "The chain loads wire-form per-shard images and replays 1% of keys; the full image")
	fmt.Fprintln(w, "map-decodes the whole store and replays the 100x tail its rare cuts leave behind.")
	fmt.Fprintf(w, "E16 speedup: %.2fx (incremental %v vs full %v)\n",
		times["full"].Seconds()/times["incremental"].Seconds(),
		times["incremental"].Round(time.Millisecond), times["full"].Round(time.Millisecond))
}

// Experiment E19: the second half of a restart. E16's directories are
// recovered by wal.Open alone; a server then has to load every
// recovered key into its store. RunRecoverLoad measures both stages
// over one synthetic chain directory, per engine, with the store
// loaded either by kv.Store.Load (slots created holding their values,
// no transaction) or by the loop the server ran before Load existed —
// Recovered.Each feeding Store.Put, one interned name and one engine
// transaction per key — kept here as the comparison arm the way E16
// keeps its full-image writer.

// LoadResult is one E19 measurement.
type LoadResult struct {
	Keys int
	Open time.Duration // wal.Open
	Load time.Duration // recovered state -> store
}

// NsPerKey is the load stage's cost per recovered key.
func (r LoadResult) NsPerKey() float64 { return float64(r.Load.Nanoseconds()) / float64(r.Keys) }

// BuildLoadDir writes the E19 directory: a full chain cut of keys
// synthetic keys plus a tail of keys/100 records over shard 0's range,
// so recovery walks a base and a tail like a real restart. The caller
// removes it.
func BuildLoadDir(keys int) (string, error) {
	dir, err := os.MkdirTemp("", "oftm-e19-*")
	if err != nil {
		return "", err
	}
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever, SegmentBytes: 4 << 20})
	if err == nil {
		src := &chainSource{n: keys}
		if err = l.WriteSnapshotInc(src); err == nil {
			err = e16Append(l, src, keys/100)
		}
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// RunRecoverLoad recovers dir and loads it into a fresh store on the
// named engine, timing the two stages. It returns the run with the
// median load time of benchRuns: a load allocates its whole store, so
// one run's time depends on where the collector's cycles happen to
// fall.
func RunRecoverLoad(dir, engine, arm string) (LoadResult, error) {
	runs := make([]LoadResult, 0, benchRuns)
	for len(runs) < benchRuns {
		r, err := runRecoverLoad(dir, engine, arm)
		if err != nil {
			return r, err
		}
		runs = append(runs, r)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Load < runs[j].Load })
	return runs[len(runs)/2], nil
}

func runRecoverLoad(dir, engine, arm string) (LoadResult, error) {
	var res LoadResult
	store := kv.New(EngineByName(engine).Raw(), 8, 0)
	runtime.GC() // the previous row's store is garbage; do not bill it to this one
	t0 := time.Now()
	l, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return res, err
	}
	defer l.Close()
	res.Open = time.Since(t0)
	res.Keys = rec.Keys
	t1 := time.Now()
	switch arm {
	case "load":
		err = store.Load(rec.Keys, rec.Each)
	case "putloop":
		err = rec.Each(func(k string, v uint64) error {
			_, perr := store.Put(nil, k, v)
			return perr
		})
	default:
		err = fmt.Errorf("bench: unknown load arm %q", arm)
	}
	res.Load = time.Since(t1)
	if err != nil {
		return res, err
	}
	if n, err := store.Len(nil); err != nil || n != rec.Keys {
		return res, fmt.Errorf("bench: %s/%s: store holds %d keys (%v), recovery found %d", engine, arm, n, err, rec.Keys)
	}
	return res, nil
}

// loadEngines are the engines oftm-server offers.
var loadEngines = []string{"dstm", "nztm", "2pl", "tl2", "coarse"}

// E19 measures Open -> store loaded per engine, both arms. The final
// "E19 load speedup:" line is machine-readable (nztm, the server's
// default engine) — CI's snapshot-smoke job gates on it with a
// truncated key count.
func E19(w io.Writer) {
	keys := recoveryKeys(1_000_000)
	dir, err := BuildLoadDir(keys)
	if err != nil {
		fmt.Fprintf(w, "E19: %v\n", err)
		return
	}
	defer os.RemoveAll(dir)
	t := NewTable(fmt.Sprintf("Experiment E19 — restart after wal.Open: loading %d recovered keys into the store", keys),
		"row", "open_ms", "load_ms", "load_ns_per_key")
	perKey := map[string]float64{}
	for _, engine := range loadEngines {
		for _, arm := range []string{"load", "putloop"} {
			r, err := RunRecoverLoad(dir, engine, arm)
			if err != nil {
				fmt.Fprintf(w, "E19 %s/%s: %v\n", engine, arm, err)
				return
			}
			row := "recover-" + arm + "-" + engine
			perKey[row] = r.NsPerKey()
			t.Add(row, fmt.Sprintf("%.1f", r.Open.Seconds()*1e3), fmt.Sprintf("%.1f", r.Load.Seconds()*1e3), fmt.Sprintf("%.0f", r.NsPerKey()))
		}
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "Load creates each key's two t-variables holding (present, value): no transaction, no")
	fmt.Fprintln(w, "plan, one table publication. The putloop rows are the loop the server ran before.")
	fmt.Fprintf(w, "E19 load speedup: %.2fx (nztm, %d keys: Load %.0f ns/key vs Each->Put %.0f ns/key)\n",
		perKey["recover-putloop-nztm"]/perKey["recover-load-nztm"], keys,
		perKey["recover-load-nztm"], perKey["recover-putloop-nztm"])
}

// recoverRecords are the E19 rows of the perf-tracking grid: ns/op is
// the load stage's cost per recovered key.
func recoverRecords() ([]Record, error) {
	keys := recoveryKeys(1_000_000)
	dir, err := BuildLoadDir(keys)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var recs []Record
	for _, engine := range loadEngines {
		r, err := RunRecoverLoad(dir, engine, "load")
		if err != nil {
			return nil, err
		}
		recs = append(recs, Record{
			Engine:    engine,
			Workload:  "recover-load",
			Threads:   1,
			NsPerOp:   r.NsPerKey(),
			OpsPerSec: 1e9 / r.NsPerKey(),
			OpenMs:    r.Open.Seconds() * 1e3,
			LoadMs:    r.Load.Seconds() * 1e3,
		})
	}
	return recs, nil
}
