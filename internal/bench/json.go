package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// Record is one measurement of the perf-tracking suite, serialized to
// BENCH_PR<n>.json so successive PRs can diff the trajectory.
type Record struct {
	Engine      string  `json:"engine"`
	Workload    string  `json:"workload"`
	Threads     int     `json:"threads"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// Epoch, ForcedAborts and SnapshotExtensions are the engine's
	// TMStats after the run (zero for engines without them).
	Epoch              uint64 `json:"epoch,omitempty"`
	ForcedAborts       int64  `json:"forced_aborts,omitempty"`
	SnapshotExtensions int64  `json:"snapshot_extensions,omitempty"`
	// OpenMs and LoadMs are the two stages of a restart on the
	// recover-load rows (E19), whose ns/op is LoadMs per recovered key.
	OpenMs float64 `json:"open_ms,omitempty"`
	LoadMs float64 `json:"load_ms,omitempty"`
}

// Key identifies a record across reports.
func (r Record) Key() string {
	return fmt.Sprintf("%s|%s|%d", r.Engine, r.Workload, r.Threads)
}

// Report is the full JSON document.
type Report struct {
	Note    string   `json:"note"`
	Records []Record `json:"records"`
}

// jsonCase is one engine × workload × threads combination.
type jsonCase struct {
	engine   Engine
	workload Workload
	threads  int
}

// benchRuns is how many times each perf-tracking record is measured;
// the run with the median ns/op is recorded. Single runs on the
// 1-core CI-class runner swing well past the diff gate's 25%
// tolerance on scheduler- and GC-sensitive rows (oversubscribed
// bank-8, fsync-bound wal rows, the allocating legacy path), and some
// of those rows are bimodal — a minimum would record whichever side
// got lucky. The median is the robust per-row statistic two same-
// machine measurements can be diffed on.
const benchRuns = 3

// bestOf measures k times via f and keeps the record with the median
// ns/op. The allocs/op column is the median *across* the k runs, not
// the ns-median run's own draw: rows sitting at an integer rounding
// boundary (a pool refill whose amortization depends on GC timing,
// ~2.5 allocs/op truncating to 2 or 3) otherwise record whichever
// side the ns-median run happened to land on, and two such draws on
// identical code can differ by ±1 — enough to trip the diff gate's
// strict small-count allowance.
func bestOf(k int, f func() (Record, error)) (Record, error) {
	runs := make([]Record, 0, k)
	for i := 0; i < k; i++ {
		r, err := f()
		if err != nil {
			return r, err
		}
		runs = append(runs, r)
	}
	allocs := make([]int64, len(runs))
	for i, r := range runs {
		allocs[i] = r.AllocsPerOp
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
	rec := runs[(len(runs)-1)/2]
	sort.Slice(allocs, func(i, j int) bool { return allocs[i] < allocs[j] })
	rec.AllocsPerOp = allocs[(len(allocs)-1)/2]
	return rec, nil
}

// WriteJSON measures the standard perf-tracking grid with
// testing.Benchmark and writes the report to w. The grid deliberately
// covers the four axes the repository optimizes: contended small
// transactions (bank-8), quiescent long readers (readheavy-256), long
// readers under sustained disjoint write traffic
// (readheavy-256-contended — the versioned-validation claim), and the
// allocation footprint of small transactions (smalltx).
func WriteJSON(w io.Writer) error {
	var cases []jsonCase
	for _, e := range Engines() {
		if e.Name == "alg2" {
			continue // deliberately impractical; excluded from tracking
		}
		for _, th := range []int{1, 2, 4, 8} {
			cases = append(cases, jsonCase{e, BankTransfer(8), th})
		}
		for _, th := range []int{1, 4} {
			cases = append(cases, jsonCase{e, ReadHeavy(256), th})
		}
		for _, th := range []int{1, 4} {
			cases = append(cases, jsonCase{e, ContendedReadHeavy(256), th})
		}
		cases = append(cases, jsonCase{e, SmallTx(), 1})
		// Serving-stack rows: the uniform kv mix at 8 shards for every
		// engine, plus the shard-scaling pair (1 vs 8 shards at 8
		// threads) and the skewed/multi-key mixes on the OFTM engines —
		// the PR 3 record behind EXPERIMENTS.md E9.
		for _, th := range []int{1, 8} {
			cases = append(cases, jsonCase{e, KVUniform(8), th})
		}
		if e.Name == "dstm" || e.Name == "nztm" {
			cases = append(cases, jsonCase{e, KVUniform(1), 8})
			cases = append(cases, jsonCase{e, KVZipfian(8), 8})
			cases = append(cases, jsonCase{e, KVTxn(8, 4), 8})
		}
	}

	rep := Report{Note: "ns/op, allocs/op and B/op per engine × workload × threads; epoch/forced_aborts/snapshot_extensions are engine TMStats after the timed run; server-* rows are loopback wire measurements (threads = connections), with -pr3 the preserved legacy request path; recover-load rows are a restart's load stage, ns/op per recovered key, with open_ms/load_ms the stage split"}
	for _, c := range cases {
		c := c
		rec, err := bestOf(benchRuns, func() (Record, error) { return measure(c) })
		if err != nil {
			return err
		}
		rep.Records = append(rep.Records, rec)
	}
	// Serving rows (E10): end-to-end wire path, byte vs PR 3 legacy.
	srvRecs, err := serverRecords()
	if err != nil {
		return err
	}
	rep.Records = append(rep.Records, srvRecs...)
	// Durability rows (E11): the same load with the WAL on.
	wRecs, err := walRecords()
	if err != nil {
		return err
	}
	rep.Records = append(rep.Records, wRecs...)
	// Scaling rows (E13): both runtimes across the connection grid, plus
	// the 2-connection low-occupancy pair (E18).
	sRecs, err := scaleRecords()
	if err != nil {
		return err
	}
	rep.Records = append(rep.Records, sRecs...)
	// Replication rows (E14): follower-read aggregate capacity.
	rRecs, err := replRecords()
	if err != nil {
		return err
	}
	rep.Records = append(rep.Records, rRecs...)
	// Restart rows (E19): wal.Open, then the store loaded, per engine.
	lRecs, err := recoverRecords()
	if err != nil {
		return err
	}
	rep.Records = append(rep.Records, lRecs...)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteServerJSON measures only the serving rows (the E10 and E11
// records) and writes them as a report — the fast path behind
// `oftm-bench -servebench -json`.
func WriteServerJSON(w io.Writer) error {
	recs, err := serverRecords()
	if err != nil {
		return err
	}
	wRecs, err := walRecords()
	if err != nil {
		return err
	}
	recs = append(recs, wRecs...)
	sRecs, err := scaleRecords()
	if err != nil {
		return err
	}
	recs = append(recs, sRecs...)
	rRecs, err := replRecords()
	if err != nil {
		return err
	}
	recs = append(recs, rRecs...)
	rep := Report{
		Note:    "experiments E10/E11/E13/E14: loopback wire-path records (threads = connections); server-*-pr3 rows measure the preserved PR 3 legacy request path, server-*-wal-* rows the durability layer, server-scale-* rows the serving-runtime connection grid, server-{reqresp,pipelined}-c2-<runtime> rows its 2-connection low-occupancy pair (pipeline 1 and 32, wal-interval), server-repl-reads-r* rows the replication topology's aggregate read capacity (sequential per-node phases summed; 1-core container)",
		Records: recs,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func measure(c jsonCase) (Record, error) {
	var tm core.TM
	var opErr error
	var mu sync.Mutex
	res := testing.Benchmark(func(b *testing.B) {
		tm = c.engine.Raw()
		op := c.workload.Setup(tm)
		var bgStop chan struct{}
		var bgWG sync.WaitGroup
		if c.workload.Background != nil {
			bgStop = make(chan struct{})
			bgWG.Add(1)
			go func() {
				defer bgWG.Done()
				c.workload.Background(tm, bgStop)
			}()
		}
		b.ReportAllocs()
		b.ResetTimer()
		SplitThreads(b.N, c.threads, func(t int, rng *rand.Rand, iters int) {
			for i := 0; i < iters; i++ {
				if err := op(t, i, rng); err != nil {
					mu.Lock()
					opErr = err
					mu.Unlock()
					return
				}
			}
		})
		b.StopTimer()
		if bgStop != nil {
			close(bgStop)
			bgWG.Wait()
		}
	})
	if opErr != nil {
		return Record{}, fmt.Errorf("bench: %s/%s/threads=%d: %w", c.engine.Name, c.workload.Name, c.threads, opErr)
	}
	rec := Record{
		Engine:      c.engine.Name,
		Workload:    c.workload.Name,
		Threads:     c.threads,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	if rec.NsPerOp > 0 {
		rec.OpsPerSec = 1e9 / rec.NsPerOp
	}
	if st, ok := core.StatsOf(tm); ok {
		rec.Epoch = st.Epoch
		rec.ForcedAborts = st.ForcedAborts
		rec.SnapshotExtensions = st.SnapshotExtensions
	}
	return rec, nil
}

// LoadReport reads a perf-tracking JSON document from path.
func LoadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("bench: %s: %w", path, err)
	}
	return rep, nil
}

// allocAllowance is the highest allocs/op cur may report against base
// without counting as a regression: the baseline plus tolPct percent
// or plus one allocation, whichever is larger, rounded down. The +1
// floor exists because small nonzero counts sit at integer rounding
// boundaries (~2.5 allocs/op records 2 or 3 depending on GC timing;
// see bestOf), so a relative tolerance below one whole allocation
// gates on the draw, not the code. A zero-alloc baseline still
// allows exactly zero — any reappearing allocation on a record that
// had none trips the gate, which is how the zero-allocation request
// path is locked in rather than decaying silently.
func allocAllowance(base int64, tolPct float64) int64 {
	if base == 0 {
		return 0
	}
	rel := int64(float64(base) * tolPct / 100)
	if rel < 1 {
		rel = 1
	}
	return base + rel
}

// allocGateSkipped marks records whose allocs/op is intrinsically
// nondeterministic, where no defensible allowance separates noise
// from regression: 2pl's lock-wait path allocates per parked waiter,
// so its contended rows swing ~2× run to run on identical code
// (measured 28–52 at 4 threads) — the same property that kept 2pl
// out of the PR 7 server grid. Their ns/op still gates normally;
// Compare prints a notice instead of applying the alloc gate.
func allocGateSkipped(r Record) bool {
	return r.Engine == "2pl" && strings.HasPrefix(r.Workload, "readheavy-256-contended")
}

// Compare prints per-record ns/op and allocs/op deltas of cur against
// base and returns the number of regressions: records whose ns/op
// worsened by more than tolPct percent, or whose allocs/op exceed the
// baseline's allowance (see allocAllowance — in particular, 0 must
// stay 0). Records present only in cur — workloads added since the
// baseline was taken — are skipped with a notice, never counted as
// regressions: growing the grid must not break the gate against an
// older baseline. Records present only in base are reported as dropped
// (a drop is not a regression — the grid is allowed to evolve — but it
// is printed so it cannot pass silently).
func Compare(w io.Writer, base, cur Report, tolPct float64) int {
	baseBy := map[string]Record{}
	for _, r := range base.Records {
		baseBy[r.Key()] = r
	}
	curKeys := map[string]bool{}
	regressions, skippedNew := 0, 0
	fmt.Fprintf(w, "%-8s %-24s %8s %12s %12s %9s %7s %7s\n", "engine", "workload", "threads", "base ns/op", "cur ns/op", "delta", "base a", "cur a")
	for _, r := range cur.Records {
		curKeys[r.Key()] = true
		b, ok := baseBy[r.Key()]
		if !ok || b.NsPerOp <= 0 {
			skippedNew++
			fmt.Fprintf(w, "%-8s %-24s %8d %12s %12.0f %9s\n", r.Engine, r.Workload, r.Threads, "-", r.NsPerOp, "(new — skipped)")
			continue
		}
		delta := 100 * (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		mark, bad := "", false
		if delta > tolPct {
			mark, bad = "  << REGRESSION (ns/op)", true
		}
		if r.AllocsPerOp > allocAllowance(b.AllocsPerOp, tolPct) {
			if allocGateSkipped(r) {
				mark += "  (alloc gate skipped: nondeterministic lock-wait allocs)"
			} else {
				mark += "  << REGRESSION (allocs/op)"
				bad = true
			}
		}
		if bad {
			// One bad record counts once, however many ways it is bad.
			regressions++
		}
		fmt.Fprintf(w, "%-8s %-24s %8d %12.0f %12.0f %+8.1f%% %7d %7d%s\n", r.Engine, r.Workload, r.Threads, b.NsPerOp, r.NsPerOp, delta, b.AllocsPerOp, r.AllocsPerOp, mark)
	}
	if skippedNew > 0 {
		fmt.Fprintf(w, "%d record(s) have no baseline entry and were skipped (new workloads are not regressions)\n", skippedNew)
	}
	var dropped []string
	for k := range baseBy {
		if !curKeys[k] {
			dropped = append(dropped, k)
		}
	}
	sort.Strings(dropped)
	for _, k := range dropped {
		fmt.Fprintf(w, "%-46s (dropped from grid)\n", k)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s): ns/op beyond %.0f%% or allocs/op above the baseline allowance\n", regressions, tolPct)
	}
	return regressions
}
