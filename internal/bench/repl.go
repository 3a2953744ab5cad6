package bench

// Experiment E14: follower-read scaling of the WAL-shipping replication
// topology (PR 8). One primary (WAL on, replication listener) plus N
// in-process replicas; the load is the E13 mixed read mix at the
// primary and a pure-GET stream at each replica.
//
// Methodology (1-core container): the phases run SEQUENTIALLY within
// one topology boot — first the mixed load at the primary (replicas
// attached and applying, so the primary's rate pays the real shipping
// bill), then, after a catch-up barrier, a GET-only load at each
// replica in turn. On a single core, running all nodes' loads
// concurrently would just timeslice one CPU and measure the scheduler;
// the sequential per-node rates are each node's isolated capacity, and
// the aggregate read capacity of the topology — what an N-node
// deployment serves across N cores — is their sum:
//
//	aggregate(N) = 0.75 x primary_mixed + sum(replica_get rates)
//
// (0.75 is the read share of the E13 mix). The acceptance ratio
// compares aggregate(N) against the primary-only read capacity
// aggregate(0).

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/server"
)

// replPhase drives one warmed, GC-fenced load phase against addr
// without owning the server: conns connections replaying windows
// pipelined windows of the given mix. It is measureLoad's engine with
// the server lifecycle and the request mix lifted out, so one topology
// boot can host several phases.
func replPhase(addr string, keys []string, conns, pipeline, windows, setPct, casPct int) (ServerResult, error) {
	res := ServerResult{Engine: "nztm", Conns: conns, Pipeline: pipeline}
	lcs := make([]*loadConn, conns)
	for i := range lcs {
		lc, err := dialLoadConn(addr, keys, int64(i), pipeline, setPct, casPct)
		if err != nil {
			return res, err
		}
		defer lc.close()
		lcs[i] = lc
	}
	errs := make([]error, conns)
	start := make(chan struct{})
	var warm, done sync.WaitGroup
	for i, lc := range lcs {
		i, lc := i, lc
		warm.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			err := lc.do(2 * pipeline)
			warm.Done()
			if err != nil {
				errs[i] = err
				return
			}
			<-start
			errs[i] = lc.do(windows * pipeline)
		}()
	}
	warm.Wait()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNow()
	t0 := time.Now()
	close(start)
	done.Wait()
	res.Elapsed = time.Since(t0)
	res.CPUSec = cpuNow() - cpu0
	runtime.ReadMemStats(&m1)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	res.Reqs = int64(conns) * int64(windows) * int64(pipeline)
	res.AllocsPerReq = float64(m1.Mallocs-m0.Mallocs) / float64(res.Reqs)
	res.BytesPerReq = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Reqs)
	return res, nil
}

// ReplResult is one E14 topology measurement.
type ReplResult struct {
	Replicas     int
	Primary      ServerResult   // mixed phase at the primary
	ReplicaReads []ServerResult // GET-only phase per replica, in order
}

// PrimaryReads returns the primary's read-share request rate under the
// mixed load (75% of the E13 mix is GET).
func (r ReplResult) PrimaryReads() float64 { return 0.75 * r.Primary.ReqsPerSec() }

// AggregateReads returns the topology's summed read capacity (see the
// file comment for why the sum of sequential per-node rates is the
// multi-core aggregate).
func (r ReplResult) AggregateReads() float64 {
	agg := r.PrimaryReads()
	for _, rr := range r.ReplicaReads {
		agg += rr.ReqsPerSec()
	}
	return agg
}

// waitReplCaughtUp blocks until every replica has applied the primary's
// full durable log.
func waitReplCaughtUp(prim *server.Server, replicas []*server.Server) error {
	target := prim.WAL().LastSeq()
	deadline := time.Now().Add(60 * time.Second)
	for _, r := range replicas {
		for r.ReplStats().LastApplied < target {
			if time.Now().After(deadline) {
				return fmt.Errorf("bench: replica stuck at seq %d, want %d", r.ReplStats().LastApplied, target)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// RunReplTopology boots 1 primary + nReplicas in process (each node
// with its own WAL directory) and measures the sequential E14 phases.
func RunReplTopology(nReplicas, conns, pipeline, windows int) (ReplResult, error) {
	res := ReplResult{Replicas: nReplicas}
	pdir, err := os.MkdirTemp("", "oftm-e14-p-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(pdir)

	prim, keys, err := startLoadServerCfg(server.Config{
		Engine: "nztm", Runtime: "goroutine",
		WALDir: pdir, Fsync: "never",
		ReplicateAddr: "127.0.0.1:0",
	})
	if err != nil {
		return res, err
	}
	defer prim.Close()

	var replicas []*server.Server
	for i := 0; i < nReplicas; i++ {
		rdir, err := os.MkdirTemp("", "oftm-e14-r-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(rdir)
		repl, err := server.New(server.Config{
			Addr: "127.0.0.1:0", Engine: "nztm", Runtime: "goroutine",
			Shards: srvShards,
			WALDir: rdir, ReplicaOf: prim.ReplAddr().String(),
		})
		if err != nil {
			return res, fmt.Errorf("bench: replica %d: %w", i, err)
		}
		if err := repl.Listen(); err != nil {
			repl.Close()
			return res, err
		}
		go repl.Serve()
		defer repl.Close()
		replicas = append(replicas, repl)
	}
	// Barrier: the key-space population must be applied everywhere
	// before the measured phases (first-insert paths are warmup, not
	// steady state).
	if err := waitReplCaughtUp(prim, replicas); err != nil {
		return res, err
	}

	// Phase 1: mixed load at the primary, replicas attached and
	// applying — the primary's rate pays the live shipping bill.
	res.Primary, err = replPhase(prim.Addr().String(), keys, conns, pipeline, windows, 20, 5)
	if err != nil {
		return res, fmt.Errorf("bench: primary phase: %w", err)
	}
	// Catch-up barrier, then one GET-only phase per replica.
	if err := waitReplCaughtUp(prim, replicas); err != nil {
		return res, err
	}
	for i, repl := range replicas {
		rr, err := replPhase(repl.Addr().String(), keys, conns, pipeline, windows, 0, 0)
		if err != nil {
			return res, fmt.Errorf("bench: replica %d phase: %w", i, err)
		}
		res.ReplicaReads = append(res.ReplicaReads, rr)
	}
	return res, nil
}

// E14 measures follower-read scaling: 1 primary + {0,1,2} replicas,
// sequential per-node phases, aggregate read capacity vs primary-only.
func E14(w io.Writer) {
	const conns, pipeline, windows = 8, 32, 1200
	t := NewTable(fmt.Sprintf("Experiment E14 — follower-read scaling, 1 primary + N replicas (%d conns x pipeline %d per phase)", conns, pipeline),
		"replicas", "primary mixed req/s", "primary allocs/req", "replica GET req/s", "aggregate reads/s", "scale vs r0")
	var base float64
	for _, n := range []int{0, 1, 2} {
		res, err := RunReplTopology(n, conns, pipeline, windows)
		if err != nil {
			fmt.Fprintf(w, "E14 r%d: %v\n", n, err)
			continue
		}
		if n == 0 {
			base = res.AggregateReads()
		}
		var reads string
		for i, rr := range res.ReplicaReads {
			if i > 0 {
				reads += " + "
			}
			reads += fmt.Sprintf("%.0f", rr.ReqsPerSec())
		}
		if reads == "" {
			reads = "-"
		}
		scale := "-"
		if base > 0 {
			scale = fmt.Sprintf("%.2fx", res.AggregateReads()/base)
		}
		t.Add(fmt.Sprint(n),
			fmt.Sprintf("%.0f", res.Primary.ReqsPerSec()),
			fmt.Sprintf("%.2f", res.Primary.AllocsPerReq),
			reads,
			fmt.Sprintf("%.0f", res.AggregateReads()),
			scale)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "Phases run sequentially within one topology boot (the container has one core):")
	fmt.Fprintln(w, "each figure is that node's isolated capacity, and the aggregate is their sum —")
	fmt.Fprintln(w, "what the topology serves when every node has its own core. The r1/r2 primary")
	fmt.Fprintln(w, "allocs/req include the in-process replicas' apply allocations (same heap); the")
	fmt.Fprintln(w, "r0 row is the primary write path's own figure.")
}

// replRecords measures the E14 perf-tracking rows: aggregate read
// capacity per topology (server-repl-reads-r{0,1,2}). The r0 row's
// allocs/op is the primary write path's own footprint (no replicas
// share the heap during that phase); r1/r2 allocs ride along but
// include in-process replica apply.
func replRecords() ([]Record, error) {
	const conns, pipeline, windows = 8, 32, 1600
	var recs []Record
	for _, n := range []int{0, 1, 2} {
		n := n
		rec, err := bestOf(benchRuns, func() (Record, error) {
			res, err := RunReplTopology(n, conns, pipeline, windows)
			if err != nil {
				return Record{}, fmt.Errorf("bench: server-repl-reads-r%d: %w", n, err)
			}
			agg := res.AggregateReads()
			rec := Record{
				Engine:      "nztm",
				Workload:    fmt.Sprintf("server-repl-reads-r%d", n),
				Threads:     conns,
				OpsPerSec:   agg,
				AllocsPerOp: int64(res.Primary.AllocsPerReq + 0.5),
				BytesPerOp:  int64(res.Primary.BytesPerReq + 0.5),
			}
			if agg > 0 {
				rec.NsPerOp = 1e9 / agg
			}
			return rec, nil
		})
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
