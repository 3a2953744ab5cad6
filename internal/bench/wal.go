package bench

// Experiment E11: the cost of durability. The same closed-loop mixed
// load as the server-mixed-c8 rows (8 pipelined connections over
// loopback) against servers whose only difference is the WAL
// configuration — off, group commit
// with interval fsync, group commit with fsync-per-batch — so the
// req/s and allocs/req deltas are the durability layer's own bill.
// The acceptance criteria this experiment gates: the wal-off path
// keeps its zero-allocation steady state, and fsync=interval stays
// within 25% of wal-off throughput at 8 connections.

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/server"
)

// walModes are the E11 columns, in measurement order. Labels become
// the -pr5 JSON workload suffixes.
var walModes = []struct {
	label string // table row
	fsync string // server.Config.Fsync ("" = WAL off)
}{
	{"wal-off", ""},
	{"wal-interval", "interval"},
	{"wal-always", "always"},
}

// RunServerLoadWAL measures the standard mixed load against a server
// with the given fsync policy, logging into a throwaway directory
// (fsync "" runs without a WAL — the baseline). The directory lives on
// whatever filesystem the test environment gives us; fsync figures are
// therefore hardware-honest, not portable constants.
func RunServerLoadWAL(engine, fsync string, conns, pipeline, windows int) (ServerResult, error) {
	res := ServerResult{Engine: engine, Conns: conns, Pipeline: pipeline}
	// Runtime pinned for baseline comparability, like startLoadServer.
	cfg := server.Config{Engine: engine, Runtime: "goroutine"}
	if fsync != "" {
		dir, err := os.MkdirTemp("", "oftm-wal-bench-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		cfg.WALDir = dir
		cfg.Fsync = fsync
	}
	srv, keys, err := startLoadServerCfg(cfg)
	if err != nil {
		return res, err
	}
	return measureLoad(srv, keys, res, conns, pipeline, windows)
}

// RunServerLoadSnapshot measures the standard mixed load against a
// server that is cutting incremental chain snapshots on a timer while
// it serves — the regression harness for "snapshot cuts don't tax the
// serving path". Alongside the measurement it reports whether the
// snapshot cut actually advanced during the measured phase, so a
// passing allocation figure can't come from a run where no cut landed.
func RunServerLoadSnapshot(engine string, every time.Duration, conns, pipeline, windows int) (ServerResult, bool, error) {
	res := ServerResult{Engine: engine, Conns: conns, Pipeline: pipeline}
	dir, err := os.MkdirTemp("", "oftm-snapcut-bench-*")
	if err != nil {
		return res, false, err
	}
	defer os.RemoveAll(dir)
	cfg := server.Config{
		Engine:        engine,
		Runtime:       "goroutine",
		WALDir:        dir,
		Fsync:         "interval",
		SnapshotEvery: every,
	}
	srv, keys, err := startLoadServerCfg(cfg)
	if err != nil {
		return res, false, err
	}
	before := srv.WAL().Stats().SnapshotSeq
	res, err = measureLoad(srv, keys, res, conns, pipeline, windows)
	cut := srv.WAL().Stats().SnapshotSeq > before
	return res, cut, err
}

// E11 measures the durability bill end to end: loopback req/s and
// allocs/req at 8 pipelined connections with the WAL off, on with
// interval fsync, and on with fsync-per-group-commit.
func E11(w io.Writer) {
	const conns, pipeline, windows = 8, 32, 1200
	t := NewTable(fmt.Sprintf("Experiment E11 — durability: WAL group commit under load (%d conns x pipeline %d, nztm)", conns, pipeline),
		"wal", "req/s", "allocs/req", "B/req", "vs wal-off")
	var base float64
	for _, m := range walModes {
		r, err := RunServerLoadWAL("nztm", m.fsync, conns, pipeline, windows)
		if err != nil {
			fmt.Fprintf(w, "E11 %s: %v\n", m.label, err)
			continue
		}
		rel := "1.00x"
		if m.fsync == "" {
			base = r.ReqsPerSec()
		} else if base > 0 {
			rel = fmt.Sprintf("%.2fx", r.ReqsPerSec()/base)
		}
		t.Add(m.label,
			fmt.Sprintf("%.0f", r.ReqsPerSec()),
			fmt.Sprintf("%.2f", r.AllocsPerReq),
			fmt.Sprintf("%.0f", r.BytesPerReq),
			rel)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "Group commit batches concurrent sessions' records into one write (and, for always,")
	fmt.Fprintln(w, "one fsync); the gate is wal-off at 0 allocs/req and interval within 25% of wal-off.")
}

// walRecords measures the E11 perf-tracking rows: the mixed 8-conn
// load with the WAL at interval and always fsync on nztm. The wal-off
// row is the existing server-mixed-c8 record, so the trio lives in one
// grid and the bench-diff gate watches the durability tax too.
func walRecords() ([]Record, error) {
	// windows sized like serverRecords: long enough that GC and fsync
	// scheduling average out instead of deciding the row.
	const conns, pipeline, windows = 8, 32, 3200
	var recs []Record
	for _, m := range walModes {
		if m.fsync == "" {
			continue
		}
		m := m
		rec, err := bestOf(benchRuns, func() (Record, error) {
			r, err := RunServerLoadWAL("nztm", m.fsync, conns, pipeline, windows)
			if err != nil {
				return Record{}, fmt.Errorf("bench: wal/%s: %w", m.fsync, err)
			}
			return Record{
				Engine:      "nztm",
				Workload:    "server-mixed-c8-" + m.label,
				Threads:     conns,
				NsPerOp:     float64(r.Elapsed.Nanoseconds()) / float64(r.Reqs),
				AllocsPerOp: int64(r.AllocsPerReq + 0.5),
				BytesPerOp:  int64(r.BytesPerReq + 0.5),
				OpsPerSec:   r.ReqsPerSec(),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
