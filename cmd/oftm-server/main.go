// Command oftm-server serves the sharded transactional key-value
// store (internal/kv) over TCP with the line protocol of
// internal/server, on any of the repository's STM engines.
//
// Server mode:
//
//	oftm-server -addr 127.0.0.1:7070 -engine nztm -shards 8
//
// runs until SIGINT/SIGTERM, then shuts down cleanly and prints the
// serving report (requests, committed transactions, aborts,
// cross-shard ratio, engine stats).
//
// Client (load) mode:
//
//	oftm-server -connect 127.0.0.1:7070 -conns 4 -ops 1000
//
// drives a closed-loop pipelined workload against a running server and
// exits non-zero unless every response was clean and the server
// reports non-zero committed transactions — the smoke criterion used
// by CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "server mode: TCP listen address")
	engine := flag.String("engine", "nztm", "STM engine: dstm|nztm|2pl|tl2|coarse")
	shards := flag.Int("shards", 8, "key-space shards")
	batch := flag.Int("batch", 64, "max pipelined requests folded into one transaction")
	maxLine := flag.Int("max-line", 1<<20, "max request line length in bytes (longer lines answer ERR line too long and close)")
	runtimeKind := flag.String("runtime", "worker", "serving runtime: worker (shard-affine loops) | goroutine (one per connection)")
	workers := flag.Int("workers", 0, "worker runtime: number of worker loops (0 = GOMAXPROCS, capped at -shards)")
	flushTimeout := flag.Duration("flush-timeout", 0, "worker runtime: per-connection flusher progress bound; a connection whose socket accepts no reply bytes for this long is closed (0 = default 5s, negative disables the kill)")
	maxPendingWrite := flag.Int64("max-pending-write", 0, "worker runtime: max sealed-but-unwritten reply bytes per connection before its reader pauses (0 = default 1MiB, negative disables)")
	walDir := flag.String("wal-dir", "", "durability: write-ahead log directory (empty = volatile)")
	fsync := flag.String("fsync", "interval", "durability: WAL fsync policy: always|interval|never")
	fsyncEvery := flag.Duration("fsync-interval", 100*time.Millisecond, "durability: fsync period for -fsync interval")
	snapEvery := flag.Duration("snapshot-every", 0, "durability: periodic snapshot+truncate period (0 = off)")
	replicateAddr := flag.String("replicate-addr", "", "replication: serve the WAL record stream to replicas on this address (requires -wal-dir)")
	replicaOf := flag.String("replica-of", "", "replication: boot as a read-only replica of the primary's -replicate-addr (requires -wal-dir; SIGUSR1 or PROMOTE promotes)")
	connect := flag.String("connect", "", "client mode: address of a running server to load")
	conns := flag.Int("conns", 4, "client mode: concurrent connections")
	ops := flag.Int("ops", 1000, "client mode: requests per connection")
	pipeline := flag.Int("pipeline", 32, "client mode: pipelined requests per window")
	flag.Parse()

	if *connect != "" {
		runClient(*connect, *conns, *ops, *pipeline)
		return
	}
	runServer(server.Config{
		Addr:            *addr,
		Engine:          *engine,
		Shards:          *shards,
		Batch:           *batch,
		MaxLine:         *maxLine,
		Runtime:         *runtimeKind,
		Workers:         *workers,
		FlushTimeout:    *flushTimeout,
		MaxPendingWrite: *maxPendingWrite,
		WALDir:          *walDir,
		Fsync:           *fsync,
		FsyncInterval:   *fsyncEvery,
		SnapshotEvery:   *snapEvery,
		ReplicateAddr:   *replicateAddr,
		ReplicaOf:       *replicaOf,
	})
}

func runServer(cfg server.Config) {
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oftm-server: %v\n", err)
		os.Exit(2)
	}
	if err := s.Listen(); err != nil {
		fmt.Fprintf(os.Stderr, "oftm-server: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("oftm-server: serving on %s (engine=%s shards=%d batch=%d runtime=%s workers=%d)\n",
		s.Addr(), cfg.Engine, cfg.Shards, cfg.Batch, cfg.Runtime, len(s.WorkerStats()))
	if cfg.ReplicateAddr != "" {
		fmt.Printf("oftm-server: role=%s replicating on %s\n", s.Role(), s.ReplAddr())
	}
	if cfg.ReplicaOf != "" {
		fmt.Printf("oftm-server: role=%s of %s (writes answer ERR readonly; SIGUSR1 or PROMOTE promotes)\n",
			s.Role(), cfg.ReplicaOf)
	}
	if cfg.WALDir != "" {
		rec := s.Recovered()
		replay, load := s.RecoveryTimes()
		fmt.Printf("oftm-server: wal %s (fsync=%s): recovered %d key(s), snapshot cut %d, %d record(s) replayed, last seq %d replay=%s load=%s",
			cfg.WALDir, cfg.Fsync, rec.Keys, rec.SnapshotSeq, rec.Records, rec.LastSeq, ms(replay), ms(load))
		if rec.TornTail {
			fmt.Printf(" [torn tail truncated]")
		}
		fmt.Println()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("oftm-server: shutting down...")
		s.Close()
	}()
	promote := make(chan os.Signal, 1)
	signal.Notify(promote, syscall.SIGUSR1)
	go func() {
		for range promote {
			seq, err := s.Promote()
			if err != nil {
				fmt.Fprintf(os.Stderr, "oftm-server: promote: %v\n", err)
				continue
			}
			fmt.Printf("oftm-server: promoted to primary at seq %d\n", seq)
		}
	}()

	if err := s.Serve(); err != nil {
		fmt.Fprintf(os.Stderr, "oftm-server: serve: %v\n", err)
		os.Exit(1)
	}

	st := s.Store().Stats()
	fmt.Printf("oftm-server: clean shutdown\n")
	fmt.Printf("  requests served:        %d\n", s.Requests())
	fmt.Printf("  committed transactions: %d\n", st.Txns)
	fmt.Printf("  aborted attempts:       %d\n", st.Aborts())
	fmt.Printf("  cross-shard ratio:      %.4f\n", st.CrossShardRatio())
	for i, sh := range st.Shards {
		fmt.Printf("  shard %2d: ops=%d aborts=%d\n", i, sh.Ops, sh.Aborts)
	}
	for i, w := range s.WorkerStats() {
		fmt.Printf("  worker %2d: conns=%d reqs=%d rounds=%d escalations=%d dispatches=%d inline=%d\n",
			i, w.Conns, w.Requests, w.FlushRounds, w.Escalations, w.Dispatches, w.InlineRounds)
	}
	if fs := s.FlushStats(); len(fs.Workers) > 0 {
		fmt.Printf("  flush: sealed=%d pauses=%d kills=%d\n", fs.SealedBytes, fs.Pauses, fs.Kills)
	}
	if es, ok := core.StatsOf(s.TM()); ok {
		fmt.Printf("  engine: epoch=%d forced_aborts=%d snapshot_extensions=%d\n",
			es.Epoch, es.ForcedAborts, es.SnapshotExtensions)
	}
	if l := s.WAL(); l != nil {
		ws := l.Stats()
		replay, load := s.RecoveryTimes()
		fmt.Printf("  wal: appended=%d durable=%d snapshot_cut=%d segments=%d replay=%s load=%s\n",
			ws.Appended, ws.Durable, ws.SnapshotSeq, ws.Segments, ms(replay), ms(load))
	}
	if cfg.ReplicateAddr != "" || cfg.ReplicaOf != "" {
		rs := s.ReplStats()
		fmt.Printf("  repl: role=%s peers=%d last_shipped=%d last_applied=%d lag=%d\n",
			rs.Role, rs.Peers, rs.LastShipped, rs.LastApplied, rs.Lag)
	}
}

// ms renders a duration as milliseconds with one decimal, the unit of
// the restart figures in the banner and the shutdown report.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

func runClient(addr string, conns, ops, pipeline int) {
	fmt.Printf("oftm-server: loading %s (%d conns x %d ops, pipeline %d)\n", addr, conns, ops, pipeline)
	stats, err := server.RunLoad(addr, conns, ops, pipeline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oftm-server: load: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  acked requests: %d in %v (%.0f ops/s)\n", stats.Ops, stats.Elapsed.Round(1e6), stats.OpsPerSec())
	fmt.Printf("  server committed transactions: %d\n", stats.ServerTxns)
	if stats.Ops == 0 || stats.ServerTxns == 0 {
		fmt.Fprintln(os.Stderr, "oftm-server: smoke FAILED: zero acked requests or zero committed transactions")
		os.Exit(1)
	}
	fmt.Println("  smoke OK")
}
