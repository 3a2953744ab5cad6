// Package server exposes the sharded transactional store (internal/kv)
// over TCP with a small line protocol — the request path of the
// serving stack. One line per request, space-separated tokens, uint64
// values in decimal, one (or, for EXEC, several) response line(s) per
// request in request order:
//
//	PING                     -> PONG
//	GET <key>                -> VALUE <v> | NOTFOUND
//	SET <key> <val>          -> OK NEW | OK
//	DEL <key>                -> DELETED | NOTFOUND
//	CAS <key> <old> <new>    -> SWAPPED | CASFAIL | NOTFOUND
//	LEN                      -> LEN <n>
//	STATS                    -> STATS txns=<n> cross=<n> ratio=<f> ops=<n> aborts=<n> shards=<n>
//	MULTI                    -> OK     (then queue ops, each -> QUEUED)
//	EXEC                     -> RESULTS <n> + n result lines | ABORTED cas-guard
//	DISCARD                  -> OK
//	QUIT                     -> BYE (server closes the connection)
//
// Pipelining: clients may send any number of requests without waiting.
// The connection handler folds consecutive pipelined unconditional
// single-key requests (GET/SET/DEL) into one engine transaction of up
// to Config.Batch operations — per-connection request batching, which
// amortizes transaction begin/commit over the whole batch. Conditional
// requests (CAS) and everything else execute on their own so that
// independent pipelined requests can never abort each other; an
// explicit MULTI..EXEC batch, by contrast, is deliberately
// all-or-nothing (a failed CAS guard rolls the whole batch back).
//
// The request path is byte-level and allocation-free in the steady
// state: requests are tokenized in place over the bufio read buffer,
// verbs case-fold through a table, keys resolve to pre-interned
// handles via a per-connection kv.Session, and replies render through
// reused scratch buffers (conn.go).
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dstm"
	"repro/internal/faultfs"
	"repro/internal/kv"
	"repro/internal/locktm"
	"repro/internal/nztm"
	"repro/internal/repl"
	"repro/internal/wal"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7070".
	Addr string
	// Engine selects the STM engine: dstm | nztm | 2pl | tl2 | coarse.
	Engine string
	// Shards is the store's shard count (default 8).
	Shards int
	// Batch bounds how many pipelined unconditional requests are folded
	// into one transaction (default 64; 1 disables batching).
	Batch int
	// MaxMultiOps bounds a MULTI..EXEC batch (default 256).
	MaxMultiOps int
	// MaxLine bounds a single request line in bytes (default 1 MiB). A
	// longer line answers `ERR line too long` and the connection is
	// closed: the line cannot be parsed without buffering it, so the
	// bound caps per-connection memory against runaway (or hostile)
	// unterminated requests.
	MaxLine int
	// Runtime selects the connection execution model. "worker" (the
	// default) runs Workers shard-affine run-to-completion loops:
	// connections are assigned to a worker at accept time, requests
	// route to the worker owning their key's shard, and each worker
	// executes its shard group's requests on a single kv.Session — so
	// the per-shard commit-order locks are taken only by their owner
	// and batches fold across connections (worker.go). "goroutine" is
	// the PR 4 goroutine-per-connection byte path, kept live as the
	// measured baseline and equivalence reference.
	Runtime string
	// Workers is the worker-loop count for Runtime "worker" (default
	// min(GOMAXPROCS, Shards); always capped at Shards — a worker
	// owning no shard would never execute anything).
	Workers int
	// FlushTimeout bounds *flusher progress* per connection on the
	// worker runtime (default 5s; negative disables the kill). Workers
	// never write to sockets — replies are sealed into a per-connection
	// pending buffer and a flusher pool moves the bytes (flusher.go) —
	// so a slow reader cannot stall a worker or a round. A connection
	// whose socket accepts no bytes at all for FlushTimeout is treated
	// as dead and closed. The goroutine runtime does not use it: there
	// a stalled write blocks only the offending connection's handler.
	FlushTimeout time.Duration
	// MaxPendingWrite bounds one connection's sealed-but-unwritten reply
	// bytes (default 1 MiB; negative disables). Past the bound the
	// connection is paused exactly like an escalation — its reader stops
	// feeding, input chunks stay pinned — until the flusher fully drains
	// its backlog. This is the worker runtime's per-connection memory
	// backpressure: a client that pipelines requests faster than it
	// reads replies holds at most this many reply bytes (plus one
	// round's worth) server-side.
	MaxPendingWrite int64

	// WALDir enables the durability layer (internal/wal): committed
	// write effects are logged to this directory, state is recovered
	// from it on startup, and a clean shutdown flushes and fsyncs the
	// tail. Empty disables durability (the PR 3/4 volatile behavior).
	WALDir string
	// Fsync is the WAL fsync policy: "always" (group commit fsyncs
	// before acknowledging), "interval" (timer-driven, the default) or
	// "never" (OS page cache decides).
	Fsync string
	// FsyncInterval is the "interval" policy's fsync period (default
	// 100ms).
	FsyncInterval time.Duration
	// SnapshotEvery takes a periodic snapshot (consistent read-only cut
	// of the store) and truncates covered log segments. 0 disables
	// periodic snapshots; recovery then replays the whole log.
	SnapshotEvery time.Duration
	// WALSegmentBytes caps a log segment before rotation (default 64
	// MiB).
	WALSegmentBytes int64
	// WALFS is the filesystem the WAL writes through (default the real
	// OS). Fault-injection tests and the crash campaign install a
	// faultfs.Injector here; production code leaves it nil.
	WALFS faultfs.FS

	// ReplicateAddr, when set, serves this node's WAL record stream to
	// replicas on a second listener (internal/repl). Requires WALDir.
	// Works on any role: a replica with a replication listener chains
	// its own followers off its ingested stream.
	ReplicateAddr string
	// ReplicaOf, when set, starts the server as a replica of the
	// primary whose *replication* address this is: the store bootstraps
	// from the primary's snapshot/history, applies live records as they
	// ship, serves reads, and answers writes with `ERR readonly` until
	// Promote. Requires WALDir (the replica's own log).
	ReplicaOf string
	// ReplicaConnectTimeout bounds the replica's bootstrap dial
	// (default 10s). After bootstrap, reconnects retry forever.
	ReplicaConnectTimeout time.Duration
}

func (c *Config) fill() {
	if c.Engine == "" {
		c.Engine = "nztm"
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.MaxMultiOps <= 0 {
		c.MaxMultiOps = 256
	}
	if c.MaxLine <= 0 {
		c.MaxLine = 1 << 20
	}
	if c.Fsync == "" {
		c.Fsync = "interval"
	}
	if c.Runtime == "" {
		c.Runtime = "worker"
	}
	if c.Workers <= 0 {
		// GOMAXPROCS, not NumCPU: the loop count should follow what the
		// scheduler will actually run in parallel (bench harnesses and
		// container deployments routinely set GOMAXPROCS below the
		// machine's core count), and it is what the -workers flag help
		// documents.
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if c.FlushTimeout == 0 {
		c.FlushTimeout = 5 * time.Second
	}
	if c.MaxPendingWrite == 0 {
		c.MaxPendingWrite = 1 << 20
	}
}

// NewEngine builds a raw-mode engine by registry name.
func NewEngine(name string) (core.TM, error) {
	switch name {
	case "dstm":
		return dstm.New(), nil
	case "nztm":
		return nztm.New(), nil
	case "2pl":
		return locktm.NewTwoPhase(), nil
	case "tl2":
		return locktm.NewGlobalClock(), nil
	case "coarse":
		return locktm.NewCoarse(), nil
	}
	return nil, fmt.Errorf("server: unknown engine %q (want dstm|nztm|2pl|tl2|coarse)", name)
}

// Server owns one engine, one store, one listener and (when WALDir is
// set) one write-ahead log.
type Server struct {
	cfg   Config
	tm    core.TM
	store *kv.Store

	// log is the durability layer, nil when Config.WALDir is empty.
	log       *wal.Log
	recovered wal.Recovered
	// replayTime and loadTime split the restart: recovering the log
	// directory (on a replica, the bootstrap handshake included) and
	// loading what it held into the store.
	replayTime, loadTime time.Duration

	snapStop chan struct{}
	snapDone chan struct{}

	// Replication: replSrv ships this node's log to followers
	// (Config.ReplicateAddr); repl is the apply side when the node
	// started as a replica (Config.ReplicaOf). replica flips to false
	// exactly once, at Promote — the commit hook and the verb gate read
	// it on every request, which is what makes promotion a lock-free
	// role flip instead of a hook swap racing in-flight transactions.
	replSrv   *repl.Primary
	repl      *repl.Replica
	replica   atomic.Bool
	promoteMu sync.Mutex

	// rt is the shard-affine worker runtime (worker.go), nil when
	// Config.Runtime selects the goroutine-per-connection path.
	rt *workerRuntime

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup

	// requests counts parsed protocol requests: one per non-blank
	// request line, so an EXEC of n queued ops counts once.
	requests atomic.Int64
}

// New builds a server (no listening yet). When cfg.WALDir is set it
// also runs recovery: the store is loaded from the latest snapshot
// plus the replayed log tail before the commit hook is installed, so
// recovery loads are not re-logged.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	switch cfg.Runtime {
	case "worker", "goroutine":
	default:
		return nil, fmt.Errorf("server: unknown runtime %q (want worker|goroutine)", cfg.Runtime)
	}
	tm, err := NewEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		tm:    tm,
		store: kv.New(tm, cfg.Shards, 0),
		conns: map[net.Conn]struct{}{},
	}
	switch {
	case cfg.ReplicaOf != "":
		if cfg.WALDir == "" {
			return nil, errors.New("server: ReplicaOf requires WALDir (the replica's own log)")
		}
		if err := s.openReplicaWAL(cfg); err != nil {
			return nil, err
		}
	case cfg.WALDir != "":
		if err := s.openWAL(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.ReplicateAddr != "" {
		if s.log == nil {
			return nil, errors.New("server: ReplicateAddr requires WALDir (a log to ship)")
		}
		s.replSrv = repl.NewPrimary(s.log)
	}
	if cfg.Runtime == "worker" {
		s.rt = newWorkerRuntime(s, cfg.Workers)
	}
	return s, nil
}

// openWAL recovers and attaches the durability layer.
func (s *Server) openWAL(cfg Config) error {
	policy, err := wal.ParsePolicy(cfg.Fsync)
	if err != nil {
		return err
	}
	start := time.Now()
	l, rec, err := wal.Open(wal.Options{
		Dir:          cfg.WALDir,
		Policy:       policy,
		Interval:     cfg.FsyncInterval,
		SegmentBytes: cfg.WALSegmentBytes,
		FS:           cfg.WALFS,
	})
	if err != nil {
		return fmt.Errorf("server: wal: %w", err)
	}
	if err := s.loadRecovered(&rec, time.Since(start)); err != nil {
		l.Close()
		return fmt.Errorf("server: wal: loading recovered state: %w", err)
	}
	s.store.SetCommitHook(l.Append)
	s.log = l
	if cfg.SnapshotEvery > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(cfg.SnapshotEvery)
	}
	return nil
}

// openReplicaWAL bootstraps the node as a replica: its own log is
// recovered, the primary is dialed (installing a shipped snapshot when
// the primary's retained history no longer reaches us), the resulting
// state is loaded into the store, and the live apply loop starts. The
// commit hook is role-aware from the start: while the node is a
// replica the only committers are the apply loop, whose records are
// already in the log via ingest, so the hook appends nothing; after
// Promote flips the role, the same hook appends like a normal primary —
// no hook swap, hence no race against in-flight transactions.
func (s *Server) openReplicaWAL(cfg Config) error {
	policy, err := wal.ParsePolicy(cfg.Fsync)
	if err != nil {
		return err
	}
	start := time.Now()
	r, rec, err := repl.Connect(repl.ReplicaConfig{
		PrimaryAddr:    cfg.ReplicaOf,
		ConnectTimeout: cfg.ReplicaConnectTimeout,
		WAL: wal.Options{
			Dir:          cfg.WALDir,
			Policy:       policy,
			Interval:     cfg.FsyncInterval,
			SegmentBytes: cfg.WALSegmentBytes,
			FS:           cfg.WALFS,
		},
	})
	if err != nil {
		return fmt.Errorf("server: replica bootstrap: %w", err)
	}
	s.replica.Store(true)
	l := r.Log()
	if err := s.loadRecovered(&rec, time.Since(start)); err != nil {
		r.Stop()
		l.Close()
		return fmt.Errorf("server: replica: loading bootstrap state: %w", err)
	}
	s.store.SetCommitHook(func(effects []kv.Effect) error {
		if s.replica.Load() {
			return nil
		}
		return l.Append(effects)
	})
	s.log = l
	s.repl = r
	r.Start(s.store)
	if cfg.SnapshotEvery > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(cfg.SnapshotEvery)
	}
	return nil
}

// loadRecovered loads what recovery (which took replay) reconstructed
// into the still-private store — before the commit hook exists, so
// nothing is re-logged — and records where the restart's time went.
func (s *Server) loadRecovered(rec *wal.Recovered, replay time.Duration) error {
	start := time.Now()
	if err := s.store.Load(rec.Keys, rec.Each); err != nil {
		return err
	}
	s.replayTime, s.loadTime = replay, time.Since(start)
	// The store holds the state now; keeping recovery's copy too would
	// double resident memory for the server's whole lifetime.
	rec.Release()
	s.recovered = *rec
	return nil
}

// snapshotLoop takes periodic snapshots until Close.
func (s *Server) snapshotLoop(every time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			// Best effort: a failed snapshot (e.g. mid-shutdown) leaves
			// the previous one in place and the full tail replayable.
			s.SnapshotNow()
		}
	}
}

// SnapshotNow takes one snapshot of the store and truncates the covered
// log history: an incremental chain cut, where shards dirtied since the
// previous cut are re-dumped (each in its own read-only transaction, so
// writers never stall behind a whole-store freeze) and clean shards stay
// linked to their existing images. Errors when the server runs without
// a WAL.
func (s *Server) SnapshotNow() error {
	if s.log == nil {
		return errors.New("server: no WAL configured")
	}
	if s.repl != nil && s.replica.Load() {
		// A replica's log runs ahead of its store (ingest is WAL-first),
		// so the safe cut is the last *applied* seq, not the log tail.
		// The applied-cut read precedes the writer's epoch reads, which
		// is the ordering the dirty-shard classification needs: the
		// apply loop bumps a shard's epoch before advancing LastApplied.
		return s.log.WriteSnapshotIncCut(s.repl.Stats().LastApplied, s.store)
	}
	return s.log.WriteSnapshotInc(s.store)
}

// Role reports the node's replication role: "replica" until Promote,
// "primary" otherwise (including servers without replication).
func (s *Server) Role() string {
	if s.replica.Load() {
		return "replica"
	}
	return "primary"
}

func (s *Server) isReplica() bool { return s.replica.Load() }

// errReplicaReadonly answers writes on a replica. It renders through
// the same `ERR readonly` degradation path as the WAL's fail-stop
// latch, so clients see one uniform refusal shape.
var errReplicaReadonly = errors.New("server: replica mode; writes go to the primary")

// ReplAddr returns the bound replication listener address (nil without
// Config.ReplicateAddr or before Listen).
func (s *Server) ReplAddr() net.Addr {
	if s.replSrv == nil {
		return nil
	}
	return s.replSrv.Addr()
}

// ReplStats is the replication section of STATS, valid on both roles.
type ReplStats struct {
	Role        string
	Peers       int    // connected followers (shipping side)
	LastShipped uint64 // newest seq shipped to any follower
	LastApplied uint64 // newest seq applied from a primary (replica side)
	Lag         uint64 // records behind: primary durable - min shipped (primary with peers) or - last applied (replica)
}

// ReplStats snapshots the node's replication position.
func (s *Server) ReplStats() ReplStats {
	st := ReplStats{Role: s.Role()}
	if s.replSrv != nil {
		ps := s.replSrv.Stats()
		st.Peers = ps.Peers
		st.LastShipped = ps.LastShipped
		if s.log != nil && ps.Peers > 0 {
			if d := s.log.DurableSeq(); d > ps.MinShipped {
				st.Lag = d - ps.MinShipped
			}
		}
	}
	if s.repl != nil {
		rs := s.repl.Stats()
		st.LastApplied = rs.LastApplied
		if s.replica.Load() {
			st.Lag = rs.Lag()
		}
	}
	return st
}

// Promote seals a replica's log at its last contiguous sequence and
// flips the node to accepting writes: the apply loop is stopped and
// drained first (so the store is quiescent and exactly matches the
// ingested prefix), then the role atomic flips — from that point the
// commit hook appends client writes to the log, resuming at the sealed
// seq + 1. Ingest refused every gapped or corrupt shipped batch, so
// the sealed log is always an exact prefix of the dead primary's
// stream — never a hole. Idempotent errors: promoting a primary (or a
// node that never was a replica) fails.
func (s *Server) Promote() (uint64, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.repl == nil || !s.replica.Load() {
		return 0, errors.New("server: not a replica")
	}
	s.repl.Stop()
	s.replica.Store(false)
	return s.log.LastSeq(), nil
}

// WAL returns the attached log (nil without Config.WALDir).
func (s *Server) WAL() *wal.Log { return s.log }

// Recovered reports what startup recovery reconstructed (zero value
// without Config.WALDir). Its State map is dropped after loading —
// read Keys for the recovered key count.
func (s *Server) Recovered() wal.Recovered { return s.recovered }

// RecoveryTimes reports where the restart went: replay is the time
// spent recovering the log directory (wal.Open; on a replica, the
// bootstrap handshake with the primary too), load the time spent
// loading the recovered keys into the store. Both are zero without a
// WAL.
func (s *Server) RecoveryTimes() (replay, load time.Duration) {
	return s.replayTime, s.loadTime
}

// Store returns the underlying kv store (for embedding and tests).
func (s *Server) Store() *kv.Store { return s.store }

// TM returns the engine.
func (s *Server) TM() core.TM { return s.tm }

// Requests returns the number of protocol requests parsed so far.
// Connection handlers publish their count when they flush responses
// and when they exit, so the figure is exact once connections are
// drained (the shutdown report) and at most a flush behind in between.
func (s *Server) Requests() int64 { return s.requests.Load() }

// Addr returns the bound listen address (nil before ListenAndServe).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Listen binds the configured address. Serve (or ListenAndServe) then
// accepts on it; separating the two lets callers learn the bound port
// of ":0" listeners before serving.
func (s *Server) Listen() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if s.replSrv != nil {
		if err := s.replSrv.Listen(s.cfg.ReplicateAddr); err != nil {
			lis.Close()
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		lis.Close()
		return errors.New("server: already closed")
	}
	s.lis = lis
	return nil
}

// Serve accepts connections until Close. Returns nil after a clean
// Close.
func (s *Server) Serve() error {
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis == nil {
		return errors.New("server: Serve before Listen")
	}
	if s.replSrv != nil {
		go s.replSrv.Serve()
	}
	var backoff time.Duration
	for {
		c, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed && isTransientAcceptErr(err) {
				// Resource exhaustion (EMFILE and friends) clears when a
				// connection closes; a hot retry loop would spin a core
				// until then. Back off exponentially, reset on success.
				backoff = nextAcceptBackoff(backoff)
				time.Sleep(backoff)
				continue
			}
			s.wg.Wait()
			if closed {
				return nil
			}
			return err
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		// Add under the mutex: Close (which sets closed, also under the
		// mutex) must never run wg.Wait between this conn's registration
		// and its Add, or it could return with the handler still live.
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
		}()
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

// Close stops accepting, closes every open connection, waits for
// their handlers, and — with a WAL attached — stops the snapshot loop
// and flushes/fsyncs the log tail (the clean-shutdown flush). Safe to
// call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	if s.rt != nil {
		// Readers have all exited (wg above), so every EOF is already
		// queued: the workers drain them — publishing the exact request
		// tally — and stop.
		s.rt.stopAll()
	}
	if s.replSrv != nil {
		// Detach followers before the log closes; they reconnect to
		// whoever replaces us.
		s.replSrv.Close()
	}
	if s.repl != nil {
		// Stop ingest before the log closes (the apply loop appends).
		s.repl.Stop()
	}
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
	}
	if s.log != nil {
		// All handlers have drained: this flush covers every
		// acknowledged write.
		if werr := s.log.Close(); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

func (s *Server) serveConn(c net.Conn) {
	if s.rt != nil {
		// The accept goroutine becomes the connection's reader; the
		// owning worker closes the conn (dropConn) when it drains the
		// reader's EOF.
		s.rt.serve(c)
		return
	}
	defer s.dropConn(c)
	newConn(s, c).run()
}

// nextAcceptBackoff doubles the accept retry delay, starting at 5ms
// and capping at 1s.
func nextAcceptBackoff(prev time.Duration) time.Duration {
	if prev <= 0 {
		return 5 * time.Millisecond
	}
	if prev >= time.Second/2 {
		return time.Second
	}
	return prev * 2
}

// isTransientAcceptErr reports whether an Accept error is worth
// retrying with backoff: fd exhaustion (EMFILE/ENFILE clear when
// connections close), connections reset before the accept completed,
// interrupted syscalls, and listener timeouts. Everything else (a
// closed or broken listener) stays fatal.
func isTransientAcceptErr(err error) bool {
	if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED) || errors.Is(err, syscall.EINTR) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// hasCompleteLine reports whether r's buffer already holds a full
// newline-terminated request.
func hasCompleteLine(r *bufio.Reader) bool {
	n := r.Buffered()
	if n == 0 {
		return false
	}
	peek, err := r.Peek(n)
	if err != nil {
		return false
	}
	return bytes.IndexByte(peek, '\n') >= 0
}
