// Package oftm is the public face of the reproduction of "On
// Obstruction-Free Transactions" (Guerraoui & Kapałka, SPAA 2008): a
// family of software transactional memory engines sharing one API —
//
//   - NewDSTM: the DSTM-style obstruction-free STM (revocable CAS
//     ownership, invisible validated reads, contention managers);
//   - NewAlg2: the paper's Algorithm 2, an OFTM built from fail-only
//     consensus objects and registers only;
//   - NewNZTM: a zero-indirection OFTM (eager in-place writes with undo
//     logs, NZTM-style);
//   - NewTwoPhaseLocking, NewTL2, NewCoarseLock: the lock-based
//     baselines the paper contrasts with (strictly
//     disjoint-access-parallel, global-clock, and global-lock
//     respectively);
//
// plus the simulation substrate that runs any engine under a
// step-level adversarial scheduler, the checkers for serializability /
// opacity / obstruction-freedom / strict disjoint-access-parallelism,
// and transactional data structures (counter, bank, set, map, queue).
//
// Quick start:
//
//	tm := oftm.NewDSTM()
//	x := tm.NewVar("x", 0)
//	err := oftm.Atomically(tm, func(tx oftm.Tx) error {
//	    v, err := tx.Read(x)
//	    if err != nil {
//	        return err
//	    }
//	    return tx.Write(x, v+1)
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package oftm

import (
	"repro/internal/alg2"
	"repro/internal/base"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/dstm"
	"repro/internal/kv"
	"repro/internal/locktm"
	"repro/internal/model"
	"repro/internal/nztm"
	"repro/internal/sim"
)

// Core transactional API, re-exported from the engine-generic layer.
type (
	// TM is a software transactional memory engine.
	TM = core.TM
	// Tx is one transaction (single-goroutine use).
	Tx = core.Tx
	// Var is a transactional variable holding a uint64 word.
	Var = core.Var
	// RunOption configures Atomically / Run retries.
	RunOption = core.RunOption
	// TxID identifies a transaction T_{i,k}.
	TxID = model.TxID
	// Status is live / committed / aborted.
	Status = model.Status
)

// ErrAborted is returned by transactional operations whose transaction
// has been (forcefully or voluntarily) aborted.
var ErrAborted = core.ErrAborted

// MaxAttempts bounds Atomically's retries.
func MaxAttempts(n int) RunOption { return core.MaxAttempts(n) }

// Atomically runs fn in a transaction on tm, retrying forceful aborts,
// in raw mode (outside the simulator). It is the standard application
// entry point.
func Atomically(tm TM, fn func(Tx) error, opts ...RunOption) error {
	return core.Run(tm, nil, fn, opts...)
}

// Simulation substrate, for deterministic schedules and checking.
type (
	// SimEnv is a simulated shared-memory environment (see internal/sim).
	SimEnv = sim.Env
	// Proc is a simulated process; engine operations take it so steps can
	// be scheduled and recorded. nil means raw mode.
	Proc = sim.Proc
)

// NewSim returns a fresh simulation environment.
func NewSim() *SimEnv { return sim.New() }

// Scheduler decides which simulated process steps next.
type Scheduler = sim.Scheduler

// RoundRobin grants steps cyclically.
func RoundRobin() Scheduler { return sim.RoundRobin() }

// RandomSchedule grants steps uniformly at random (seeded).
func RandomSchedule(seed int64) Scheduler { return sim.Random(seed) }

// Solo grants every step to one process — the paper's
// step-contention-free execution for that process.
func Solo(proc int) Scheduler { return sim.Solo(model.ProcID(proc)) }

// AtomicallyOn is Atomically for a simulated process.
func AtomicallyOn(tm TM, p *Proc, fn func(Tx) error, opts ...RunOption) error {
	return core.Run(tm, p, fn, opts...)
}

// ContentionManager decides conflicts in DSTM (see internal/cm).
type ContentionManager = cm.Manager

// The stock contention managers.
var (
	Aggressive ContentionManager = cm.Aggressive{}
	Polite     ContentionManager = cm.Polite{}
	Karma      ContentionManager = cm.Karma{}
	Timestamp  ContentionManager = cm.Timestamp{}
)

// NewDSTM returns the DSTM-style OFTM with the Polite manager. Use
// options to change the manager or attach a simulation environment.
func NewDSTM(opts ...EngineOption) TM {
	var c engineConfig
	for _, o := range opts {
		o(&c)
	}
	var dopts []dstm.Option
	if c.env != nil {
		dopts = append(dopts, dstm.WithEnv(c.env))
	}
	if c.mgr != nil {
		dopts = append(dopts, dstm.WithManager(c.mgr))
	}
	if c.validateAtCommit {
		dopts = append(dopts, dstm.ValidateAtCommitOnly())
	}
	if c.noEpoch {
		dopts = append(dopts, dstm.WithoutEpochValidation())
	}
	if c.globalEpoch {
		dopts = append(dopts, dstm.GlobalEpochOnly())
	}
	return dstm.New(dopts...)
}

// NewAlg2 returns the paper's Algorithm 2 OFTM (fo-consensus +
// registers). Deliberately impractical but fully functional.
func NewAlg2(opts ...EngineOption) TM {
	var c engineConfig
	for _, o := range opts {
		o(&c)
	}
	var aopts []alg2.Option
	if c.env != nil {
		aopts = append(aopts, alg2.WithEnv(c.env))
	}
	if c.adversarialFoCons {
		aopts = append(aopts, alg2.WithFoConsPolicy(base.AbortOnContention))
	}
	return alg2.New(aopts...)
}

// NewTwoPhaseLocking returns the strictly disjoint-access-parallel
// lock-based baseline (encounter-time exclusive two-phase locking).
func NewTwoPhaseLocking(opts ...EngineOption) TM {
	return locktm.NewTwoPhase(lockOpts(opts)...)
}

// NewTL2 returns the global-version-clock lock-based baseline.
func NewTL2(opts ...EngineOption) TM {
	return locktm.NewGlobalClock(lockOpts(opts)...)
}

// NewCoarseLock returns the single-global-lock baseline.
func NewCoarseLock(opts ...EngineOption) TM {
	return locktm.NewCoarse(lockOpts(opts)...)
}

// EngineOption configures the facade constructors.
type EngineOption func(*engineConfig)

type engineConfig struct {
	env               *sim.Env
	mgr               cm.Manager
	validateAtCommit  bool
	adversarialFoCons bool
	noEpoch           bool
	globalEpoch       bool
}

// InSim attaches the engine's base objects to a simulation environment.
func InSim(env *SimEnv) EngineOption {
	return func(c *engineConfig) { c.env = env }
}

// WithManager selects DSTM's contention manager.
func WithManager(m ContentionManager) EngineOption {
	return func(c *engineConfig) { c.mgr = m }
}

// ValidateAtCommitOnly selects DSTM's ablation variant (serializable
// but not opaque).
func ValidateAtCommitOnly() EngineOption {
	return func(c *engineConfig) { c.validateAtCommit = true }
}

// NoEpochValidation disables versioned read-set validation in DSTM and
// NZTM entirely, restoring the paper's reference O(R²)
// full-scan-per-read behavior — the ablation knob for experiment E8f.
func NoEpochValidation() EngineOption {
	return func(c *engineConfig) { c.noEpoch = true }
}

// WithGlobalEpochOnly selects the PR 1 all-or-nothing commit counter in
// DSTM and NZTM instead of per-variable versioned validation: one
// shared epoch word that any commit (or forceful abort) bumps, forcing
// every reader in the system into a full read-set rescan on its next
// access. Kept as the ablation control for the contended-read
// experiments (E8g) and the contended complexity tests.
func WithGlobalEpochOnly() EngineOption {
	return func(c *engineConfig) { c.globalEpoch = true }
}

// TMStats is a snapshot of engine-internal counters (commit epoch,
// forceful aborts).
type TMStats = core.TMStats

// StatsOf returns tm's TMStats when the engine exposes them.
func StatsOf(tm TM) (TMStats, bool) { return core.StatsOf(tm) }

// AdversarialFoCons makes Algorithm 2's fo-consensus objects use their
// abort licence maximally (testing the worst case the spec allows).
func AdversarialFoCons() EngineOption {
	return func(c *engineConfig) { c.adversarialFoCons = true }
}

func lockOpts(opts []EngineOption) []locktm.Option {
	var c engineConfig
	for _, o := range opts {
		o(&c)
	}
	var lopts []locktm.Option
	if c.env != nil {
		lopts = append(lopts, locktm.WithEnv(c.env))
	}
	return lopts
}

// Transactional data structures, re-exported.
type (
	// Counter is a shared transactional counter.
	Counter = ds.Counter
	// Bank is a fixed set of accounts with atomic transfers.
	Bank = ds.Bank
	// IntSet is a sorted linked-list set.
	IntSet = ds.IntSet
	// Hash is a fixed-bucket transactional map.
	Hash = ds.Hash
	// Queue is a bounded transactional FIFO.
	Queue = ds.Queue
)

// NewCounter allocates a counter on tm.
func NewCounter(tm TM, init uint64) *Counter { return ds.NewCounter(tm, init) }

// NewBank allocates n accounts holding initial each.
func NewBank(tm TM, n int, initial uint64) *Bank { return ds.NewBank(tm, n, initial) }

// NewIntSet allocates an empty sorted set.
func NewIntSet(tm TM) *IntSet { return ds.NewIntSet(tm) }

// NewHash allocates a map with the given bucket count.
func NewHash(tm TM, buckets int) *Hash { return ds.NewHash(tm, buckets) }

// NewQueue allocates a bounded FIFO.
func NewQueue(tm TM, capacity int) *Queue { return ds.NewQueue(tm, capacity) }

// NewNZTM returns the zero-indirection OFTM (NZTM-style [29]): eager
// in-place writes with undo logs, revocable ownership, invisible
// validated reads. The repository's second obstruction-free design
// point, contrasting with DSTM's locator indirection.
func NewNZTM(opts ...EngineOption) TM {
	var c engineConfig
	for _, o := range opts {
		o(&c)
	}
	var nopts []nztm.Option
	if c.env != nil {
		nopts = append(nopts, nztm.WithEnv(c.env))
	}
	if c.mgr != nil {
		nopts = append(nopts, nztm.WithManager(c.mgr))
	}
	if c.noEpoch {
		nopts = append(nopts, nztm.WithoutEpochValidation())
	}
	if c.globalEpoch {
		nopts = append(nopts, nztm.GlobalEpochOnly())
	}
	return nztm.New(nopts...)
}

// Serving layer: the sharded transactional key-value store
// (internal/kv), re-exported. The wire server above it lives in
// internal/server / cmd/oftm-server.
type (
	// KV is a sharded transactional key-value store: string keys
	// interned to handles, the key space partitioned across shards each
	// backed by its own hash index, atomic multi-key Txn batches, and a
	// validation-free read-only snapshot path (GetMulti).
	KV = kv.Store
	// KVOp is one operation of an atomic multi-key batch.
	KVOp = kv.Op
	// KVOpResult is one KVOp outcome.
	KVOpResult = kv.OpResult
	// KVStats is the store's per-shard counter snapshot.
	KVStats = kv.Stats
	// KVSession is a single-goroutine store handle (KV.NewSession): a
	// private key-handle cache plus reusable batch scratch, so repeated
	// operation shapes run allocation-free — one per connection/worker.
	KVSession = kv.Session
)

// The KVOp kinds.
const (
	KVGet    = kv.OpGet
	KVPut    = kv.OpPut
	KVDelete = kv.OpDelete
	KVCAS    = kv.OpCAS
)

// ErrKVCASFailed is returned by KV.Txn when a CAS guard did not match
// and the whole batch rolled back.
var ErrKVCASFailed = kv.ErrCASFailed

// NewKV allocates a sharded transactional key-value store on tm with
// the given shard count. The third argument (once hash buckets per
// shard) is ignored; it is kept so existing callers compile.
func NewKV(tm TM, shards, _ int) *KV {
	return kv.New(tm, shards, 0)
}

// SkipList is a transactional sorted set with logarithmic search.
type SkipList = ds.SkipList

// NewSkipList allocates a skip list with the given level count.
func NewSkipList(tm TM, levels int) *SkipList { return ds.NewSkipList(tm, levels) }

// NewIntSetEarlyRelease allocates an IntSet whose traversals use
// DSTM-style early release when the engine supports it.
func NewIntSetEarlyRelease(tm TM) *IntSet { return ds.NewIntSetEarlyRelease(tm) }
