// Package kv is the serving-layer keyed store of the reproduction: a
// sharded transactional key-value map built on the engine-generic TM
// API. String keys are interned to dense uint64 handles, and every
// handle owns one slot of two t-variables (present, val) allocated when
// the key is first interned, so an operation reaches its t-variables by
// indexing a table, not by traversing a structure. Transactions on
// different keys touch disjoint t-variables, so on a strictly
// disjoint-access-parallel engine (2pl) they never contend, and on the
// OFTM engines they contend only through the engine's own hot spots —
// the store adds no conflict the paper's model does not require. The
// key space is also partitioned across S shards, which are the unit of
// commit ordering (one lock per shard when a commit hook is installed),
// of incremental snapshots (one dirty epoch and one image per shard)
// and of statistics; a shard is not a capacity knob.
//
// Concurrency: a Store is safe for concurrent use by any number of
// goroutines (raw mode) or simulated processes (sim mode; pass the
// *sim.Proc). Every operation is internally a retrying transaction via
// core.Run; multi-key Txn batches are atomic across shards.
package kv

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sim"
)

// ErrCASFailed is returned by Txn when an OpCAS guard did not match:
// the whole batch was rolled back (nothing applied). Single-key CAS
// does not use it — a lone mismatch simply reports swapped=false.
var ErrCASFailed = errors.New("kv: txn aborted by failed CAS guard")

// Effect is one committed write, as observed by a CommitHook: Key now
// holds Val, or (Del) Key was removed. Effects are listed in program
// order of the batch that produced them, so replaying a stream of
// effect lists in commit order reproduces the store state —
// the contract the durability layer (internal/wal) is built on.
type Effect struct {
	Key string
	Val uint64
	Del bool
}

// CommitHook observes the write effects of every committed store
// transaction, called after the engine commit succeeded (read-only
// transactions never reach the hook). The effects slice is reused
// scratch owned by the calling session — valid only for the duration
// of the call. A hook error propagates to the store caller; the
// in-memory commit itself is not undone (the engines have no
// post-commit rollback), so a failing hook means the durability layer
// is behind the memory state and the store should stop serving writes —
// which is exactly how internal/wal treats a write error: sticky
// failure, every subsequent append refused.
//
// Hooks run on the committing goroutine: a slow hook (fsync) is paid
// by that transaction, which is what makes group commit in the hook's
// implementation worthwhile.
type CommitHook func(effects []Effect) error

// SetCommitHook installs hook (nil removes it). Not synchronized with
// in-flight transactions: install before serving traffic — the
// recovery sequence (load state, then hook, then listen) does.
//
// With a hook installed, write batches additionally hold the
// commit-order locks of the shards they touch across the engine
// transaction and the hook, so hook invocation order equals commit
// serialization order (the property a replayed log depends on). Write
// concurrency is then per-shard rather than per-key; reads are
// unaffected. Hooks are a raw-mode facility (the durability layer) —
// do not combine with sim-mode stores, whose cooperative scheduler
// must never block on a real mutex.
func (s *Store) SetCommitHook(hook CommitHook) { s.hook = hook }

// Store is a sharded transactional key-value store.
type Store struct {
	tm     core.TM
	shards []*shard

	// handles is the intern table (string -> uint64). It is a sync.Map
	// because interning sits on the hot path of every operation across
	// all shards: in the steady state (key already interned) Load is a
	// lock-free read, so the table adds no store-wide contended word —
	// which a plain RWMutex reader count would be, defeating exactly
	// the disjointness the per-key slots buy. The mutex serializes only
	// first-time assignments (and guards the shards' handle lists).
	handles sync.Map
	mu      sync.Mutex

	// slots is the handle table: slots[h-1] holds the key interned as
	// handle h and its two t-variables. Published as an immutable-header
	// snapshot so every operation (and the commit-hook path, resolving
	// handle -> key) indexes it lock-free: the slice only ever grows, an
	// element is written before the header carrying it is stored, and
	// handles are handed out only after publication.
	slots atomic.Pointer[[]slot]

	// hook, when set, observes the write effects of every committed
	// transaction (see CommitHook).
	hook CommitHook

	// txns counts committed store operations (each one transaction);
	// crossShard counts those that touched more than one shard. Their
	// ratio is the workload's cross-shard fraction — the quantity a
	// deployment tunes its partitioning to minimize.
	txns       atomic.Int64
	crossShard atomic.Int64

	// sessions pools the internal default sessions behind the
	// session-less Store.Txn / Store.GetMulti compatibility methods, so
	// callers without their own Session still reuse plan scratch.
	sessions sync.Pool
}

// slot is the state of one interned key: present holds 1 while the key
// has a value, val holds that value (stale while present is 0).
type slot struct {
	key          string
	present, val core.Var
}

// get reads the slot's value and whether the key is present.
func (sl *slot) get(tx core.Tx) (uint64, bool, error) {
	p, err := tx.Read(sl.present)
	if err != nil || p == 0 {
		return 0, false, err
	}
	v, err := tx.Read(sl.val)
	if err != nil {
		return 0, false, err
	}
	return v, true, nil
}

// exec applies op to the slot within tx. A CAS mismatch is reported in
// the result (Swapped false); whether it aborts the batch is the
// caller's policy.
func (sl *slot) exec(tx core.Tx, op *Op) (res OpResult, err error) {
	switch op.Kind {
	case OpGet:
		res.Val, res.Found, err = sl.get(tx)
	case OpPut:
		var p uint64
		if p, err = tx.Read(sl.present); err != nil {
			return res, err
		}
		if err = tx.Write(sl.val, op.Val); err == nil && p == 0 {
			res.Found = true
			err = tx.Write(sl.present, 1)
		}
	case OpDelete:
		var p uint64
		if p, err = tx.Read(sl.present); err == nil && p != 0 {
			res.Found = true
			err = tx.Write(sl.present, 0)
		}
	case OpCAS:
		var cur uint64
		cur, res.Found, err = sl.get(tx)
		if err == nil && res.Found && cur == op.Old {
			res.Swapped = true
			err = tx.Write(sl.val, op.Val)
		}
	default:
		err = fmt.Errorf("kv: unknown op kind %d", op.Kind)
	}
	return res, err
}

// shard is one key-space partition: a commit-order lock, a dirty epoch,
// the handles it owns, and stats.
type shard struct {
	// handles lists the shard's handles in intern order, appended under
	// Store.mu, so a per-shard dump reads only its own slots.
	handles []uint64

	ops    atomic.Int64 // committed operations that touched this shard
	aborts atomic.Int64 // aborted attempts (retries) charged to this shard

	// mu is the shard's commit-order lock, taken only when a commit
	// hook is installed: a write batch holds the locks of every shard
	// it touches across [engine transaction .. hook], so the hook
	// observes commits in serialization order. Two conflicting
	// transactions share a key, hence a shard, hence a lock — without
	// it, the later-serialized commit could reach the hook (the WAL
	// append) first and recovery's log-order replay would resurrect
	// the stale value. Hook-free stores (the volatile configuration)
	// never touch it.
	mu sync.Mutex

	// epoch is the shard's dirty counter: bumped once per write effect
	// the shard receives, inside the commit-order critical section and
	// after the hook assigned the batch's log sequence. Incremental
	// snapshots compare two reads of it to decide whether the shard
	// must be re-dumped (see DirtyEpoch / DirtyEpochLocked); a bump is
	// a single atomic add, so dirty tracking costs the write path no
	// allocation and no extra lock.
	epoch atomic.Uint64
}

// New allocates a store with the given shard count (rounded up to at
// least 1) on tm. The third argument was the per-shard bucket count of
// the index the store no longer has; it is ignored and kept only so
// existing callers compile. The t-variables are created on tm, so a
// store attached to a sim-mode engine records like any other
// transactional structure.
func New(tm core.TM, shards, _ int) *Store {
	if shards < 1 {
		shards = 1
	}
	s := &Store{tm: tm}
	for i := 0; i < shards; i++ {
		s.shards = append(s.shards, &shard{})
	}
	s.sessions.New = func() any { return s.NewSession() }
	return s
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// intern returns the stable uint64 handle for key, assigning the next
// dense handle — and allocating its slot's two t-variables — on first
// use. Handles are never reclaimed (the paper's scope excludes epoch
// reclamation), so the handle table grows with the set of distinct keys
// ever touched; deleting and re-putting a key reuses its slot.
func (s *Store) intern(key string) uint64 {
	if h, ok := s.handles.Load(key); ok {
		return h.(uint64)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.handles.Load(key); ok {
		return h.(uint64)
	}
	slots := s.table()
	h := uint64(len(slots) + 1)
	slots = append(slots, s.newSlot(h, key, 0, 0))
	sh := s.shards[s.shardOf(h)]
	sh.handles = append(sh.handles, h)
	// Publish the grown table before the handle becomes observable: any
	// handle a caller holds must index a slot.
	s.slots.Store(&slots)
	s.handles.Store(key, h)
	return h
}

// newSlot creates handle h's two t-variables with the given initial
// values, named kv.h<h>.present and kv.h<h>.val.
func (s *Store) newSlot(h uint64, key string, present, val uint64) slot {
	var buf [40]byte // "kv.h" + 20 digits + ".present" fits; the names are rendered on the stack
	name := strconv.AppendUint(append(buf[:0], "kv.h"...), h, 10)
	stem := len(name)
	return slot{
		key:     key,
		present: s.tm.NewVar(string(append(name, ".present"...)), present),
		val:     s.tm.NewVar(string(append(name[:stem], ".val"...)), val),
	}
}

// Load fills the store from a stream of (key, value) pairs — recovered
// state — at the cost of creating the keys rather than of writing them.
// In the paper's model a t-variable has an initial value and a history
// starts from it; before the first transaction there is one process and
// nothing to isolate it from, so a new key's slot is simply created
// holding (present, val): no transaction begins, no commit hook runs,
// no statistic moves. each is called once with the function to feed
// (wal.Recovered.Each has this shape); n is a hint of how many pairs it
// will yield, used to reserve the handle table and the shards' handle
// lists once. Handles are assigned in stream order, so one stream loads
// any store identically.
//
// A key that is already interned — by an earlier operation, or earlier
// in the same stream — cannot be created again; its pairs are applied
// with Put after the stream ends, in stream order, so the last value
// wins.
//
// Load is a before-serving call, like SetCommitHook and meant to come
// before it (the recovery sequence is Load, then hook, then listen): it
// holds the intern lock across each, and the handles it assigns become
// valid when it returns.
func (s *Store) Load(n int, each func(func(key string, val uint64) error) error) error {
	var again []Pair // pairs of already-interned keys, in stream order
	s.mu.Lock()
	slots := s.table()
	if n > cap(slots)-len(slots) {
		slots = append(make([]slot, 0, len(slots)+n), slots...)
	}
	for _, sh := range s.shards {
		// Handles hash to shards evenly; an eighth of slack absorbs the
		// imbalance of all but tiny loads.
		if want := n/len(s.shards) + n/(8*len(s.shards)) + 8; want > cap(sh.handles)-len(sh.handles) {
			sh.handles = append(make([]uint64, 0, len(sh.handles)+want), sh.handles...)
		}
	}
	err := each(func(key string, val uint64) error {
		// One walk of the intern table both finds an interned key and
		// claims the next handle for a new one.
		h := uint64(len(slots) + 1)
		if _, interned := s.handles.LoadOrStore(key, h); interned {
			again = append(again, Pair{Key: key, Val: val})
			return nil
		}
		slots = append(slots, s.newSlot(h, key, 1, val))
		sh := s.shards[s.shardOf(h)]
		sh.handles = append(sh.handles, h)
		return nil
	})
	// One publication for the whole batch, on the error path too: every
	// handle stored above must index a slot.
	s.slots.Store(&slots)
	s.mu.Unlock()
	for i := 0; err == nil && i < len(again); i++ {
		_, err = s.Put(nil, again[i].Key, again[i].Val)
	}
	return err
}

// table returns the current handle table snapshot.
func (s *Store) table() []slot {
	if t := s.slots.Load(); t != nil {
		return *t
	}
	return nil
}

// KeyOf resolves a handle back to its key (the inverse of
// Session.Handle). It is lock-free and allocation-free — the
// commit-hook path uses it to render write effects.
func (s *Store) KeyOf(h uint64) (string, bool) {
	slots := s.table()
	if h == 0 || h > uint64(len(slots)) {
		return "", false
	}
	return slots[h-1].key, true
}

// shardOf maps a handle to its shard; the multiplier spreads the dense
// handles evenly over any shard count.
func (s *Store) shardOf(h uint64) int {
	return int((h * 0xBF58476D1CE4E5B9) >> 33 % uint64(len(s.shards)))
}

// ShardOf maps a handle to the index of the shard holding it — the
// same partition the execution plan uses. The serving layer's worker
// runtime routes requests by it: a request batch whose handles all map
// to shards owned by one worker executes on that worker's session, so
// the shard's commit-order lock is taken only ever by its owner and is
// uncontended by construction.
func (s *Store) ShardOf(h uint64) int { return s.shardOf(h) }

// record charges a finished single-shard operation to sh: attempts-1
// aborted tries, and one committed op if it succeeded.
func (sh *shard) record(attempts int, committed bool) {
	if attempts > 1 {
		sh.aborts.Add(int64(attempts - 1))
	}
	if committed {
		sh.ops.Add(1)
	}
}

func (s *Store) finish(committed bool, shardsTouched int) {
	if !committed {
		return
	}
	s.txns.Add(1)
	if shardsTouched > 1 {
		s.crossShard.Add(1)
	}
}

// do runs one single-key operation on a pooled internal session, so
// Store singles share the session execution path — including the
// commit hook that the durability layer attaches.
func (s *Store) do(p *sim.Proc, op Op, opts []core.RunOption) (OpResult, error) {
	se := s.sessions.Get().(*Session)
	res, err := se.Do(p, op, opts...)
	s.sessions.Put(se)
	return res, err
}

// Get returns the value stored at key and whether it is present.
func (s *Store) Get(p *sim.Proc, key string, opts ...core.RunOption) (uint64, bool, error) {
	r, err := s.do(p, Op{Kind: OpGet, Handle: s.intern(key)}, opts)
	return r.Val, r.Found, err
}

// Put stores key -> val, reporting whether the key was new.
func (s *Store) Put(p *sim.Proc, key string, val uint64, opts ...core.RunOption) (bool, error) {
	r, err := s.do(p, Op{Kind: OpPut, Handle: s.intern(key), Val: val}, opts)
	return r.Found, err
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(p *sim.Proc, key string, opts ...core.RunOption) (bool, error) {
	r, err := s.do(p, Op{Kind: OpDelete, Handle: s.intern(key)}, opts)
	return r.Found, err
}

// CAS atomically replaces the value at key with new iff the key is
// present and currently holds old. It reports (swapped, existed):
// (false, false) for a missing key, (false, true) on value mismatch.
func (s *Store) CAS(p *sim.Proc, key string, old, new uint64, opts ...core.RunOption) (swapped, existed bool, err error) {
	r, err := s.do(p, Op{Kind: OpCAS, Handle: s.intern(key), Old: old, Val: new}, opts)
	return r.Swapped, r.Found, err
}

// OpKind enumerates the operations a Txn batch may contain.
type OpKind uint8

const (
	// OpGet reads a key.
	OpGet OpKind = iota
	// OpPut stores Val at Key.
	OpPut
	// OpDelete removes Key.
	OpDelete
	// OpCAS replaces Old with Val at Key if it matches.
	OpCAS
)

// Op is one operation of an atomic multi-key batch. Key names the
// target; a nonzero Handle (obtained from Session.Handle /
// Session.HandleBytes of the same store) pre-resolves it and skips the
// intern lookup — the wire server's allocation-free path, where ops
// carry only handles and Key stays empty.
type Op struct {
	Kind OpKind
	Key  string
	Val  uint64 // Put value / CAS new value
	Old  uint64 // CAS expected value
	// Handle, when nonzero, is Key's pre-interned handle. Handles are
	// assigned from 1, so zero always means "resolve Key".
	Handle uint64
}

// OpResult is the outcome of one Op, in batch order.
type OpResult struct {
	// Val is the value read (OpGet) — zero when absent.
	Val uint64
	// Found reports key presence: the Get hit, the Delete removed,
	// the CAS found the key; for Put it reports the key was new.
	Found bool
	// Swapped reports OpCAS success.
	Swapped bool
}

// Txn executes ops as one atomic transaction spanning any number of
// shards, returning per-op results in batch order. A batch containing
// no writes (all OpGet) is a read-only transaction and commits on the
// engines' validation-free read-only path — the snapshot fast path.
//
// OpCAS acts as a guard: if its expected value does not match (or the
// key is missing), the entire batch rolls back and Txn returns
// ErrCASFailed — conditional multi-key updates are all-or-nothing, so
// a CAS-pair transfer can never half-apply.
//
// Txn runs on a pooled internal session (the plan scratch is reused
// across calls); callers on a hot path should hold their own Session,
// whose Txn also reuses the result slice.
func (s *Store) Txn(p *sim.Proc, ops []Op, opts ...core.RunOption) ([]OpResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	se := s.sessions.Get().(*Session)
	res, err := se.Txn(p, ops, opts...)
	var out []OpResult
	if err == nil {
		// Copy out of the session scratch: the pooled session may be
		// reused by any goroutine the moment it is returned.
		out = make([]OpResult, len(res))
		copy(out, res)
	}
	s.sessions.Put(se)
	return out, err
}

// Lookup is one result of GetMulti.
type Lookup struct {
	Val   uint64
	Found bool
}

// GetMulti reads any number of keys in one read-only transaction — a
// consistent snapshot across shards. Read-only transactions serialize
// at their snapshot timestamp and commit without validation on the
// versioned engines (dstm, nztm), so this is the cheap way to take
// cross-shard snapshots under write traffic.
func (s *Store) GetMulti(p *sim.Proc, keys []string, opts ...core.RunOption) ([]Lookup, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	se := s.sessions.Get().(*Session)
	res, err := se.GetMulti(p, keys, opts...)
	var out []Lookup
	if err == nil {
		out = make([]Lookup, len(res))
		copy(out, res)
	}
	s.sessions.Put(se)
	return out, err
}

// Pair is one key/value entry of a Dump.
type Pair struct {
	Key string
	Val uint64
}

// Dump reads every present key in one read-only transaction — a
// consistent cut of the whole store, serialized at its snapshot
// timestamp on the versioned engines and committed without validation
// (the same fast path as GetMulti). The durability layer uses it to
// take snapshots under live write traffic. Pairs are returned in
// handle order (insertion order of first intern), which is stable
// across calls.
func (s *Store) Dump(p *sim.Proc, opts ...core.RunOption) ([]Pair, error) {
	// Snapshot the handle space first: keys interned after this point
	// belong to transactions that will be replayed from the log anyway.
	slots := s.table()
	if len(slots) == 0 {
		return nil, nil
	}
	pairs := make([]Pair, 0, len(slots))
	attempts := 0
	err := core.Run(s.tm, p, func(tx core.Tx) error {
		attempts++
		pairs = pairs[:0]
		for i := range slots {
			var err error
			if pairs, err = slots[i].appendPair(tx, pairs); err != nil {
				return err
			}
		}
		return nil
	}, opts...)
	committed := err == nil
	for _, sh := range s.shards {
		sh.record(attempts, committed)
	}
	s.finish(committed, len(s.shards))
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// appendPair appends the slot's (key, value) to pairs if the key is
// present as of tx.
func (sl *slot) appendPair(tx core.Tx, pairs []Pair) ([]Pair, error) {
	v, ok, err := sl.get(tx)
	if err == nil && ok {
		pairs = append(pairs, Pair{Key: sl.key, Val: v})
	}
	return pairs, err
}

// DumpShard reads every present key of one shard in its own read-only
// transaction. The snapshot writer streams a cut shard by shard with
// it: each shard's image is internally consistent (one transaction),
// dumps of different shards overlap live write traffic instead of
// freezing the whole store, and any write that lands between a shard's
// dump and the cut sequence is repaired by the idempotent tail replay —
// the same prefix-repair contract Dump relies on. Pairs are in the
// order Dump lists them.
func (s *Store) DumpShard(shard int) ([]Pair, error) {
	sh := s.shards[shard]
	// Appends write past the header copied here, never under it, so the
	// copy stays readable after the unlock; the table is loaded second
	// and therefore covers every handle in it.
	s.mu.Lock()
	handles := sh.handles
	s.mu.Unlock()
	if len(handles) == 0 {
		return nil, nil
	}
	slots := s.table()
	var pairs []Pair
	attempts := 0
	err := core.Run(s.tm, nil, func(tx core.Tx) error {
		attempts++
		pairs = pairs[:0]
		for _, h := range handles {
			var err error
			if pairs, err = slots[h-1].appendPair(tx, pairs); err != nil {
				return err
			}
		}
		return nil
	})
	committed := err == nil
	sh.record(attempts, committed)
	s.finish(committed, 1)
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// DirtyEpoch returns shard i's dirty counter with a plain atomic load —
// the cheap read for reporting and pre-cut sampling.
func (s *Store) DirtyEpoch(i int) uint64 { return s.shards[i].epoch.Load() }

// DirtyEpochLocked returns shard i's dirty counter observed under the
// shard's commit-order lock. Because every write batch holds that lock
// across [engine commit .. WAL append .. epoch bump], a locked read
// taken *after* the snapshot cut sequence was read is guaranteed to
// include the bump of every record at or before the cut: any batch
// whose sequence was assigned before the cut read completed its
// critical section — bump included — before this read acquired the
// lock. That ordering is what lets the incremental snapshot writer
// trust "epoch unchanged" to mean "no effect on this shard needs a
// fresh image" (see internal/wal's chain writer).
func (s *Store) DirtyEpochLocked(i int) uint64 {
	sh := s.shards[i]
	sh.mu.Lock()
	e := sh.epoch.Load()
	sh.mu.Unlock()
	return e
}

// Len counts all present keys atomically (a long read-only transaction:
// one read per key ever interned).
func (s *Store) Len(p *sim.Proc, opts ...core.RunOption) (int, error) {
	slots := s.table()
	var n int
	attempts := 0
	err := core.Run(s.tm, p, func(tx core.Tx) error {
		attempts++
		n = 0
		for i := range slots {
			present, err := tx.Read(slots[i].present)
			if err != nil {
				return err
			}
			if present != 0 {
				n++
			}
		}
		return nil
	}, opts...)
	committed := err == nil
	for _, sh := range s.shards {
		sh.record(attempts, committed)
	}
	s.finish(committed, len(s.shards))
	return n, err
}

// ShardStats is the per-shard counter snapshot.
type ShardStats struct {
	Ops    int64 // committed operations that touched the shard
	Aborts int64 // aborted attempts (retries) charged to the shard
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Shards     []ShardStats
	Txns       int64 // committed store transactions
	CrossShard int64 // ...of which touched more than one shard
}

// CrossShardRatio returns the fraction of committed transactions that
// spanned shards (0 when nothing committed).
func (st Stats) CrossShardRatio() float64 {
	if st.Txns == 0 {
		return 0
	}
	return float64(st.CrossShard) / float64(st.Txns)
}

// Ops sums committed per-shard operation counts.
func (st Stats) Ops() int64 {
	var n int64
	for _, s := range st.Shards {
		n += s.Ops
	}
	return n
}

// Aborts sums per-shard aborted attempts.
func (st Stats) Aborts() int64 {
	var n int64
	for _, s := range st.Shards {
		n += s.Aborts
	}
	return n
}

// Stats snapshots the store counters. The snapshot is not atomic with
// respect to concurrent operations (counters advance independently);
// it is meant for reporting, not invariants.
func (s *Store) Stats() Stats {
	st := Stats{
		Shards:     make([]ShardStats, len(s.shards)),
		Txns:       s.txns.Load(),
		CrossShard: s.crossShard.Load(),
	}
	for i, sh := range s.shards {
		st.Shards[i] = ShardStats{Ops: sh.ops.Load(), Aborts: sh.aborts.Load()}
	}
	return st
}
