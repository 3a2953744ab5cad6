package kv

import (
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
)

// Session is a store handle owned by one goroutine — one per server
// connection or bench worker. It fronts the store's global intern
// table with a private handle cache and owns the reusable execution
// scratch (sorted plan, result slice, GetMulti op buffer), so that in
// the steady state — keys already interned, batch shapes already seen
// — Txn, GetMulti and the single-key operations run without heap
// allocation.
//
// The private handle cache needs no invalidation protocol: handles are
// never reclaimed, so an entry copied out of the global table stays
// correct forever. The cache can only ever be *behind* the global
// table, never wrong.
//
// A Session is NOT safe for concurrent use. Any number of sessions may
// share one Store concurrently. Result slices returned by Txn and
// GetMulti are owned by the session and valid only until its next
// operation.
type Session struct {
	s     *Store
	cache map[string]uint64

	pl      txnPlan
	results []OpResult
	ops     []Op // batch being executed (set for the duration of a txn)
	mops    []Op // GetMulti scratch batch
	looks   []Lookup
	op1     [1]Op
	aops    []Op     // ApplyEffects scratch batch (replication ingest)
	effects []Effect // commit-hook scratch (reused across transactions)
	locks   []int    // shard indices locked for commit ordering (reused)

	attempts int
	guard    bool // OpCAS mismatch aborts the batch (Txn) vs reports (Do)

	// runFn is the per-attempt closure, allocated once so repeated
	// transactions do not re-capture it.
	runFn func(core.Tx) error
}

// NewSession returns a fresh session on the store.
func (s *Store) NewSession() *Session {
	se := &Session{s: s, cache: make(map[string]uint64)}
	se.runFn = se.attempt
	return se
}

// Store returns the underlying store.
func (se *Session) Store() *Store { return se.s }

// intern resolves key through the session cache, falling back to (and
// then caching) the store's global intern table.
func (se *Session) intern(key string) uint64 {
	if h, ok := se.cache[key]; ok {
		return h
	}
	h := se.s.intern(key)
	se.cache[key] = h
	return h
}

// Handle returns the stable handle for key, interning it on first use.
// Handles are nonzero; an Op carrying a nonzero Handle skips key
// resolution entirely.
func (se *Session) Handle(key string) uint64 { return se.intern(key) }

// HandleBytes is Handle for a byte-slice key (the wire-protocol hot
// path). A cache hit performs no allocation; only the first sighting
// of a key materializes the string.
func (se *Session) HandleBytes(key []byte) uint64 {
	if h, ok := se.cache[string(key)]; ok {
		return h
	}
	k := string(key)
	h := se.s.intern(k)
	se.cache[k] = h
	return h
}

// attempt executes the planned batch once inside tx. It is the body of
// every session transaction (installed once as se.runFn).
func (se *Session) attempt(tx core.Tx) error {
	se.attempts++
	ops, pl := se.ops, &se.pl
	slots := se.s.table()
	for _, i := range pl.order {
		res, err := slots[pl.handles[i]-1].exec(tx, &ops[i])
		se.results[i] = res
		if err != nil {
			return err
		}
		if ops[i].Kind == OpCAS && !res.Swapped && se.guard {
			return ErrCASFailed
		}
	}
	return nil
}

// txn plans and runs ops as one transaction, filling se.results.
func (se *Session) txn(p *sim.Proc, ops []Op, guard bool, opts []core.RunOption) ([]OpResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	s := se.s
	se.pl.fill(s, se, ops)
	// Commit-order locks (see shard.mu): only when a hook is installed
	// and the batch can produce write effects. Taken in ascending shard
	// order (the plan order is sorted by shard), so crossing batches
	// cannot deadlock; held across engine commit + hook so the hook
	// sees commits in serialization order.
	if s.hook != nil && hasWrites(ops) {
		se.lockShards(len(ops))
		defer se.unlockShards()
	}
	se.results = grown(se.results, len(ops))
	se.ops = ops
	se.guard = guard
	se.attempts = 0
	err := core.Run(s.tm, p, se.runFn, opts...)
	se.ops = nil

	pl := &se.pl
	distinct := 0
	for i := range pl.touched {
		pl.touched[i] = false
	}
	for _, si := range pl.shards[:len(ops)] {
		if !pl.touched[si] {
			pl.touched[si] = true
			distinct++
		}
	}
	committed := err == nil
	for si, t := range pl.touched {
		if !t {
			continue
		}
		s.shards[si].record(se.attempts, committed)
	}
	s.finish(committed, distinct)
	if err != nil {
		return nil, err
	}
	if s.hook != nil {
		if herr := se.runHook(ops); herr != nil {
			return nil, herr
		}
	}
	return se.results, nil
}

// runHook renders the committed batch's write effects into the
// session's reusable scratch (program order — same-key ops replay in
// the order they applied) and hands them to the store's commit hook.
// No-op batches (pure reads, missed deletes, failed unguarded CAS)
// never reach the hook, so read traffic stays hook-free.
func (se *Session) runHook(ops []Op) error {
	se.effects = se.effects[:0]
	s, pl := se.s, &se.pl
	for i := range ops {
		key, _ := s.KeyOf(pl.handles[i])
		switch ops[i].Kind {
		case OpPut:
			se.effects = append(se.effects, Effect{Key: key, Val: ops[i].Val})
		case OpDelete:
			if se.results[i].Found {
				se.effects = append(se.effects, Effect{Key: key, Del: true})
			}
		case OpCAS:
			if se.results[i].Swapped {
				se.effects = append(se.effects, Effect{Key: key, Val: ops[i].Val})
			}
		}
	}
	if len(se.effects) == 0 {
		return nil
	}
	err := s.hook(se.effects)
	// Dirty-epoch bumps happen after the hook call — the hook assigned
	// the batch's log sequence — and still inside the commit-order
	// critical section, so a snapshot cut that reads its cut sequence
	// and then the epochs under the shard locks observes the bump of
	// every record at or before the cut (see Store.DirtyEpochLocked).
	// Re-running the effect conditions is allocation-free; a bump on a
	// hook error is harmless over-marking (the WAL is latched anyway).
	for i := range ops {
		switch ops[i].Kind {
		case OpPut:
			s.shards[pl.shards[i]].epoch.Add(1)
		case OpDelete:
			if se.results[i].Found {
				s.shards[pl.shards[i]].epoch.Add(1)
			}
		case OpCAS:
			if se.results[i].Swapped {
				s.shards[pl.shards[i]].epoch.Add(1)
			}
		}
	}
	return err
}

// Txn executes ops as one atomic transaction with Store.Txn semantics
// (stable same-key order, OpCAS guards abort the whole batch with
// ErrCASFailed), reusing the session's plan and result scratch: on a
// repeat batch shape no allocation is performed. The returned slice is
// owned by the session and valid until its next operation.
func (se *Session) Txn(p *sim.Proc, ops []Op, opts ...core.RunOption) ([]OpResult, error) {
	return se.txn(p, ops, true, opts)
}

// Do executes one single-key operation outside any batch, with the
// single-op semantics of the Store methods — in particular an OpCAS
// mismatch reports Swapped=false instead of aborting with ErrCASFailed.
func (se *Session) Do(p *sim.Proc, op Op, opts ...core.RunOption) (OpResult, error) {
	se.op1[0] = op
	res, err := se.txn(p, se.op1[:], false, opts)
	if err != nil {
		return OpResult{}, err
	}
	return res[0], nil
}

// Get returns the value stored at key and whether it is present.
func (se *Session) Get(p *sim.Proc, key string, opts ...core.RunOption) (uint64, bool, error) {
	r, err := se.Do(p, Op{Kind: OpGet, Handle: se.intern(key)}, opts...)
	return r.Val, r.Found, err
}

// Put stores key -> val, reporting whether the key was new.
func (se *Session) Put(p *sim.Proc, key string, val uint64, opts ...core.RunOption) (bool, error) {
	r, err := se.Do(p, Op{Kind: OpPut, Handle: se.intern(key), Val: val}, opts...)
	return r.Found, err
}

// Delete removes key, reporting whether it was present.
func (se *Session) Delete(p *sim.Proc, key string, opts ...core.RunOption) (bool, error) {
	r, err := se.Do(p, Op{Kind: OpDelete, Handle: se.intern(key)}, opts...)
	return r.Found, err
}

// CAS atomically replaces the value at key with new iff it currently
// holds old, reporting (swapped, existed) like Store.CAS.
func (se *Session) CAS(p *sim.Proc, key string, old, new uint64, opts ...core.RunOption) (swapped, existed bool, err error) {
	r, err := se.Do(p, Op{Kind: OpCAS, Handle: se.intern(key), Old: old, Val: new}, opts...)
	return r.Swapped, r.Found, err
}

// GetMulti reads keys in one read-only transaction (a consistent
// cross-shard snapshot) into the session's reusable lookup buffer. The
// returned slice is valid until the session's next operation.
func (se *Session) GetMulti(p *sim.Proc, keys []string, opts ...core.RunOption) ([]Lookup, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	se.mops = grown(se.mops, len(keys))
	for i, k := range keys {
		se.mops[i] = Op{Kind: OpGet, Handle: se.intern(k)}
	}
	res, err := se.txn(p, se.mops, true, opts)
	if err != nil {
		return nil, err
	}
	se.looks = grown(se.looks, len(keys))
	for i, r := range res {
		se.looks[i] = Lookup{Val: r.Val, Found: r.Found}
	}
	return se.looks, nil
}

// hasWrites reports whether the batch contains any op that could
// produce a write effect.
func hasWrites(ops []Op) bool {
	for i := range ops {
		if ops[i].Kind != OpGet {
			return true
		}
	}
	return false
}

// lockShards takes the commit-order locks of the first n planned ops'
// shards, ascending and deduplicated (the plan order is shard-sorted,
// so duplicates are consecutive runs). Allocation-free once the locks
// slice is warm.
func (se *Session) lockShards(n int) {
	pl := &se.pl
	se.locks = se.locks[:0]
	for _, i := range pl.order[:n] {
		si := pl.shards[i]
		if k := len(se.locks); k == 0 || se.locks[k-1] != si {
			se.locks = append(se.locks, si)
		}
	}
	for _, si := range se.locks {
		se.s.shards[si].mu.Lock()
	}
}

func (se *Session) unlockShards() {
	for _, si := range se.locks {
		se.s.shards[si].mu.Unlock()
	}
	se.locks = se.locks[:0]
}

// interner resolves a key to its handle; implemented by *Store (global
// table) and *Session (private cache in front of it).
type interner interface {
	intern(key string) uint64
}

// txnPlan is the reusable sorted execution plan of one batch. Its
// slices are grown in place and never shrink, so a session replaying
// the same batch shape plans without allocating.
type txnPlan struct {
	handles []uint64
	shards  []int // shard index per op
	order   []int // op indices sorted by (shard, handle), stable
	touched []bool
}

// fill interns every key (ops carrying a nonzero pre-resolved Handle
// skip the lookup) and sorts the execution order by (shard, handle).
// Accessing t-variables in one global order makes the batch
// deadlock-free on lock-based engines (2pl acquires encounter-time
// exclusive locks; two crossing batches would otherwise spin each
// other into abort storms). The sort is stable, so multiple ops on the
// same key keep their program order and batch semantics are: ops on
// distinct keys are order-independent (the batch is atomic), ops on
// the same key apply in order.
func (pl *txnPlan) fill(s *Store, in interner, ops []Op) {
	n := len(ops)
	pl.handles = grown(pl.handles, n)
	pl.shards = grown(pl.shards, n)
	pl.order = grown(pl.order, n)
	pl.touched = grown(pl.touched, len(s.shards))
	for i := range ops {
		h := ops[i].Handle
		if h == 0 {
			h = in.intern(ops[i].Key)
		}
		pl.handles[i] = h
		pl.shards[i] = s.shardOf(h)
		pl.order[i] = i
	}
	pl.sortOrder()
}

// insertionSortMax bounds the insertion sort: wire batches (capped by
// Config.Batch / Config.MaxMultiOps) stay under it, but Store.Txn and
// GetMulti are public API with uncapped batch sizes, where O(n²)
// would bite.
const insertionSortMax = 256

// sortOrder stable-sorts pl.order by (shard, handle). Small batches —
// every wire batch — use an allocation-free insertion sort, which
// beats sort.SliceStable and, unlike it, does not allocate the
// interface header and closure on every call. Larger batches fall
// back to sort.Stable on the plan itself (*txnPlan implements
// sort.Interface over order; a pointer conversion, so still no
// per-call allocation) to keep the library API's asymptotics.
func (pl *txnPlan) sortOrder() {
	order := pl.order
	if len(order) > insertionSortMax {
		sort.Stable(pl)
		return
	}
	for i := 1; i < len(order); i++ {
		oi := order[i]
		j := i
		for j > 0 && pl.planLess(oi, order[j-1]) {
			order[j] = order[j-1]
			j--
		}
		order[j] = oi
	}
}

// sort.Interface over the order slice, for the large-batch fallback.
func (pl *txnPlan) Len() int           { return len(pl.order) }
func (pl *txnPlan) Less(a, b int) bool { return pl.planLess(pl.order[a], pl.order[b]) }
func (pl *txnPlan) Swap(a, b int)      { pl.order[a], pl.order[b] = pl.order[b], pl.order[a] }

func (pl *txnPlan) planLess(a, b int) bool {
	if pl.shards[a] != pl.shards[b] {
		return pl.shards[a] < pl.shards[b]
	}
	return pl.handles[a] < pl.handles[b]
}

// grown returns s resized to n entries, reusing its backing array when
// capacity allows. Contents are unspecified — callers overwrite.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
