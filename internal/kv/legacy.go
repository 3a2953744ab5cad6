package kv

import (
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
)

// TxnLegacy is the PR 3 implementation of Txn's planning, preserved
// (only the op switch follows the store onto its slots): a fresh
// four-slice plan, sort.SliceStable (interface header + closure
// per call), a fresh result slice and a per-call attempt closure, with
// every key resolved through the global sync.Map intern table. It
// exists only as the measured kv-layer baseline of experiment E10 —
// the wire server's legacy path calls it so the "PR 3 path" rows
// re-measure the whole retired request path, not just the parser.
// Semantics are identical to Txn, except that it bypasses the commit
// hook (and its commit-order locks) — never combine the legacy path
// with a durable (WAL-attached) store; the benchmarks don't.
func (s *Store) TxnLegacy(p *sim.Proc, ops []Op, opts ...core.RunOption) ([]OpResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	pl := s.planLegacy(ops)
	results := make([]OpResult, len(ops))
	attempts := 0
	err := core.Run(s.tm, p, func(tx core.Tx) error {
		attempts++
		slots := s.table()
		for _, i := range pl.order {
			var err error
			if results[i], err = slots[pl.handles[i]-1].exec(tx, &ops[i]); err != nil {
				return err
			}
			if ops[i].Kind == OpCAS && !results[i].Swapped {
				return ErrCASFailed
			}
		}
		return nil
	}, opts...)

	distinct := 0
	for i := range pl.touched {
		pl.touched[i] = false
	}
	for _, si := range pl.shards {
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
		s.shards[si].record(attempts, committed)
	}
	s.finish(committed, distinct)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// planLegacy is the PR 3 per-call plan builder behind TxnLegacy.
func (s *Store) planLegacy(ops []Op) *txnPlan {
	pl := &txnPlan{
		handles: make([]uint64, len(ops)),
		shards:  make([]int, len(ops)),
		order:   make([]int, len(ops)),
		touched: make([]bool, len(s.shards)),
	}
	for i, op := range ops {
		pl.handles[i] = s.intern(op.Key)
		pl.shards[i] = s.shardOf(pl.handles[i])
		pl.order[i] = i
	}
	sort.SliceStable(pl.order, func(a, b int) bool {
		ia, ib := pl.order[a], pl.order[b]
		if pl.shards[ia] != pl.shards[ib] {
			return pl.shards[ia] < pl.shards[ib]
		}
		return pl.handles[ia] < pl.handles[ib]
	})
	return pl
}
