package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/kv"
	"repro/internal/wal"
)

// ImportExport checks that snapshot state is a faithful, canonical
// interchange format across the incremental chain path: a seeded
// workload is cut as a full chain, a single-key write then dirties
// exactly one shard and an incremental cut must re-image exactly that
// shard, a tail of further writes lands past the cut, and the directory
// is recovered into a fresh store (import). Re-imaging the fresh
// store's full state must produce bytes identical to imaging the live
// store directly — wal.SnapshotImage is canonical, and nothing is lost
// or invented across chain export → recover → import.
func ImportExport(seed int64, engine string, cfg Config) error {
	cfg.fill()
	dir, err := os.MkdirTemp("", "campaign-ie-*")
	if err != nil {
		return fmt.Errorf("campaign: tempdir: %w", err)
	}
	defer os.RemoveAll(dir)

	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever, SegmentBytes: cfg.SegmentBytes})
	if err != nil {
		return fmt.Errorf("campaign: open wal: %w", err)
	}
	store := kv.New(newEngine(engine), cfg.Shards, 8)
	store.SetCommitHook(l.Append)
	sess := store.NewSession()
	rng := rand.New(rand.NewSource(seed*1099511628211 + 7))
	churn := func(n int) error {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key%03d", rng.Intn(cfg.Keys))
			if rng.Intn(5) == 0 {
				if _, err := sess.Delete(nil, key); err != nil {
					return violationf(seed, engine, "import-export", "op %d: DEL failed: %v", i, err)
				}
			} else if _, err := sess.Put(nil, key, uint64(rng.Intn(1000)+1)); err != nil {
				return violationf(seed, engine, "import-export", "op %d: SET failed: %v", i, err)
			}
		}
		return nil
	}

	// Phase 1: bulk load, then the run's first cut — a full chain.
	if err := churn(cfg.Ops); err != nil {
		return err
	}
	if err := l.WriteSnapshotInc(store); err != nil {
		return violationf(seed, engine, "import-export", "full cut: %v", err)
	}

	// Phase 2: one write to one key dirties exactly one shard; the next
	// cut must re-image exactly that shard and link the rest.
	if _, err := sess.Put(nil, "key000", 424242); err != nil {
		return violationf(seed, engine, "import-export", "single-key SET failed: %v", err)
	}
	if err := l.WriteSnapshotInc(store); err != nil {
		return violationf(seed, engine, "import-export", "incremental cut: %v", err)
	}
	cut := l.Stats().SnapshotSeq
	freshImgs, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%020d-*.shard", cut)))
	if err != nil || len(freshImgs) != 1 {
		return violationf(seed, engine, "import-export",
			"incremental cut re-imaged %d shard(s) %v for a single-key write, want exactly 1 (%v)",
			len(freshImgs), freshImgs, err)
	}

	// Phase 3: a tail past the cut, replayed over the chain on import.
	if err := churn(cfg.Ops/10 + 1); err != nil {
		return err
	}
	if err := l.Close(); err != nil {
		return violationf(seed, engine, "import-export", "close: %v", err)
	}

	// Import: recover the directory, check it sees the chain, and that
	// base+tail merge to exactly the live store's state.
	l2, recd, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return violationf(seed, engine, "import-export", "recovery: %v", err)
	}
	defer l2.Close()
	if recd.Base == nil {
		return violationf(seed, engine, "import-export",
			"recovery ignored the chain (Base == nil, snapshot cut %d)", recd.SnapshotSeq)
	}
	if recd.SnapshotSeq != cut {
		return violationf(seed, engine, "import-export",
			"recovery used snapshot cut %d, want the chain cut %d", recd.SnapshotSeq, cut)
	}
	livePairs, err := store.Dump(nil)
	if err != nil {
		return violationf(seed, engine, "import-export", "dump live: %v", err)
	}
	if got, want := StateHash(recd.Merged()), PairsHash(livePairs); got != want {
		return violationf(seed, engine, "import-export",
			"recovered state differs from the live store: %s vs %s", got, want)
	}
	fresh := kv.New(newEngine(engine), cfg.Shards, 8)
	if err := fresh.Load(recd.Keys, recd.Each); err != nil {
		return violationf(seed, engine, "import-export", "import: %v", err)
	}

	// Canonicality: a full image of the imported store must be
	// byte-identical to a full image of the live store at the same cut.
	freshPairs, err := fresh.Dump(nil)
	if err != nil {
		return violationf(seed, engine, "import-export", "dump fresh: %v", err)
	}
	exported := wal.SnapshotImage(recd.LastSeq, livePairs)
	reexported := wal.SnapshotImage(recd.LastSeq, freshPairs)
	if !bytes.Equal(exported, reexported) {
		return violationf(seed, engine, "import-export",
			"round-trip bytes differ: direct image %d bytes, chain-imported image %d bytes", len(exported), len(reexported))
	}
	return nil
}
