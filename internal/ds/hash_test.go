package ds

// White-box test for the step-lean counting path behind Hash.Len.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dstm"
	"repro/internal/sim"
)

// TestLenStepLean measures, in sim mode, the steps a Hash.Len takes
// against the steps of the old keys-slice walk: counting must read only
// next pointers (about half the steps of reading key + next per node).
func TestLenStepLean(t *testing.T) {
	const entries = 48
	build := func() (*sim.Env, *Hash) {
		env := sim.New()
		tm := dstm.New(dstm.WithEnv(env))
		h := NewHash(tm, 4)
		for i := 0; i < entries; i++ {
			// Raw-mode population (nil proc) executes no sim steps.
			if _, err := h.Put(nil, uint64(i*3), uint64(i)); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		return env, h
	}

	env1, h1 := build()
	var n int
	env1.Spawn(func(p *sim.Proc) {
		var err error
		n, err = h1.Len(p)
		if err != nil {
			t.Errorf("len: %v", err)
		}
	})
	env1.Run(sim.Solo(1))
	if n != entries {
		t.Fatalf("len = %d, want %d", n, entries)
	}
	leanSteps := env1.TotalSteps()

	env2, h2 := build()
	env2.Spawn(func(p *sim.Proc) {
		err := core.Run(h2.tm, p, func(tx core.Tx) error {
			n = 0
			var keys []uint64
			for _, b := range h2.buckets {
				keys = keys[:0]
				if err := b.keys(tx, &keys); err != nil {
					return err
				}
				n += len(keys)
			}
			return nil
		})
		if err != nil {
			t.Errorf("keys walk: %v", err)
		}
	})
	env2.Run(sim.Solo(1))
	if n != entries {
		t.Fatalf("keys-walk len = %d, want %d", n, entries)
	}
	keysSteps := env2.TotalSteps()

	if leanSteps >= keysSteps {
		t.Fatalf("lean Len took %d steps, keys walk %d — counting path is not leaner", leanSteps, keysSteps)
	}
}
