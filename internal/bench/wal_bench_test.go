package bench

import (
	"testing"
	"time"
)

// TestRunServerLoadWAL is the E11 harness smoke: a short measured run
// in every WAL mode must ack every request cleanly.
func TestRunServerLoadWAL(t *testing.T) {
	for _, m := range walModes {
		r, err := RunServerLoadWAL("nztm", m.fsync, 2, 16, 20)
		if err != nil {
			t.Fatalf("%s: %v", m.label, err)
		}
		if r.Reqs != 2*16*20 || r.ReqsPerSec() <= 0 {
			t.Fatalf("%s: reqs=%d rps=%.0f", m.label, r.Reqs, r.ReqsPerSec())
		}
	}
}

// TestWALLoadAllocBudget holds the durability layer to the wire path's
// allocation discipline: with the WAL on (interval fsync) the whole
// server+kv+wal stack must stay within 1 alloc per pipelined request —
// the group-commit pending buffer and the session effect scratch are
// reused, so logging adds no steady-state allocation.
func TestWALLoadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	r, err := RunServerLoadWAL("nztm", "interval", 2, 32, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.AllocsPerReq > 1 {
		t.Fatalf("wal-interval path allocates %.2f allocs/req, budget is 1", r.AllocsPerReq)
	}
}

// TestSnapshotCutAllocBudget holds the serving path to the same
// allocation discipline while incremental chain snapshots are being
// cut underneath it: the dirty-epoch read and the cut's shard dumps
// run on the snapshot goroutine, so requests must not pick up any
// per-request allocation from a concurrent cut. The run is retried a
// few times if no cut happened to land inside the measured phase —
// a pass with zero concurrent cuts would prove nothing.
func TestSnapshotCutAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	for attempt := 0; attempt < 5; attempt++ {
		r, cut, err := RunServerLoadSnapshot("nztm", 5*time.Millisecond, 2, 32, 200)
		if err != nil {
			t.Fatal(err)
		}
		if !cut {
			t.Logf("attempt %d: no snapshot cut landed inside the measured phase; retrying", attempt)
			continue
		}
		if r.AllocsPerReq > 1 {
			t.Fatalf("serving path allocates %.2f allocs/req while snapshots cut, budget is 1", r.AllocsPerReq)
		}
		return
	}
	t.Fatal("no measured run overlapped a snapshot cut after 5 attempts")
}
