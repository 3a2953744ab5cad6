package bench

import (
	"os"
	"testing"
)

// TestMain lets this test binary double as an E13 loadgen child when
// re-exec'd with OFTM_LOADGEN=1 (see MaybeLoadgenChild) — that is how
// TestScaleMultiProcess drives real child processes under `go test`.
func TestMain(m *testing.M) {
	MaybeLoadgenChild()
	os.Exit(m.Run())
}

// TestScaleInProcess measures one small grid point per runtime with the
// in-process generator and sanity-checks the result shape.
func TestScaleInProcess(t *testing.T) {
	for _, rt := range []string{"worker", "goroutine"} {
		c := ScaleCase{Runtime: rt, Conns: 4, Shards: 8}
		res, err := RunServerScale(c, 1, 0, 8, 4)
		if err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		if want := int64(4 * 4 * 8); res.Reqs != want {
			t.Fatalf("%s: measured %d reqs, want %d", rt, res.Reqs, want)
		}
		if res.ReqsPerSec() <= 0 {
			t.Fatalf("%s: nonpositive throughput: %+v", rt, res)
		}
		// The worker counters behind E15's low-occupancy table ride on
		// the result; the goroutine runtime has none.
		if (res.Rounds > 0) != (rt == "worker") || res.InlineRounds > res.Rounds {
			t.Fatalf("%s: rounds=%d inline=%d dispatches=%d", rt, res.Rounds, res.InlineRounds, res.Dispatches)
		}
	}
}

// TestScaleMultiProcess runs one worker-runtime point through the
// READY/GO/DONE child handshake with two real loadgen processes.
func TestScaleMultiProcess(t *testing.T) {
	c := ScaleCase{Runtime: "worker", Conns: 4, Shards: 8}
	res, err := RunServerScale(c, 2, 0, 8, 4)
	if err != nil {
		t.Fatalf("multi-process scale point: %v", err)
	}
	if want := int64(4 * 4 * 8); res.Reqs != want {
		t.Fatalf("children acked %d reqs, want %d", res.Reqs, want)
	}
}
