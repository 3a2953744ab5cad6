package server

import (
	"fmt"
	"io"
	"math"
	"net"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Slow-reader soak: one connection pipelines a large burst of requests
// and never reads its replies, while many healthy connections keep
// doing short pipelined windows. On the worker runtime the stalled
// connection must cost nobody anything — its replies pile up in its
// pending buffer until MaxPendingWrite pauses it — and on the goroutine
// runtime the stall blocks only its own handler. A cross-connection
// stall would show up as a multi-second window on a healthy connection
// (pre-async-flush, the stalled conn blocked its worker — and through
// the round barrier every worker — for up to FlushTimeout).

func testSlowReaderSoak(t *testing.T, rtName string) {
	s := startServer(t, Config{
		Engine: "nztm", Shards: 8,
		Runtime: rtName, Workers: 2,
		MaxPendingWrite: 64 << 10,
		// Far beyond the test's runtime: the stalled conn must be held by
		// backpressure alone, not reaped by the kill.
		FlushTimeout: 60 * time.Second,
	})
	addr := s.Addr().String()
	if _, err := s.Store().Put(nil, "slowkey", math.MaxUint64); err != nil {
		t.Fatal(err)
	}

	// The slow reader: shrink its receive buffer and pipeline ~10 MiB
	// worth of replies — past the kernel's largest autotuned send
	// buffer (tcp_wmem caps at 4 MiB on common configs), so seal's
	// inline fast path hits EAGAIN and the backlog lands in the pending
	// buffer — then read nothing. The write runs in a goroutine — once
	// backpressure pins the reader, the server stops consuming and this
	// write blocks too.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if tc, ok := slow.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10)
	}
	burst := strings.Repeat("GET slowkey\n", 500000)
	go io.WriteString(slow, burst)

	const conns, windows, perWindow = 63, 20, 16
	var worstNs atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for ci := 0; ci < conns; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs[ci] = err
				return
			}
			defer cl.Close()
			reqs := make([]string, perWindow)
			for wnd := 0; wnd < windows; wnd++ {
				for j := range reqs {
					if j%3 == 0 {
						reqs[j] = fmt.Sprintf("SET h%d %d", (ci+j)%97, wnd)
					} else {
						reqs[j] = fmt.Sprintf("GET h%d", (ci+j)%97)
					}
				}
				st := time.Now()
				if _, err := cl.Do(reqs...); err != nil {
					errs[ci] = fmt.Errorf("window %d: %w", wnd, err)
					return
				}
				if el := int64(time.Since(st)); el > worstNs.Load() {
					worstNs.Store(el)
				}
			}
		}()
	}
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			t.Fatalf("healthy conn %d: %v", ci, err)
		}
	}
	if worst := time.Duration(worstNs.Load()); worst > 5*time.Second {
		t.Fatalf("worst healthy window took %v — a stalled reader leaked into other connections", worst)
	}
	if rtName == "worker" {
		// The stalled connection must actually have tripped backpressure
		// (otherwise the soak proved nothing); give the flusher a moment
		// to observe the full socket buffer.
		deadline := time.Now().Add(10 * time.Second)
		for s.FlushStats().Pauses == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("slow reader never tripped MaxPendingWrite backpressure: %+v", s.FlushStats())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if fs := s.FlushStats(); fs.Kills != 0 {
			t.Fatalf("slow reader was killed (kills=%d) — backpressure should hold it, FlushTimeout is 60s", fs.Kills)
		}
	}
}

func TestSlowReaderSoakWorker(t *testing.T)    { testSlowReaderSoak(t, "worker") }
func TestSlowReaderSoakGoroutine(t *testing.T) { testSlowReaderSoak(t, "goroutine") }

// TestStatsFlushShape pins the STATS FLUSH wire shape on both runtimes:
// a FLUSH header whose workers= field counts the FLUSHWORKER body
// lines (zero on the goroutine runtime, which has no async path).
func TestStatsFlushShape(t *testing.T) {
	ws, gs := bothRuntimes(t, Config{Engine: "nztm", Shards: 8})

	wcl, err := Dial(ws.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wcl.Close()
	// Two round trips: the first round's replies must be sealed (and
	// read back) before the second round snapshots the counters — in one
	// pipelined round the FLUSH slot renders before anything is sealed.
	if _, err := wcl.Do("SET a 1", "GET a"); err != nil {
		t.Fatal(err)
	}
	resp, err := wcl.Do("STATS FLUSH")
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(resp[0], "; ")
	if len(parts) != 4 { // header + one line per worker (bothRuntimes: 3)
		t.Fatalf("worker-runtime STATS FLUSH = %q, want header + 3 FLUSHWORKER lines", resp[0])
	}
	if !strings.HasPrefix(parts[0], "FLUSH workers=3 conn=") {
		t.Fatalf("FLUSH header %q", parts[0])
	}
	for i, ln := range parts[1:] {
		if !strings.HasPrefix(ln, fmt.Sprintf("FLUSHWORKER %d pending=", i)) {
			t.Fatalf("FLUSHWORKER line %d = %q", i, ln)
		}
	}
	// The requests preceding STATS FLUSH were sealed through the async
	// path, so the running total must reflect them.
	var sealed int64
	fmt.Sscanf(parts[0][strings.Index(parts[0], "sealed="):], "sealed=%d", &sealed)
	if sealed == 0 {
		t.Fatalf("FLUSH header reports sealed=0 after replies flowed: %q", parts[0])
	}

	gcl, err := Dial(gs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer gcl.Close()
	resp, err = gcl.Do("STATS FLUSH")
	if err != nil {
		t.Fatal(err)
	}
	const want = "FLUSH workers=0 conn=0 pending=0 sealed=0 queue=0 pauses=0 kills=0"
	if resp[0] != want {
		t.Fatalf("goroutine-runtime STATS FLUSH = %q, want %q", resp[0], want)
	}
}

// TestStatsWorkersShape pins the STATS WORKERS wire shape on both
// runtimes: a WORKERS <n> header and n WORKER lines of key=value
// counters in a fixed order, inline= last (it was appended after
// clients existed that read the others by name).
func TestStatsWorkersShape(t *testing.T) {
	ws, gs := bothRuntimes(t, Config{Engine: "nztm", Shards: 8})

	wcl, err := Dial(ws.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wcl.Close()
	// A request/response round first, so the counters are not all zero
	// (the STATS round's own tally lands after it renders).
	if _, err := wcl.Do("SET a 1"); err != nil {
		t.Fatal(err)
	}
	resp, err := wcl.Do("STATS WORKERS")
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(resp[0], "; ")
	if len(parts) != 4 || parts[0] != "WORKERS 3" { // bothRuntimes: 3 workers
		t.Fatalf("worker-runtime STATS WORKERS = %q, want WORKERS 3 + 3 WORKER lines", resp[0])
	}
	line := regexp.MustCompile(`^WORKER (\d+) conns=\d+ reqs=\d+ rounds=(\d+) escalations=\d+ dispatches=\d+ inline=(\d+)$`)
	var rounds, inline int64
	for i, ln := range parts[1:] {
		m := line.FindStringSubmatch(ln)
		if m == nil || m[1] != fmt.Sprint(i) {
			t.Fatalf("WORKER line %d = %q", i, ln)
		}
		var r, in int64
		fmt.Sscan(m[2], &r)
		fmt.Sscan(m[3], &in)
		if in > r {
			t.Fatalf("WORKER line %d counts more inline rounds than rounds: %q", i, ln)
		}
		rounds, inline = rounds+r, inline+in
	}
	if rounds == 0 || inline == 0 {
		t.Fatalf("rounds=%d inline=%d after a request/response round on an idle worker, want both > 0: %q", rounds, inline, resp[0])
	}

	gcl, err := Dial(gs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer gcl.Close()
	resp, err = gcl.Do("STATS WORKERS")
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != "WORKERS 0" {
		t.Fatalf("goroutine-runtime STATS WORKERS = %q, want %q", resp[0], "WORKERS 0")
	}
}
