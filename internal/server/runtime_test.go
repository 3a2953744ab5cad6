package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/kv"
)

// Runtime equivalence: the worker runtime and the goroutine-per-
// connection runtime must produce byte-identical reply streams for the
// same request stream. Counter-bearing replies (STATS, STATS WORKERS)
// are the one documented exception — transaction boundaries differ
// between the runtimes (cross-connection folding vs per-connection
// batching), so their figures legitimately diverge and the comparison
// masks those lines.

// bothRuntimes starts a worker-runtime server and a goroutine-runtime
// server with otherwise identical configs.
func bothRuntimes(t *testing.T, cfg Config) (worker, goroutine *Server) {
	t.Helper()
	wc, gc := cfg, cfg
	wc.Runtime, wc.Workers = "worker", 3
	gc.Runtime = "goroutine"
	return startServer(t, wc), startServer(t, gc)
}

// rawSession writes one scripted request stream (which must end in
// QUIT so the server closes the connection) and returns the full raw
// reply stream.
func rawSession(t *testing.T, addr, script string) string {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, script); err != nil {
		t.Fatalf("write script: %v", err)
	}
	out, err := io.ReadAll(nc)
	if err != nil {
		t.Fatalf("read replies: %v", err)
	}
	return string(out)
}

// wantInline fails the test unless the worker-runtime server took the
// inline fast path: these suites run one connection against an idle
// worker, so every round should have — and if that ever stops, they
// silently stop covering the path most low-occupancy traffic takes.
func wantInline(t *testing.T, s *Server) {
	t.Helper()
	var inline, rounds int64
	for _, w := range s.WorkerStats() {
		inline += w.InlineRounds
		rounds += w.FlushRounds
	}
	if inline == 0 {
		t.Fatalf("no inline round among %d: the suite no longer covers the reader fast path", rounds)
	}
}

// maskCounters rewrites counter-bearing reply lines so the two
// runtimes' streams can be compared byte for byte everywhere else.
func maskCounters(out string) string {
	lines := strings.Split(out, "\n")
	keep := lines[:0]
	for _, ln := range lines {
		switch {
		case strings.HasPrefix(ln, "STATS "):
			keep = append(keep, "STATS <masked>")
		case strings.HasPrefix(ln, "WORKERS "), strings.HasPrefix(ln, "WORKER "):
			// Worker-count dependent by design; dropped.
		case strings.HasPrefix(ln, "FLUSH "), strings.HasPrefix(ln, "FLUSHWORKER "):
			// STATS FLUSH figures are async-path state the goroutine
			// runtime doesn't have; dropped like the WORKER lines.
		default:
			keep = append(keep, ln)
		}
	}
	return strings.Join(keep, "\n")
}

// TestRuntimeEquivalenceCorpus replays the parser fuzz corpus as one
// pipelined stream against both runtimes.
func TestRuntimeEquivalenceCorpus(t *testing.T) {
	ws, gs := bothRuntimes(t, Config{Engine: "nztm", Shards: 8, Batch: 3})
	script := strings.Join(parserCases, "\n") + "\nQUIT\n"
	got := maskCounters(rawSession(t, ws.Addr().String(), script))
	want := maskCounters(rawSession(t, gs.Addr().String(), script))
	if got != want {
		t.Fatalf("corpus reply streams diverge:\nworker:\n%s\ngoroutine:\n%s", got, want)
	}
	wantInline(t, ws)
}

// TestRuntimeEquivalenceMulti covers the MULTI/EXEC surface: empty
// EXEC, DISCARD, errors inside a block, cross-shard batches (which the
// worker runtime escalates), CAS guards, and interleaved control verbs.
func TestRuntimeEquivalenceMulti(t *testing.T) {
	ws, gs := bothRuntimes(t, Config{Engine: "nztm", Shards: 8, Batch: 3})
	var b strings.Builder
	// Cross-shard EXEC: eight distinct keys span every shard, so with
	// three workers this batch cannot be single-owner.
	b.WriteString("MULTI\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "SET mk%d %d\n", i, i*10)
	}
	b.WriteString("EXEC\n")
	b.WriteString("MULTI\nEXEC\n") // empty EXEC
	b.WriteString("MULTI\nSET mk0 99\nDISCARD\nGET mk0\n")
	b.WriteString("MULTI\nSET mk1 5\nBOGUS x\nGET mk1\nEXEC\n") // error queues nothing
	b.WriteString("MULTI\nCAS mk2 20 7\nSET mk3 1\nEXEC\n")     // guard passes
	b.WriteString("MULTI\nCAS mk2 999 0\nSET mk4 1\nEXEC\n")    // guard fails: ABORTED
	b.WriteString("GET mk3\nGET mk4\nLEN\nSTATS\nSTATS WORKERS\nSTATS FLUSH\nPING\nQUIT\n")
	script := b.String()
	got := maskCounters(rawSession(t, ws.Addr().String(), script))
	want := maskCounters(rawSession(t, gs.Addr().String(), script))
	if got != want {
		t.Fatalf("multi reply streams diverge:\nworker:\n%s\ngoroutine:\n%s", got, want)
	}
	wantInline(t, ws)
}

// TestRuntimeEquivalenceFolding pins the worker runtime's round-local
// folding (read dedup, SET-after-SET last-writer-wins, DEL-of-absent,
// GET-from-written-state) against the goroutine runtime byte for byte.
// The whole script is written as one chunk, so the worker parses it in
// as few rounds as possible and every fold path actually fires.
func TestRuntimeEquivalenceFolding(t *testing.T) {
	ws, gs := bothRuntimes(t, Config{Engine: "nztm", Shards: 8, Batch: 3})
	script := strings.Join([]string{
		// Read dedup: miss, then hit, each twice.
		"GET f0", "GET f0",
		"SET f0 1", "GET f0", "GET f0",
		// SET-after-SET folds to last-writer-wins; the GET sees it.
		"SET f1 1", "SET f1 2", "SET f1 3", "GET f1",
		// DEL chains: second DEL of a round-deleted key, GET after DEL.
		"SET f2 9", "DEL f2", "DEL f2", "GET f2",
		// SET after DEL re-creates; DEL after SET removes.
		"DEL f3", "SET f3 7", "GET f3", "DEL f3", "GET f3",
		// CAS invalidates folded state; the GET re-reads.
		"SET f4 5", "CAS f4 5 6", "GET f4", "CAS f4 999 0", "GET f4",
		// EXEC writes invalidate too.
		"SET f5 1", "MULTI", "SET f5 2", "EXEC", "GET f5",
		// Same-key traffic across the Unit boundary (Batch=3).
		"SET f6 1", "SET f7 1", "SET f8 1", "SET f6 2", "GET f6",
		"QUIT",
	}, "\n") + "\n"
	got := maskCounters(rawSession(t, ws.Addr().String(), script))
	want := maskCounters(rawSession(t, gs.Addr().String(), script))
	if got != want {
		t.Fatalf("folding reply streams diverge:\nworker:\n%s\ngoroutine:\n%s", got, want)
	}
	wantInline(t, ws)
}

// orderingWindows regenerates the TestPipelinedOrderingStress request
// windows (model-checked there); here the same windows run against both
// runtimes and the replies are compared request by request.
func orderingWindows() [][]string {
	const windows, perWindow = 12, 40
	val := map[string]uint64{}
	out := make([][]string, 0, windows)
	for w := 0; w < windows; w++ {
		var reqs []string
		for i := 0; i < perWindow; i++ {
			k := fmt.Sprintf("k%d", (w+i)%7)
			cur, exists := val[k]
			switch i % 5 {
			case 0, 1:
				v := uint64(w*perWindow + i)
				reqs = append(reqs, fmt.Sprintf("SET %s %d", k, v))
				val[k] = v
			case 2:
				reqs = append(reqs, "GET "+k)
			case 3:
				if !exists {
					reqs = append(reqs, "GET "+k)
					break
				}
				reqs = append(reqs, fmt.Sprintf("CAS %s %d %d", k, cur, cur+1))
				val[k] = cur + 1
			default:
				if !exists {
					reqs = append(reqs, "GET "+k)
					break
				}
				reqs = append(reqs, fmt.Sprintf("CAS %s %d %d", k, cur+99999, 1))
			}
		}
		out = append(out, reqs)
	}
	return out
}

// TestRuntimeEquivalenceOrderingStress runs the ordering-stress windows
// against both runtimes over pipelining clients and requires identical
// replies in identical order.
func TestRuntimeEquivalenceOrderingStress(t *testing.T) {
	ws, gs := bothRuntimes(t, Config{Engine: "nztm", Shards: 8, Batch: 3})
	wcl, err := Dial(ws.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wcl.Close()
	gcl, err := Dial(gs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer gcl.Close()
	for w, reqs := range orderingWindows() {
		wresps, err := wcl.Do(reqs...)
		if err != nil {
			t.Fatalf("window %d (worker): %v", w, err)
		}
		gresps, err := gcl.Do(reqs...)
		if err != nil {
			t.Fatalf("window %d (goroutine): %v", w, err)
		}
		for i := range reqs {
			if wresps[i] != gresps[i] {
				t.Fatalf("window %d req %d (%s): worker %q, goroutine %q",
					w, i, reqs[i], wresps[i], gresps[i])
			}
		}
	}
	wantInline(t, ws)
}

// TestInlineSharedShardCommitOrder: two request/response connections on
// different workers write the same keys of ONE shard. Routing by owner
// used to keep that shard's commit-order lock uncontended; with inline
// rounds both workers' sessions commit to it concurrently, and the
// lock is what keeps hook (WAL append) order equal to commit order.
// Replaying the hook's log must reproduce the store's final state.
func TestInlineSharedShardCommitOrder(t *testing.T) {
	s := startServer(t, Config{Engine: "nztm", Shards: 4, Runtime: "worker", Workers: 2})
	se := s.Store().NewSession()
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		if k := fmt.Sprintf("hot%d", i); s.Store().ShardOf(se.Handle(k)) == 0 {
			keys = append(keys, k)
		}
	}
	var mu sync.Mutex
	replay := map[string]uint64{}
	s.Store().SetCommitHook(func(effs []kv.Effect) error {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range effs {
			if e.Del {
				delete(replay, e.Key)
			} else {
				replay[e.Key] = e.Val
			}
		}
		return nil
	})

	const conns, ops = 2, 1500
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for ci := 0; ci < conns; ci++ {
		cl, err := Dial(s.Addr().String()) // accept order = worker order
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Do("PING"); err != nil {
			t.Fatal(err)
		}
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				req := fmt.Sprintf("SET %s %d", keys[i%len(keys)], ci*ops+i+1)
				if i%7 == 6 {
					req = "DEL " + keys[i%len(keys)]
				}
				if _, err := cl.Do(req); err != nil {
					errs[ci] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			t.Fatalf("conn %d: %v", ci, err)
		}
	}
	for i, w := range s.WorkerStats() {
		if w.InlineRounds == 0 {
			t.Fatalf("worker %d ran no inline round — the shard was never shared: %+v", i, w)
		}
		if w.Dispatches != 0 {
			t.Fatalf("worker %d dispatched %d unit lists; request/response rounds should all run inline", i, w.Dispatches)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, k := range keys {
		v, found, err := s.Store().Get(nil, k)
		if err != nil {
			t.Fatal(err)
		}
		rv, rfound := replay[k]
		if v != rv || found != rfound {
			t.Fatalf("hook replay of %s = (%d,%v), store says (%d,%v) — hook order diverged from commit order", k, rv, rfound, v, found)
		}
	}
}

// TestWorkerOwnershipStatic pins two properties of connection
// assignment: accepts spread round-robin (exactly balanced when the
// connection count is a worker-count multiple), and a connection's
// requests are all accounted on one worker for the connection's whole
// life — ownership never rebalances.
func TestWorkerOwnershipStatic(t *testing.T) {
	s := startServer(t, Config{Engine: "nztm", Shards: 6, Runtime: "worker", Workers: 3})
	const conns = 9
	cls := make([]*Client, conns)
	for i := range cls {
		cl, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// A round trip guarantees the connection is registered with its
		// worker before the stats snapshot.
		if resp, err := cl.Do("PING"); err != nil || resp[0] != "PONG" {
			t.Fatalf("ping: %q %v", resp, err)
		}
		cls[i] = cl
	}
	ws := s.WorkerStats()
	if len(ws) != 3 {
		t.Fatalf("WorkerStats reports %d workers, want 3", len(ws))
	}
	for i, w := range ws {
		if w.Conns != conns/3 {
			t.Fatalf("worker %d owns %d conns, want %d (round-robin spread): %+v", i, w.Conns, conns/3, ws)
		}
	}

	// 100 further requests on one connection land on exactly one worker.
	before := s.WorkerStats()
	for i := 0; i < 10; i++ {
		reqs := make([]string, 10)
		for j := range reqs {
			reqs[j] = fmt.Sprintf("SET own%d %d", (i+j)%13, i*10+j)
		}
		if _, err := cls[0].Do(reqs...); err != nil {
			t.Fatal(err)
		}
	}
	after := s.WorkerStats()
	var bumped []int
	for i := range after {
		switch d := after[i].Requests - before[i].Requests; {
		case d == 100:
			bumped = append(bumped, i)
		case d != 0:
			t.Fatalf("worker %d saw a partial request delta %d — connection migrated mid-life", i, d)
		}
	}
	if len(bumped) != 1 {
		t.Fatalf("request delta on workers %v, want exactly one owner", bumped)
	}
}

// TestWorkerChurnSoak churns connections (connect, a few pipelined
// windows, disconnect) from several goroutines while STATS WORKERS
// polls concurrently — the race detector gets to see accept/assign,
// round execution and teardown interleaved. Afterwards every worker
// must have processed traffic and all churned connections must be gone.
func TestWorkerChurnSoak(t *testing.T) {
	s := startServer(t, Config{Engine: "nztm", Shards: 8, Runtime: "worker", Workers: 2})
	const churners, iters, reqsPerIter = 4, 25, 8
	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				cl, err := Dial(s.Addr().String())
				if err != nil {
					t.Errorf("churner %d: dial: %v", c, err)
					return
				}
				reqs := make([]string, reqsPerIter)
				for j := range reqs {
					reqs[j] = fmt.Sprintf("SET churn%d %d", (c+it+j)%17, j)
				}
				if _, err := cl.Do(reqs...); err != nil {
					t.Errorf("churner %d: %v", c, err)
					cl.Close()
					return
				}
				cl.Close()
			}
		}()
	}
	stop := make(chan struct{})
	go func() {
		cl, err := Dial(s.Addr().String())
		if err != nil {
			return
		}
		defer cl.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cl.Do("STATS WORKERS"); err != nil {
				return
			}
		}
	}()
	wg.Wait()
	close(stop)

	deadline := time.Now().Add(5 * time.Second)
	for {
		var conns, reqs int64
		perWorker := s.WorkerStats()
		for _, w := range perWorker {
			conns += w.Conns
			reqs += w.Requests
		}
		if conns <= 1 { // at most the stats poller lingers
			if want := int64(churners * iters * reqsPerIter); reqs < want {
				t.Fatalf("workers account %d requests, want >= %d", reqs, want)
			}
			for i, w := range perWorker {
				if w.Requests == 0 {
					t.Fatalf("worker %d processed no requests — load did not spread: %+v", i, perWorker)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still registered after churn drained", conns)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAcceptBackoff pins the transient-accept-error backoff schedule
// and classification.
func TestAcceptBackoff(t *testing.T) {
	var seq []time.Duration
	b := time.Duration(0)
	for i := 0; i < 10; i++ {
		b = nextAcceptBackoff(b)
		seq = append(seq, b)
	}
	want := []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond,
		320 * time.Millisecond, 640 * time.Millisecond, time.Second, time.Second,
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("backoff step %d = %v, want %v (full: %v)", i, seq[i], want[i], seq)
		}
	}

	transient := []error{
		syscall.EMFILE, syscall.ENFILE, syscall.ECONNABORTED, syscall.EINTR,
		&net.OpError{Op: "accept", Err: syscall.EMFILE},
		timeoutErr{},
	}
	for _, err := range transient {
		if !isTransientAcceptErr(err) {
			t.Errorf("isTransientAcceptErr(%v) = false, want true", err)
		}
	}
	permanent := []error{
		errors.New("boom"),
		syscall.EINVAL,
		net.ErrClosed,
	}
	for _, err := range permanent {
		if isTransientAcceptErr(err) {
			t.Errorf("isTransientAcceptErr(%v) = true, want false", err)
		}
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }
