package server

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
)

// startServer spins up a server on an ephemeral port and returns it
// with a cleanup registered.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := s.Listen(); err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned %v, want nil after Close", err)
		}
	})
	return s
}

func TestProtocolSession(t *testing.T) {
	s := startServer(t, Config{Engine: "nztm", Shards: 4})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	steps := []struct{ req, want string }{
		{"PING", "PONG"},
		{"SET a 1", "OK NEW"},
		{"SET a 2", "OK"},
		{"GET a", "VALUE 2"},
		{"GET nope", "NOTFOUND"},
		{"CAS a 2 5", "SWAPPED"},
		{"CAS a 2 9", "CASFAIL"},
		{"CAS nope 0 1", "NOTFOUND"},
		{"DEL a", "DELETED"},
		{"DEL a", "NOTFOUND"},
		{"SET b 7", "OK NEW"},
		{"LEN", "LEN 1"},
		{"BOGUS x", `ERR unknown command "BOGUS"`},
		{"SET b", "ERR SET: want 2 argument(s), got 1"},
		{"SET b zzz", `ERR SET: bad number "zzz"`},
	}
	for _, st := range steps {
		resp, err := cl.Do(st.req)
		if err != nil {
			t.Fatalf("%s: %v", st.req, err)
		}
		if resp[0] != st.want {
			t.Fatalf("%s answered %q, want %q", st.req, resp[0], st.want)
		}
	}

	// STATS must report committed transactions.
	resp, err := cl.Do("STATS")
	if err != nil || !strings.HasPrefix(resp[0], "STATS txns=") {
		t.Fatalf("STATS answered %q (%v)", resp, err)
	}
	if strings.Contains(resp[0], "txns=0 ") {
		t.Fatalf("STATS reports zero txns after traffic: %q", resp[0])
	}
}

func TestMultiExec(t *testing.T) {
	s := startServer(t, Config{Engine: "dstm", Shards: 4})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	resps, err := cl.Do("MULTI", "SET x 10", "SET y 20", "GET x", "EXEC")
	if err != nil {
		t.Fatalf("multi: %v", err)
	}
	want := []string{"OK", "QUEUED", "QUEUED", "QUEUED", "RESULTS 3; OK NEW; OK NEW; VALUE 10"}
	for i, w := range want {
		if resps[i] != w {
			t.Fatalf("multi resp[%d] = %q, want %q", i, resps[i], w)
		}
	}

	// Failed CAS guard rolls the whole EXEC back.
	resps, err = cl.Do("MULTI", "SET x 99", "CAS y 777 1", "EXEC")
	if err != nil {
		t.Fatalf("guarded multi: %v", err)
	}
	if resps[3] != "ABORTED cas-guard" {
		t.Fatalf("guarded EXEC answered %q, want ABORTED cas-guard", resps[3])
	}
	if v, found, err := cl.Get("x"); err != nil || !found || v != 10 {
		t.Fatalf("x = (%d, %v, %v) after aborted EXEC, want (10, true, nil)", v, found, err)
	}

	// DISCARD drops the queue.
	resps, err = cl.Do("MULTI", "SET x 55", "DISCARD")
	if err != nil || resps[2] != "OK" {
		t.Fatalf("discard answered %q (%v)", resps, err)
	}
	if v, _, _ := cl.Get("x"); v != 10 {
		t.Fatalf("x = %d after DISCARD, want 10", v)
	}
}

// TestPipelinedBatching pushes a pipelined window through one
// connection and checks responses arrive in order with correct values
// (the implicit GET/SET/DEL batching must not reorder or cross-talk).
func TestPipelinedBatching(t *testing.T) {
	s := startServer(t, Config{Engine: "nztm", Shards: 8, Batch: 16})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	var reqs []string
	for i := 0; i < 50; i++ {
		reqs = append(reqs, fmt.Sprintf("SET k%c %d", 'a'+i%8, i))
	}
	reqs = append(reqs, "GET ka", "CAS kb 100000 1", "GET kb", "PING")
	resps, err := cl.Do(reqs...)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	for i := 0; i < 50; i++ {
		if !strings.HasPrefix(resps[i], "OK") {
			t.Fatalf("resp[%d] = %q, want OK*", i, resps[i])
		}
	}
	// ka last set at i=48, kb at i=49.
	if resps[50] != "VALUE 48" {
		t.Fatalf("GET ka = %q, want VALUE 48", resps[50])
	}
	if resps[51] != "CASFAIL" {
		t.Fatalf("CAS kb = %q, want CASFAIL", resps[51])
	}
	if resps[52] != "VALUE 49" {
		t.Fatalf("GET kb = %q, want VALUE 49", resps[52])
	}
	if resps[53] != "PONG" {
		t.Fatalf("PING = %q", resps[53])
	}
}

// TestRequestAccounting pins the serving-report fix: the request
// counter counts parsed requests — one per non-blank request line — so
// an EXEC of n ops counts once (the PR 3 path counted its n+1 reply
// lines), and blank lines count nothing.
func TestRequestAccounting(t *testing.T) {
	s := startServer(t, Config{Engine: "nztm", Shards: 4})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// 8 requests (PING, SET, MULTI, SET, GET, EXEC, BOGUS, QUIT); the
	// blank line and trailing whitespace-only line are not requests.
	if _, err := io.WriteString(nc, "PING\n\nSET a 1\nMULTI\nSET b 2\nGET a\nEXEC\nBOGUS\n \t\nQUIT\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	// QUIT closes the connection, so the full response stream is
	// readable to EOF — and by then the handler has published its count.
	out, err := io.ReadAll(nc)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	wantLines := []string{
		"PONG", "OK NEW", "OK", "QUEUED", "QUEUED", "RESULTS 2", "OK NEW", "VALUE 1",
		`ERR unknown command "BOGUS"`, "BYE",
	}
	got := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("got %d response lines, want %d:\n%s", len(got), len(wantLines), out)
	}
	for i, w := range wantLines {
		if got[i] != w {
			t.Fatalf("response[%d] = %q, want %q", i, got[i], w)
		}
	}
	if n := s.Requests(); n != 8 {
		t.Fatalf("Requests() = %d, want 8 (parsed requests, not reply lines)", n)
	}
}

// TestPipelinedOrderingStress asserts response order under -batch
// folding: one connection pipelines windows of interleaved SET/GET/CAS
// whose expected responses depend on every preceding request having
// been applied in order, across many batch-flush boundaries (Batch: 3
// forces folds mid-window).
func TestPipelinedOrderingStress(t *testing.T) {
	s := startServer(t, Config{Engine: "nztm", Shards: 8, Batch: 3})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	const windows, perWindow = 30, 40
	val := map[string]uint64{} // model: key -> value
	for w := 0; w < windows; w++ {
		var reqs, want []string
		for i := 0; i < perWindow; i++ {
			k := fmt.Sprintf("k%d", (w+i)%7)
			cur, exists := val[k]
			switch i % 5 {
			case 0, 1: // SET
				v := uint64(w*perWindow + i)
				reqs = append(reqs, fmt.Sprintf("SET %s %d", k, v))
				if exists {
					want = append(want, "OK")
				} else {
					want = append(want, "OK NEW")
				}
				val[k] = v
			case 2: // GET must observe the latest pipelined SET
				reqs = append(reqs, "GET "+k)
				if exists {
					want = append(want, fmt.Sprintf("VALUE %d", cur))
				} else {
					want = append(want, "NOTFOUND")
				}
			case 3: // CAS against the modeled value always swaps
				if !exists {
					reqs = append(reqs, "GET "+k)
					want = append(want, "NOTFOUND")
					break
				}
				reqs = append(reqs, fmt.Sprintf("CAS %s %d %d", k, cur, cur+1))
				want = append(want, "SWAPPED")
				val[k] = cur + 1
			default: // stale CAS never swaps
				if !exists {
					reqs = append(reqs, "GET "+k)
					want = append(want, "NOTFOUND")
					break
				}
				reqs = append(reqs, fmt.Sprintf("CAS %s %d %d", k, cur+99999, 1))
				want = append(want, "CASFAIL")
			}
		}
		resps, err := cl.Do(reqs...)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		for i := range want {
			if resps[i] != want[i] {
				t.Fatalf("window %d resp[%d] (%s) = %q, want %q", w, i, reqs[i], resps[i], want[i])
			}
		}
	}
}

// TestLoadSmoke is the in-process version of the CI smoke: concurrent
// pipelined connections, every response checked, non-zero commits.
func TestLoadSmoke(t *testing.T) {
	s := startServer(t, Config{Engine: "nztm", Shards: 8})
	stats, err := RunLoad(s.Addr().String(), 4, 250, 32)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if stats.Ops != 4*250 {
		t.Fatalf("acked %d ops, want %d", stats.Ops, 4*250)
	}
	if stats.ServerTxns == 0 {
		t.Fatalf("server reports zero committed transactions after load")
	}
	if s.Requests() == 0 {
		t.Fatalf("server served zero responses")
	}
}

// TestConcurrentConns checks cross-connection isolation: per-connection
// CAS counters with the invariant that total successes equal the final
// value, through the wire path.
func TestConcurrentConns(t *testing.T) {
	s := startServer(t, Config{Engine: "dstm", Shards: 8})
	boot, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := boot.Set("ctr", 0); err != nil {
		t.Fatalf("seed: %v", err)
	}
	boot.Close()

	const conns, incs = 4, 50
	var wg sync.WaitGroup
	succ := make([]int64, conns)
	for ci := 0; ci < conns; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(s.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			for succ[ci] < incs {
				v, found, err := cl.Get("ctr")
				if err != nil || !found {
					t.Errorf("get: %v found=%v", err, found)
					return
				}
				resp, err := cl.Do(fmt.Sprintf("CAS ctr %d %d", v, v+1))
				if err != nil {
					t.Errorf("cas: %v", err)
					return
				}
				if resp[0] == "SWAPPED" {
					succ[ci]++
				}
			}
		}()
	}
	wg.Wait()
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	v, _, err := cl.Get("ctr")
	if err != nil {
		t.Fatalf("final get: %v", err)
	}
	var want uint64
	for _, n := range succ {
		want += uint64(n)
	}
	if v != want {
		t.Fatalf("ctr = %d, want %d", v, want)
	}
}
