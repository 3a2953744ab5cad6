package bench

// End-to-end serving-stack measurement (experiment E10): closed-loop
// pipelined load over loopback TCP against internal/server, with a
// deliberately allocation-free load generator — request windows are
// built once and replayed, responses are drained into a fixed buffer
// and only counted — so the process-wide allocation delta during the
// measured phase is the server+kv request path's, which is exactly the
// figure the zero-allocation rewrite is gated on. The same harness
// drives both the byte path and the preserved PR 3 legacy path
// (server.Config.Legacy), so the speedup claim is re-measured on every
// run instead of decaying into a stale constant.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

const (
	// srvKeys is the load key space, pre-populated at setup so the
	// steady state never takes the first-insert allocation path.
	srvKeys = 512
	// srvShards mirrors the oftm-server default.
	srvShards = 8
)

var (
	errTok = []byte("ERR")
	nlTok  = []byte("\n")
)

// ServerResult is one loopback serving measurement.
type ServerResult struct {
	Engine   string
	Path     string // "byte" (the PR 4 request path) or "legacy" (PR 3)
	Conns    int
	Pipeline int
	Reqs     int64
	Elapsed  time.Duration
	// AllocsPerReq and BytesPerReq are the whole-process heap
	// allocation deltas per request over the measured phase. The load
	// generator is allocation-free in the steady state, so these are
	// the server+kv layers' figures.
	AllocsPerReq float64
	BytesPerReq  float64
	// CPUSec is this process's CPU time (user+system) over the
	// measured phase. When the load is driven by child processes
	// (procs > 1) the measuring process runs only the server, so
	// Reqs/CPUSec is the server's own per-core efficiency — the
	// req/s-per-core figure the E13 grid compares runtimes on. With
	// the in-process generator (procs = 1) the figure includes the
	// client's CPU and is only indicative.
	CPUSec float64
	// Rounds, InlineRounds and Dispatches sum the worker runtime's
	// STATS WORKERS counters over the server's life (zero on the
	// goroutine runtime): sealed rounds, how many of them ran inline on
	// a connection's reader, and cross-worker unit-list sends.
	Rounds, InlineRounds, Dispatches int64
}

// addWorkerStats records srv's worker counters; call before Close.
func (r *ServerResult) addWorkerStats(srv *server.Server) {
	for _, w := range srv.WorkerStats() {
		r.Rounds += w.FlushRounds
		r.InlineRounds += w.InlineRounds
		r.Dispatches += w.Dispatches
	}
}

// ReqsPerSec returns acknowledged request throughput.
func (r ServerResult) ReqsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Reqs) / r.Elapsed.Seconds()
}

// ReqsPerCore returns requests served per second of serving-process
// CPU time (see CPUSec), or 0 when CPU time was not captured.
func (r ServerResult) ReqsPerCore() float64 {
	if r.CPUSec <= 0 {
		return 0
	}
	return float64(r.Reqs) / r.CPUSec
}

// cpuNow returns the process's cumulative user+system CPU time.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 {
		return float64(tv.Sec) + float64(tv.Usec)/1e6
	}
	return sec(ru.Utime) + sec(ru.Stime)
}

// loadConn is one pre-built pipelined load connection: a request
// window with per-request byte offsets (so partial windows need no
// rebuilding) and a fixed response buffer.
type loadConn struct {
	nc   net.Conn
	win  []byte
	offs []int // byte offset just past request i in win
	buf  []byte
	// tail holds the last bytes of the previous read so an "ERR" token
	// split across TCP reads is still detected (tailN ≤ 2).
	tail  [2]byte
	tailN int
}

// buildWindow renders p pipelined requests over keys into one buffer:
// setPct% SET and casPct% CAS, the rest GET — values small, keys
// uniform. It returns the buffer and the per-request end offsets.
func buildWindow(p int, keys []string, rng *rand.Rand, setPct, casPct int) ([]byte, []int) {
	var win []byte
	offs := make([]int, p)
	for i := 0; i < p; i++ {
		k := keys[rng.Intn(len(keys))]
		switch r := rng.Intn(100); {
		case r < casPct:
			win = fmt.Appendf(win, "CAS %s %d %d\n", k, rng.Intn(1000), rng.Intn(1000))
		case r < casPct+setPct:
			win = fmt.Appendf(win, "SET %s %d\n", k, rng.Intn(1000))
		default:
			win = fmt.Appendf(win, "GET %s\n", k)
		}
		offs[i] = len(win)
	}
	return win, offs
}

// dialLoadConn connects and builds the connection's replay window.
func dialLoadConn(addr string, keys []string, seed int64, pipeline, setPct, casPct int) (*loadConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*2654435761 + 1))
	win, offs := buildWindow(pipeline, keys, rng, setPct, casPct)
	return &loadConn{nc: nc, win: win, offs: offs, buf: make([]byte, 64<<10)}, nil
}

// do pushes reqs requests through the connection in pipelined windows
// and drains one response line per request. Steady-state it performs
// no heap allocation: the window is replayed byte-for-byte and
// responses are only newline-counted (any ERR fails the run).
func (lc *loadConn) do(reqs int) error {
	for reqs > 0 {
		n := len(lc.offs)
		if reqs < n {
			n = reqs
		}
		if _, err := lc.nc.Write(lc.win[:lc.offs[n-1]]); err != nil {
			return err
		}
		need := n
		for need > 0 {
			rn, err := lc.nc.Read(lc.buf)
			if err != nil {
				return err
			}
			if lc.sawErr(lc.buf[:rn]) {
				return fmt.Errorf("bench: server replied with error: %q", firstErrLine(lc.buf[:rn]))
			}
			got := bytes.Count(lc.buf[:rn], nlTok)
			if got > need {
				return fmt.Errorf("bench: %d responses for %d outstanding requests", got, need)
			}
			need -= got
		}
		reqs -= n
	}
	return nil
}

// sawErr reports whether chunk — or the seam between it and the
// previous chunk — contains the "ERR" token, and remembers this
// chunk's last bytes for the next seam check.
func (lc *loadConn) sawErr(chunk []byte) bool {
	found := bytes.Contains(chunk, errTok)
	if !found && lc.tailN > 0 && len(chunk) > 0 {
		var seam [4]byte
		k := copy(seam[:], lc.tail[:lc.tailN])
		n := len(chunk)
		if n > 2 {
			n = 2
		}
		k += copy(seam[k:], chunk[:n])
		found = bytes.Contains(seam[:k], errTok)
	}
	// Carry the last ≤2 bytes of tail+chunk combined, so even 1-byte
	// reads chain correctly into the next seam check.
	switch {
	case len(chunk) >= 2:
		lc.tailN = copy(lc.tail[:], chunk[len(chunk)-2:])
	case len(chunk) == 1 && lc.tailN == 0:
		lc.tail[0] = chunk[0]
		lc.tailN = 1
	case len(chunk) == 1:
		lc.tail[0] = lc.tail[lc.tailN-1]
		lc.tail[1] = chunk[0]
		lc.tailN = 2
	}
	return found
}

func (lc *loadConn) close() { lc.nc.Close() }

func firstErrLine(b []byte) []byte {
	i := bytes.Index(b, errTok)
	rest := b[i:]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// startLoadServer builds, listens and serves a store pre-populated
// with the load key space. Callers must Close the returned server.
// The runtime is pinned to goroutine-per-connection: the E10/E11 rows
// predate the worker runtime and are diffed against baselines recorded
// on it, so the perf time series keeps measuring the wire path and the
// durability bill — E13 owns the runtime dimension.
func startLoadServer(engine string, legacy bool) (*server.Server, []string, error) {
	return startLoadServerCfg(server.Config{
		Engine:  engine,
		Legacy:  legacy,
		Runtime: "goroutine",
	})
}

// startLoadServerCfg is startLoadServer with full config control (the
// WAL measurements need durability fields, the scaling grid varies
// shard count and runtime); Addr is forced to loopback-ephemeral and
// Shards defaults to the harness standard when unset.
func startLoadServerCfg(cfg server.Config) (*server.Server, []string, error) {
	cfg.Addr = "127.0.0.1:0"
	if cfg.Shards == 0 {
		cfg.Shards = srvShards
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := srv.Listen(); err != nil {
		return nil, nil, err
	}
	go srv.Serve()
	keys := make([]string, srvKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
		if _, err := srv.Store().Put(nil, keys[i], uint64(i)); err != nil {
			srv.Close()
			return nil, nil, fmt.Errorf("bench: server setup: %w", err)
		}
	}
	return srv, keys, nil
}

// RunServerLoad measures a closed-loop mixed load (75% GET / 20% SET /
// 5% CAS) against an in-process server on the given engine: conns
// connections, each replaying pipelined windows of pipeline requests,
// windows times. legacy selects the preserved PR 3 request path. The
// allocation figures cover only the measured phase (after per-
// connection warmup and a GC fence).
func RunServerLoad(engine string, legacy bool, conns, pipeline, windows int) (ServerResult, error) {
	res := ServerResult{Engine: engine, Path: "byte", Conns: conns, Pipeline: pipeline}
	if legacy {
		res.Path = "legacy"
	}
	srv, keys, err := startLoadServer(engine, legacy)
	if err != nil {
		return res, err
	}
	return measureLoad(srv, keys, res, conns, pipeline, windows)
}

// measureLoad drives the warmed, GC-fenced measurement phase against a
// started server and closes it. Shared by the plain (E10) and WAL
// (E11) measurements.
func measureLoad(srv *server.Server, keys []string, res ServerResult, conns, pipeline, windows int) (ServerResult, error) {
	defer srv.Close()

	lcs := make([]*loadConn, conns)
	for i := range lcs {
		lc, err := dialLoadConn(srv.Addr().String(), keys, int64(i), pipeline, 20, 5)
		if err != nil {
			return res, err
		}
		defer lc.close()
		lcs[i] = lc
	}

	errs := make([]error, conns)
	start := make(chan struct{})
	var warm, done sync.WaitGroup
	for i, lc := range lcs {
		i, lc := i, lc
		warm.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			// Warm the whole path: intern caches, batch scratch, engine
			// descriptor pools, bufio buffers.
			err := lc.do(2 * pipeline)
			warm.Done()
			if err != nil {
				errs[i] = err
				return
			}
			<-start
			errs[i] = lc.do(windows * pipeline)
		}()
	}
	warm.Wait()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNow()
	t0 := time.Now()
	close(start)
	done.Wait()
	res.Elapsed = time.Since(t0)
	res.CPUSec = cpuNow() - cpu0
	runtime.ReadMemStats(&m1)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	res.Reqs = int64(conns) * int64(windows) * int64(pipeline)
	res.AllocsPerReq = float64(m1.Mallocs-m0.Mallocs) / float64(res.Reqs)
	res.BytesPerReq = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Reqs)
	res.addWorkerStats(srv)
	return res, nil
}

// E10 measures the wire-path rewrite end to end: loopback req/s and
// allocs/req at 8 pipelined connections, byte path vs the preserved
// PR 3 legacy path, per engine. The speedup column is the acceptance
// figure (≥ 1.5x on at least one engine).
func E10(w io.Writer) {
	const conns, pipeline, windows = 8, 32, 1200
	t := NewTable(fmt.Sprintf("Experiment E10 — wire path rewrite, loopback load (%d conns x pipeline %d)", conns, pipeline),
		"engine", "pr3 req/s", "pr3 allocs/req", "byte req/s", "byte allocs/req", "speedup")
	for _, e := range []string{"dstm", "nztm", "coarse"} {
		legacy, err := RunServerLoad(e, true, conns, pipeline, windows)
		if err != nil {
			fmt.Fprintf(w, "E10 %s legacy: %v\n", e, err)
			continue
		}
		fresh, err := RunServerLoad(e, false, conns, pipeline, windows)
		if err != nil {
			fmt.Fprintf(w, "E10 %s byte: %v\n", e, err)
			continue
		}
		t.Add(e,
			fmt.Sprintf("%.0f", legacy.ReqsPerSec()), fmt.Sprintf("%.2f", legacy.AllocsPerReq),
			fmt.Sprintf("%.0f", fresh.ReqsPerSec()), fmt.Sprintf("%.2f", fresh.AllocsPerReq),
			fmt.Sprintf("%.2fx", fresh.ReqsPerSec()/legacy.ReqsPerSec()))
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "The load generator replays pre-built request windows and is allocation-free in the")
	fmt.Fprintln(w, "steady state, so allocs/req is the server+kv request path's own footprint.")
}

// serverRecords measures the perf-tracking serving rows: byte path and
// PR 3 legacy path at 8 connections, on the engines the serving
// experiments track. The pair makes the rewrite's speedup part of the
// recorded trajectory, and the byte rows' allocs/op lock in the
// zero-allocation property through the bench-diff gate.
func serverRecords() ([]Record, error) {
	// windows is sized so one measurement lasts ~1s even on the fastest
	// path: at 800 the allocating legacy rows finished in ~0.2s and GC
	// cycle alignment alone moved them past the diff gate's tolerance.
	const conns, pipeline, windows = 8, 32, 3200
	var recs []Record
	for _, e := range []string{"dstm", "nztm", "coarse"} {
		for _, p := range []struct {
			workload string
			legacy   bool
		}{
			{"server-mixed-c8", false},
			{"server-mixed-c8-pr3", true},
		} {
			e, p := e, p
			rec, err := bestOf(benchRuns, func() (Record, error) {
				r, err := RunServerLoad(e, p.legacy, conns, pipeline, windows)
				if err != nil {
					return Record{}, fmt.Errorf("bench: %s/%s: %w", e, p.workload, err)
				}
				return Record{
					Engine:      e,
					Workload:    p.workload,
					Threads:     conns,
					NsPerOp:     float64(r.Elapsed.Nanoseconds()) / float64(r.Reqs),
					AllocsPerOp: int64(r.AllocsPerReq + 0.5),
					BytesPerOp:  int64(r.BytesPerReq + 0.5),
					OpsPerSec:   r.ReqsPerSec(),
				}, nil
			})
			if err != nil {
				return nil, err
			}
			recs = append(recs, rec)
		}
	}
	return recs, nil
}
