package bench

// Experiment E13: connection scaling of the serving runtimes. The
// server-mixed-c8 rows and E11 measure a single 8-connection point;
// E13 extends that into a grid —
// {8, 64, 256, 1024} connections × shard count × fsync policy — and
// runs it against both serving runtimes (the PR 7 shard-affine worker
// loops and the goroutine-per-connection baseline), so the speedup and
// the zero-allocation property are measured where they matter: past
// the point where goroutine-per-connection scheduling starts to bill.
//
// The load can be driven by separate loadgen processes (`oftm-bench
// -servebench -procs P`) so the in-process client never bottlenecks or
// pollutes the server's allocation figures: children are re-execs of
// the current binary, gated by MaybeLoadgenChild, that dial their
// connection share, warm up, handshake READY/GO over their pipes, and
// replay the same pre-built windows as the in-process generator. The
// measured MemStats window then covers the serving process alone.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// ScaleCase is one grid point of E13.
type ScaleCase struct {
	Runtime string // server.Config.Runtime: "worker" | "goroutine"
	Engine  string // "" = scaleEngine
	Conns   int
	Shards  int
	Fsync   string // "" = WAL off, else the fsync policy
}

func (c ScaleCase) engine() string {
	if c.Engine == "" {
		return scaleEngine
	}
	return c.Engine
}

func (c ScaleCase) walLabel() string {
	if c.Fsync == "" {
		return "wal-off"
	}
	return "wal-" + c.Fsync
}

// ScaleOptions configure the E13 grid run (set once from oftm-bench
// flags before experiments execute).
type ScaleOptions struct {
	// Procs is the number of loadgen processes; 1 drives the load
	// in-process with the allocation-free generator.
	Procs int
	// Conns is the connection grid (CI truncates it to 8/64).
	Conns []int
	// Workers is the worker count for worker-runtime points (0 = the
	// server default, GOMAXPROCS capped at the shard count).
	Workers int
}

// The default drives the load from two child processes: the measured
// process then spends its cycles on serving alone, which is what makes
// the req/s-per-core figures (and the recorded ns/op) comparable
// across machines and runs. -procs 1 keeps the in-process generator
// for environments where re-exec is unavailable.
var scaleOpts = ScaleOptions{Procs: 2, Conns: []int{8, 64, 256, 1024}}

// SetScaleOptions overrides the E13 grid configuration. Zero/nil
// fields keep their defaults.
func SetScaleOptions(o ScaleOptions) {
	if o.Procs > 0 {
		scaleOpts.Procs = o.Procs
	}
	if len(o.Conns) > 0 {
		scaleOpts.Conns = o.Conns
	}
	if o.Workers > 0 {
		scaleOpts.Workers = o.Workers
	}
	scaleMemo, lowOccMemo = nil, nil // a changed grid invalidates memoized results
}

// scaleEngine is the grid engine; the runtime comparison needs one
// engine measured well, not five measured noisily.
const scaleEngine = "nztm"

// scalePipeline is the per-window pipelining depth, matching the
// server-mixed-c8 rows and E11.
const scalePipeline = 32

// scaleGrid is the measurement plan: the full connection × fsync grid
// at the standard shard count, plus a wider-sharding point at the
// contended connection count, for each runtime.
func scaleGrid() []ScaleCase {
	var cs []ScaleCase
	for _, rt := range []string{"goroutine", "worker"} {
		for _, conns := range scaleOpts.Conns {
			for _, fs := range []string{"", "interval"} {
				cs = append(cs, ScaleCase{Runtime: rt, Conns: conns, Shards: srvShards, Fsync: fs})
			}
		}
		for _, conns := range scaleOpts.Conns {
			if conns == 256 {
				cs = append(cs, ScaleCase{Runtime: rt, Conns: 256, Shards: 32, Fsync: ""})
				// Engine breadth at the contended point: tl2 pays the
				// most per transaction of the engines that hold the
				// allocs/req <= 1 budget at 256 conns, so it is where
				// cross-connection folding buys the most — the >= 1.5x
				// acceptance comparison reads off these rows. (2pl gains
				// as much but its lock-wait path allocates ~2/req under
				// this contention on both runtimes, so it stays out of
				// the recorded grid.)
				cs = append(cs, ScaleCase{Runtime: rt, Engine: "tl2", Conns: 256, Shards: srvShards, Fsync: ""})
			}
		}
	}
	return cs
}

// scaleWindows sizes each point to a roughly constant request total so
// the grid's duration does not grow with the connection count. The
// total is sized to keep one measurement above ~1s of load: at ~131k
// requests a point lasted ~0.2s and the scheduler mode it happened to
// land in decided the row (the goroutine baseline at 256 connections
// was bimodal across runs by ~30%); at ~1M requests the modes average
// into a steady state the median can be trusted on.
func scaleWindows(conns int) int {
	w := 1048576 / (conns * scalePipeline)
	if w < 4 {
		w = 4
	}
	return w
}

// RunServerScale measures one grid point.
func RunServerScale(c ScaleCase, procs, workers, pipeline, windows int) (ServerResult, error) {
	res := ServerResult{
		Engine:   c.engine(),
		Conns:    c.Conns,
		Pipeline: pipeline,
	}
	cfg := server.Config{
		Engine:  c.engine(),
		Shards:  c.Shards,
		Runtime: c.Runtime,
		Workers: workers,
	}
	if c.Fsync != "" {
		dir, err := os.MkdirTemp("", "oftm-scale-wal-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		cfg.WALDir = dir
		cfg.Fsync = c.Fsync
	}
	srv, keys, err := startLoadServerCfg(cfg)
	if err != nil {
		return res, err
	}
	if procs <= 1 {
		return measureLoad(srv, keys, res, c.Conns, pipeline, windows)
	}
	return measureLoadProcs(srv, res, procs, c.Conns, pipeline, windows)
}

// measureLoadProcs is measureLoad with the load in child processes:
// spawn, wait for every child's READY, fence the GC, release them all
// with GO, and measure until the last DONE. The MemStats delta then
// belongs to the serving process alone.
func measureLoadProcs(srv *server.Server, res ServerResult, procs, conns, pipeline, windows int) (ServerResult, error) {
	defer srv.Close()
	exe, err := os.Executable()
	if err != nil {
		return res, fmt.Errorf("bench: loadgen re-exec: %w", err)
	}
	type child struct {
		cmd *exec.Cmd
		in  io.WriteCloser
		out *bufio.Reader
	}
	var children []child
	defer func() {
		for _, ch := range children {
			ch.cmd.Process.Kill()
			ch.cmd.Wait()
		}
	}()
	base, rem := conns/procs, conns%procs
	for i := 0; i < procs; i++ {
		n := base
		if i < rem {
			n++
		}
		if n == 0 {
			continue
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"OFTM_LOADGEN=1",
			"OFTM_LG_ADDR="+srv.Addr().String(),
			fmt.Sprintf("OFTM_LG_CONNS=%d", n),
			fmt.Sprintf("OFTM_LG_PIPELINE=%d", pipeline),
			fmt.Sprintf("OFTM_LG_WINDOWS=%d", windows),
			fmt.Sprintf("OFTM_LG_SEED=%d", i*1009+1),
		)
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			return res, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return res, err
		}
		if err := cmd.Start(); err != nil {
			return res, fmt.Errorf("bench: loadgen child: %w", err)
		}
		children = append(children, child{cmd: cmd, in: in, out: bufio.NewReader(out)})
	}
	for i, ch := range children {
		line, err := ch.out.ReadString('\n')
		if err != nil || line != "READY\n" {
			return res, fmt.Errorf("bench: loadgen child %d: want READY, got %q (%v)", i, line, err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNow()
	t0 := time.Now()
	for _, ch := range children {
		if _, err := io.WriteString(ch.in, "GO\n"); err != nil {
			return res, err
		}
	}
	var total int64
	for i, ch := range children {
		line, err := ch.out.ReadString('\n')
		var n int64
		if err != nil || len(line) < 6 {
			return res, fmt.Errorf("bench: loadgen child %d: want DONE, got %q (%v)", i, line, err)
		}
		if _, err := fmt.Sscanf(line, "DONE %d", &n); err != nil {
			return res, fmt.Errorf("bench: loadgen child %d: bad DONE line %q", i, line)
		}
		total += n
	}
	res.Elapsed = time.Since(t0)
	res.CPUSec = cpuNow() - cpu0
	runtime.ReadMemStats(&m1)
	for i, ch := range children {
		ch.in.Close()
		if err := ch.cmd.Wait(); err != nil {
			return res, fmt.Errorf("bench: loadgen child %d: %w", i, err)
		}
	}
	children = nil
	res.Reqs = total
	res.AllocsPerReq = float64(m1.Mallocs-m0.Mallocs) / float64(res.Reqs)
	res.BytesPerReq = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Reqs)
	res.addWorkerStats(srv)
	return res, nil
}

// MaybeLoadgenChild turns the current process into a loadgen child
// when OFTM_LOADGEN=1 is set and never returns in that case. It must
// be called at the top of main (and of TestMain for test binaries that
// measure with -procs > 1).
func MaybeLoadgenChild() {
	if os.Getenv("OFTM_LOADGEN") != "1" {
		return
	}
	os.Exit(loadgenChild())
}

func loadgenChild() int {
	addr := os.Getenv("OFTM_LG_ADDR")
	conns := envInt("OFTM_LG_CONNS", 1)
	pipeline := envInt("OFTM_LG_PIPELINE", scalePipeline)
	windows := envInt("OFTM_LG_WINDOWS", 4)
	seed := envInt("OFTM_LG_SEED", 1)
	keys := make([]string, srvKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
	}
	lcs := make([]*loadConn, conns)
	for i := range lcs {
		lc, err := dialLoadConn(addr, keys, int64(seed+i), pipeline, 20, 5)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: dial %s: %v\n", addr, err)
			return 1
		}
		defer lc.close()
		lcs[i] = lc
	}
	run := func(reqs int) error {
		errs := make([]error, len(lcs))
		var wg sync.WaitGroup
		for i, lc := range lcs {
			i, lc := i, lc
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = lc.do(reqs)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := run(2 * pipeline); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: warmup: %v\n", err)
		return 1
	}
	fmt.Println("READY")
	in := bufio.NewReader(os.Stdin)
	if line, err := in.ReadString('\n'); err != nil || line != "GO\n" {
		fmt.Fprintf(os.Stderr, "loadgen: want GO, got %q (%v)\n", line, err)
		return 1
	}
	if err := run(windows * pipeline); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: load: %v\n", err)
		return 1
	}
	fmt.Printf("DONE %d\n", int64(len(lcs))*int64(windows)*int64(pipeline))
	return 0
}

func envInt(name string, def int) int {
	if v, err := strconv.Atoi(os.Getenv(name)); err == nil && v > 0 {
		return v
	}
	return def
}

// scaleMemo caches the grid measurements so the E13 table and the JSON
// records come from one run per process.
var scaleMemo []scaleMeasurement

type scaleMeasurement struct {
	c   ScaleCase
	res ServerResult
	err error
}

// scaleNsPerReq is the figure a grid point is judged on: server CPU
// per request when the load ran in child processes (what scaleRecords
// stores as ns/op), wall time per request otherwise.
func scaleNsPerReq(res ServerResult) float64 {
	if scaleOpts.Procs > 1 && res.CPUSec > 0 {
		return res.CPUSec * 1e9 / float64(res.Reqs)
	}
	return float64(res.Elapsed.Nanoseconds()) / float64(res.Reqs)
}

// medianScalePoint measures one point benchRuns times and keeps the
// median by scaleNsPerReq, like every other gated record (see bestOf):
// single points swing enough on the 1-core runner to move the
// worker/goroutine ratio itself.
func medianScalePoint(c ScaleCase, pipeline, windows int) (ServerResult, error) {
	var runs []ServerResult
	for i := 0; i < benchRuns; i++ {
		res, err := RunServerScale(c, scaleOpts.Procs, scaleOpts.Workers, pipeline, windows)
		if err != nil {
			return res, err
		}
		runs = append(runs, res)
	}
	sort.Slice(runs, func(i, j int) bool { return scaleNsPerReq(runs[i]) < scaleNsPerReq(runs[j]) })
	return runs[(len(runs)-1)/2], nil
}

func runScaleGrid() []scaleMeasurement {
	if scaleMemo != nil {
		return scaleMemo
	}
	for _, c := range scaleGrid() {
		m := scaleMeasurement{c: c}
		m.res, m.err = medianScalePoint(c, scalePipeline, scaleWindows(c.Conns))
		scaleMemo = append(scaleMemo, m)
	}
	return scaleMemo
}

// The low-occupancy pair: two connections, wal-interval, one request
// per round trip (reqresp) and windows of scalePipeline (pipelined), on
// both runtimes. The scaling grid starts at 8 connections, where rounds
// already merge; at 2 a request's cost is the goroutine hand-offs
// between its read and its reply, which is the regime the worker
// runtime's inline rounds serve (EXPERIMENTS.md E18) and the one the
// benchmark of record drives.
const lowOccConns = 2

type lowOccPoint struct {
	name     string // workload stem: reqresp | pipelined
	pipeline int
	c        ScaleCase
	res      ServerResult
	err      error
}

// row names the point in E15's table; the JSON record is server-<row>.
func (p lowOccPoint) row() string {
	return fmt.Sprintf("%s-c%d-%s", p.name, lowOccConns, p.c.Runtime)
}

var lowOccMemo []lowOccPoint

func runLowOcc() []lowOccPoint {
	if lowOccMemo != nil {
		return lowOccMemo
	}
	for _, rt := range []string{"goroutine", "worker"} {
		for _, p := range []lowOccPoint{{name: "reqresp", pipeline: 1}, {name: "pipelined", pipeline: scalePipeline}} {
			p.c = ScaleCase{Runtime: rt, Conns: lowOccConns, Shards: srvShards, Fsync: "interval"}
			// ~1 s of load either way: a round trip costs what ~32
			// pipelined requests do.
			p.res, p.err = medianScalePoint(p.c, p.pipeline, 16384)
			lowOccMemo = append(lowOccMemo, p)
		}
	}
	return lowOccMemo
}

// lowOccTable renders the pair with the worker counters that show
// where the rounds ran; `make server-scale-smoke` gates the
// reqresp worker row on inline/rounds >= 0.9 and dispatches == 0.
func lowOccTable(w io.Writer) {
	t := NewTable(fmt.Sprintf("Low occupancy — %d conns, wal-interval, %d loadgen proc(s)", lowOccConns, scaleOpts.Procs),
		"row", "pipeline", "req/s", "cpu us/req", "allocs/req", "rounds", "inline", "dispatches")
	for _, p := range runLowOcc() {
		if p.err != nil {
			fmt.Fprintf(w, "%s: %v\n", p.row(), p.err)
			continue
		}
		t.Add(p.row(), fmt.Sprint(p.pipeline),
			fmt.Sprintf("%.0f", p.res.ReqsPerSec()),
			fmt.Sprintf("%.2f", scaleNsPerReq(p.res)/1e3),
			fmt.Sprintf("%.2f", p.res.AllocsPerReq),
			fmt.Sprint(p.res.Rounds), fmt.Sprint(p.res.InlineRounds), fmt.Sprint(p.res.Dispatches))
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "A lone request/response connection per worker should run every round inline on its")
	fmt.Fprintln(w, "reader (inline ~ rounds) and never dispatch; cpu us/req is server CPU with -procs > 1.")
	fmt.Fprintln(w)
}

// E13 measures the connection-scaling grid and reports both runtimes
// side by side; the speedup column pairs each worker point with the
// goroutine point of the same connections/shards/fsync coordinates.
func E13(w io.Writer) {
	ms := runScaleGrid()
	// goroutine baselines keyed by engine|conns|shards|fsync; the
	// per-core ratio is the runtime-efficiency comparison (server CPU
	// only with -procs > 1), the req/s ratio the wall-clock one.
	baseWall := map[string]float64{}
	baseCore := map[string]float64{}
	for _, m := range ms {
		if m.err == nil && m.c.Runtime == "goroutine" {
			k := fmt.Sprintf("%s|%d|%d|%s", m.c.engine(), m.c.Conns, m.c.Shards, m.c.Fsync)
			baseWall[k] = m.res.ReqsPerSec()
			baseCore[k] = m.res.ReqsPerCore()
		}
	}
	t := NewTable(fmt.Sprintf("Experiment E13 — serving runtime scaling grid (pipeline %d, %d loadgen proc(s))",
		scalePipeline, scaleOpts.Procs),
		"runtime", "engine", "conns", "shards", "wal", "req/s", "req/s/core", "allocs/req", "vs goroutine")
	for _, m := range ms {
		if m.err != nil {
			fmt.Fprintf(w, "E13 %s %s c%d s%d %s: %v\n", m.c.Runtime, m.c.engine(), m.c.Conns, m.c.Shards, m.c.walLabel(), m.err)
			continue
		}
		rel := "-"
		if m.c.Runtime == "worker" {
			k := fmt.Sprintf("%s|%d|%d|%s", m.c.engine(), m.c.Conns, m.c.Shards, m.c.Fsync)
			switch {
			case baseCore[k] > 0 && m.res.ReqsPerCore() > 0:
				rel = fmt.Sprintf("%.2fx/core", m.res.ReqsPerCore()/baseCore[k])
			case baseWall[k] > 0:
				rel = fmt.Sprintf("%.2fx", m.res.ReqsPerSec()/baseWall[k])
			}
		}
		t.Add(m.c.Runtime,
			m.c.engine(),
			fmt.Sprintf("%d", m.c.Conns),
			fmt.Sprintf("%d", m.c.Shards),
			m.c.walLabel(),
			fmt.Sprintf("%.0f", m.res.ReqsPerSec()),
			fmt.Sprintf("%.0f", m.res.ReqsPerCore()),
			fmt.Sprintf("%.2f", m.res.AllocsPerReq),
			rel)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "Grid: conns %v x shards {%d, 32 at c256} x {wal-off, wal-interval} on %s per runtime,\n", scaleOpts.Conns, srvShards, scaleEngine)
	fmt.Fprintln(w, "plus tl2 at the contended 256-conn point. The worker runtime folds requests")
	fmt.Fprintln(w, "across connections into shard-owned units, so its advantage grows with connection")
	fmt.Fprintln(w, "count; the gate is >= 1.5x at 256 conns on >= 1 engine (equal shards) and")
	fmt.Fprintln(w, "allocs/req <= 1 at every wal-off and wal-interval point.")
}

// scaleRecords converts the grid measurements into perf-tracking
// perf-tracking records: workload server-scale-<runtime>-s<n>-
// <wal>, threads = connections. These rows are what bench-diff gates.
func scaleRecords() ([]Record, error) {
	var recs []Record
	// ns/op records server CPU per request when the load ran in child
	// processes (the stable, machine-comparable figure); wall time
	// otherwise (scaleNsPerReq). ops/s stays wall-clock throughput.
	rec := func(c ScaleCase, workload string, res ServerResult) Record {
		return Record{
			Engine:      c.engine(),
			Workload:    workload,
			Threads:     c.Conns,
			NsPerOp:     scaleNsPerReq(res),
			AllocsPerOp: int64(res.AllocsPerReq + 0.5),
			BytesPerOp:  int64(res.BytesPerReq + 0.5),
			OpsPerSec:   res.ReqsPerSec(),
		}
	}
	for _, m := range runScaleGrid() {
		if m.err != nil {
			return nil, fmt.Errorf("bench: scale %s c%d s%d %s: %w", m.c.Runtime, m.c.Conns, m.c.Shards, m.c.walLabel(), m.err)
		}
		recs = append(recs, rec(m.c, fmt.Sprintf("server-scale-%s-s%d-%s", m.c.Runtime, m.c.Shards, m.c.walLabel()), m.res))
	}
	for _, p := range runLowOcc() {
		if p.err != nil {
			return nil, fmt.Errorf("bench: %s: %w", p.row(), p.err)
		}
		recs = append(recs, rec(p.c, "server-"+p.row(), p.res))
	}
	return recs, nil
}
