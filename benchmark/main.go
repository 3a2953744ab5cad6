// Command benchmark is this repository's benchmark of record: it drives
// the real oftm-server binary over loopback with four wire-level
// workloads, checks every reply, and prints every metric by name and
// unit. See README.md for the workloads, the metrics and how to read
// the output; BENCHMARK.json at the repository root declares them.
//
//	bash benchmark/run.sh --workload read-pipelined --seed 1 --seconds 32 --trace 0
//
// prints the end-to-end metrics of one run as one JSON object on the
// last line of standard output; --trace 1 prints the per-layer metrics
// instead. Without --workload every workload runs in turn. -smoke runs
// everything briefly with all checks on; -aa N repeats the suite N times
// and reports the spread of every metric against its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef declares one metric the benchmark emits; BENCHMARK.json
// must list exactly these (names_test.go).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"server_cpu_us_per_req", "us"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"latency_p99_us", "us"},
	{"max_rate_within_slo_rps", "req/s"},
	{"recovery_s", "s"},
	{"server_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	// From the wire run: server counters, /proc and the client itself.
	{"server.reqs_per_round", "count"},
	{"server.dispatches_per_round", "count"},
	{"server.escalations_per_kreq", "count"},
	{"server.sys_cpu_share", "fraction"},
	{"server.sealed_bytes_per_req", "B"},
	{"server.flush_pauses", "count"},
	{"server.flush_kills", "count"},
	{"kv.reqs_per_txn", "count"},
	{"kv.cross_shard_ratio", "fraction"},
	{"kv.aborts_per_txn", "count"},
	{"wal.bytes_per_write", "B"},
	{"client.txn_abort_ratio", "fraction"},
	{"client.error_rate", "fraction"},
	{"client.slo_rung", "count"},
	{"client.send_lag_p99_us", "us"},
	{"client.latency_p99_whole_us", "us"},
	{"client.latency_p999_us", "us"},
	{"client.latency_max_us", "us"},
	{"client.p99_us_r1", "us"},
	{"client.p99_us_r3", "us"},
	{"client.delivered_ratio_r3", "fraction"},
	// From the traced in-process passes.
	{"server.roundtrip_us_per_req", "us"},
	{"server.self_us_per_req", "us"},
	{"kv.txn_ns_per_req", "ns"},
	{"kv.self_ns_per_req", "ns"},
	{"core.txn_ns_per_req", "ns"},
	{"core.reads_per_req", "count"},
	{"core.writes_per_req", "count"},
	{"core.attempts_per_txn", "count"},
	{"wal.append_ns", "ns"},
	{"wal.append_p99_us", "us"},
	{"wal.append_always_us", "us"},
	{"wal.cut_ms", "ms"},
	{"wal.cut_bytes", "B"},
	{"wal.recover_chain_ms", "ms"},
	{"wal.replay_ns_per_rec", "ns"},
	{"client.trace_overhead_pct", "%"},
}

// result is the last line of standard output: the contract with
// whatever runs the benchmark.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, in turn)")
	seed := flag.Int64("seed", 1, "seed of the request streams and arrival schedules")
	seconds := flag.Float64("seconds", 32, "length of the measured phases of one run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, with the traced in-process passes")
	smoke := flag.Bool("smoke", false, "run every workload for about 2 s, traced, all checks on")
	aa := flag.Int("aa", 0, "run the suite N times and report each metric's spread against its bound")
	flag.Parse()
	if err := findRoot(); err != nil {
		fatal(err)
	}
	var selected []*spec
	for i := range specs {
		if *workload == "" || *workload == specs[i].name {
			selected = append(selected, &specs[i])
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	b, err := newBench()
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(b.workDir)
	ok := true
	switch {
	case *aa > 0:
		ok = b.runAA(selected, *seed, *seconds, *trace, *aa)
	case *smoke:
		for _, sp := range selected {
			ok = b.runOne(sp, *seed, 2, 1) && ok
		}
	default:
		for _, sp := range selected {
			ok = b.runOne(sp, *seed, *seconds, *trace) && ok
		}
	}
	if !ok {
		os.RemoveAll(b.workDir)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// findRoot changes to the repository root: the directory that holds
// BENCHMARK.json and the server's source. The benchmark is started from
// there (run.sh) or from its own directory (go run).
func findRoot() error {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "oftm-server", "main.go")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err != nil {
			continue
		}
		return os.Chdir(dir)
	}
	return fmt.Errorf("run from the repository root: BENCHMARK.json and cmd/oftm-server not found")
}

// bench is one invocation: the built server, a scratch directory inside
// the checkout, and the environment the numbers were taken in.
type bench struct {
	serverBin string
	workDir   string
	outDir    string
	conns     int
	env       envBlock
	baseline  *baseline
}

const buildDir = ".bench_build"

func newBench() (*bench, error) {
	abs, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	b := &bench{
		serverBin: filepath.Join(abs, "oftm-server"),
		workDir:   filepath.Join(abs, fmt.Sprintf("run-%d", os.Getpid())),
		outDir:    filepath.Join("benchmark", "out"),
		conns:     min(runtime.NumCPU(), 4),
	}
	for _, d := range []string{b.workDir, b.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", b.serverBin, "./cmd/oftm-server")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("building oftm-server: %w", err)
	}
	// The load generator gets one thread per connection and one for the
	// open-loop pacer; the server child keeps the runtime's default.
	runtime.GOMAXPROCS(b.conns + 1)
	b.env = readEnv(abs, time.Since(t0).Seconds(), b.conns)
	b.baseline = loadBaseline()
	return b, nil
}

// runOne runs one workload once and prints its report, the result
// object last. It reports whether the run was correct.
func (b *bench) runOne(sp *spec, seed int64, seconds float64, trace int) bool {
	rep, err := b.measure(sp, seed, seconds, trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
		return false
	}
	b.print(rep)
	return rep.res.Correct
}

// report is everything one run produced.
type report struct {
	sp      *spec
	seed    int64
	seconds float64
	trace   int
	notes   []string
	all     map[string]float64 // every metric measured, end-to-end and per-layer
	t       tally
	res     result
}

// measure runs one workload once. With trace 0 it times cfg.setups
// set-ups and reports the end-to-end metrics; with trace 1 it runs the
// wire phases at half length, then the traced in-process passes, and
// reports the per-layer metrics.
func (b *bench) measure(sp *spec, seed int64, seconds float64, trace int) (*report, error) {
	cfg := &runConfig{seed: seed, seconds: seconds, setups: 5, conns: b.conns,
		serverBin: b.serverBin, workDir: b.workDir}
	defs := endToEnd
	if trace != 0 {
		cfg.seconds, cfg.setups, defs = seconds/2, 1, perLayer
	}
	rep := &report{sp: sp, seed: seed, seconds: seconds, trace: trace, all: map[string]float64{}}
	wire, err := runWire(sp, cfg)
	rep.notes = wire.notes
	if err != nil {
		for _, n := range rep.notes {
			fmt.Fprintln(os.Stderr, "#", n)
		}
		return nil, err
	}
	for k, v := range wire.metrics {
		rep.all[k] = v
	}
	rep.t = wire.t
	if trace != 0 {
		tr, err := runTraced(sp, seed, seconds, b)
		if err != nil {
			return nil, fmt.Errorf("traced passes: %w", err)
		}
		rep.notes = append(rep.notes, tr.notes...)
		for k, v := range tr.metrics {
			rep.all[k] = v
		}
		if tr.bad != "" && rep.t.firstBad == "" {
			rep.t.firstBad = tr.bad
		}
		rep.t.attempted += tr.attempted
		rep.t.wrongValue += tr.failed
	}
	rep.res = result{Correct: rep.t.failed() == 0, Attempted: rep.t.attempted, Failed: rep.t.failed(),
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.all[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return rep, nil
}

// print writes the human-readable report and, last, the result object.
func (b *bench) print(rep *report) {
	fmt.Printf("# workload %s: %s\n", rep.sp.name, rep.sp.why)
	if rep.sp.ungated != "" {
		fmt.Printf("# not in BENCHMARK.json: %s\n", rep.sp.ungated)
	}
	fmt.Printf("# seed=%d seconds=%g trace=%d\n", rep.seed, rep.seconds, rep.trace)
	envJSON, _ := json.Marshal(b.env)
	fmt.Printf("# env %s\n", envJSON)
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	t := &rep.t
	fmt.Printf("# requests: attempted %d, failed %d (ERR %d, malformed %d, wrong kind %d, wrong value %d, unanswered %d)\n",
		t.attempted, t.failed(), t.errs, t.malformed, t.wrongKind, t.wrongValue, t.unanswered)
	if t.firstBad != "" {
		fmt.Printf("# first failure: %s\n", t.firstBad)
	}
	names := make([]string, 0, len(rep.res.Metrics))
	for n := range rep.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	base := b.baseline
	base.warn(&b.env, rep.seconds)
	for _, n := range names {
		m := rep.res.Metrics[n]
		line := fmt.Sprintf("%-32s %14.4f %-8s", n, m.Value, m.Unit)
		if v, ok := base.value(rep.sp.name, n); ok {
			line += fmt.Sprintf("  (seed commit: %.4f)", v)
		}
		fmt.Println(line)
	}
	// The full record, both metric families with the environment, for
	// whoever compares runs later.
	full, _ := json.MarshalIndent(map[string]any{
		"workload": rep.sp.name, "seed": rep.seed, "seconds": rep.seconds, "trace": rep.trace,
		"env": b.env, "metrics": rep.all, "attempted": t.attempted, "failed": t.failed(),
	}, "", "  ")
	os.WriteFile(filepath.Join(b.outDir, "result-"+rep.sp.name+".json"), full, 0o644)
	line, _ := json.Marshal(rep.res)
	fmt.Println(string(line))
}
