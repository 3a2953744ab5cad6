package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is what one run of one workload needs.
type runConfig struct {
	seed      int64
	seconds   float64 // length of the measured phases
	setups    int     // set-ups timed; the last one is measured on
	conns     int
	serverBin string
	workDir   string // scratch inside the checkout: WAL directory lives here
}

// How often the parts of a run that are timed once per server start are
// repeated, so that their median can be reported: set-up is timed
// between minSetups and runConfig.setups times, as long as the set-ups so
// far took under setupBudget seconds; recovery up to maxRecoveries times
// within recoveryBudget seconds. The measured phases are cut into rounds.
const (
	minSetups      = 3
	setupBudget    = 3.0
	maxRecoveries  = 9
	recoveryBudget = 1.0
	rounds         = 5
)

// wireResult is what the wire run of one workload measured.
type wireResult struct {
	metrics map[string]float64 // end-to-end and per-layer, by name
	t       tally
	notes   []string
}

func (r *wireResult) notef(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// session is one started server with the load generator connected to it.
type session struct {
	srv  *serverProc
	ctl  *control
	gen  *loadgen
	wal  string
	cfg  *runConfig
	sp   *spec
	ctlT tally // requests made over the control connection
}

// setUp starts the server on an empty WAL directory, waits for its
// first PONG, preloads, connects the load generator and runs the fixed
// warm-up. Its duration is one setup_s sample.
func (s *session) setUp() (time.Duration, error) {
	if err := os.RemoveAll(s.wal); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := s.startAndPing(); err != nil {
		return 0, err
	}
	if err := s.ctl.preload(&s.ctlT); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	if err := s.gen.connect(s.srv.addr); err != nil {
		return 0, err
	}
	s.gen.closed(int64(s.sp.warmReqs), 60*time.Second)
	return time.Since(t0), nil
}

func (s *session) startAndPing() error {
	srv, err := startServer(s.cfg.serverBin, s.wal)
	if err != nil {
		return err
	}
	s.srv = srv
	if s.ctl, err = dialControl(s.sp, srv.addr); err != nil {
		return err
	}
	return s.ctl.ping()
}

// tearDown stops the server and drops every connection.
func (s *session) tearDown() {
	s.gen.close()
	if s.ctl != nil {
		s.ctl.c.close()
		s.ctl = nil
	}
	if s.srv != nil {
		s.srv.kill()
		s.srv = nil
	}
}

// runWire runs one workload against the real server binary: set-up,
// closed phase, three open rungs, then kill and recover.
func runWire(sp *spec, cfg *runConfig) (res *wireResult, err error) {
	res = &wireResult{metrics: map[string]float64{}}
	s := &session{cfg: cfg, sp: sp, wal: filepath.Join(cfg.workDir, "wal"),
		gen: newLoadgen(sp, cfg.seed, cfg.conns)}
	defer s.tearDown()

	// Set-up, several times over: the median is setup_s, the last
	// instance serves the measured phases.
	var setupS []float64
	for spent := 0.0; len(setupS) < cfg.setups && (len(setupS) < minSetups || spent < setupBudget); {
		if len(setupS) > 0 {
			s.tearDown()
			s.gen.reset()
		}
		d, err := s.setUp()
		if err != nil {
			return res, fmt.Errorf("set-up %d: %w", len(setupS)+1, err)
		}
		setupS = append(setupS, d.Seconds())
		spent += d.Seconds()
	}
	res.metrics["setup_s"] = median(setupS)
	res.notef("set-up samples (s): %.4f", setupS)

	c0, err := s.ctl.counters()
	if err != nil {
		return res, fmt.Errorf("counters: %w", err)
	}
	answered0 := s.gen.answered()

	// The measured phases, as rounds of a closed segment and a part of
	// each open rung. This sandbox's speed wanders by a tenth and more
	// over tens of seconds; a phase run in one piece reports whichever
	// speed it met, where a phase spread over the run reports the run's.
	// The closed phase sends a fixed request total; throughput and CPU
	// per request are the median segment's, so that one hiccup does not
	// decide the run.
	total := int64(sp.closedPerSec * closedShare * cfg.seconds)
	var rps, cpuUS, sysShare []float64
	var ackedAll int64
	var elapsedAll time.Duration
	var rungs [3]rungResult
	for round := 0; round < rounds; round++ {
		u0, s0, err := s.srv.cpuTicks()
		if err != nil {
			return res, err
		}
		acked, elapsed := s.gen.closed(total/rounds, 40*time.Second)
		u1, s1, err := s.srv.cpuTicks()
		if err != nil {
			return res, err
		}
		if acked == 0 {
			return res, fmt.Errorf("closed phase: no request answered (%s)", s.gen.tally().firstBad)
		}
		ticks := float64(u1 - u0 + s1 - s0)
		rps = append(rps, float64(acked)/elapsed.Seconds())
		cpuUS = append(cpuUS, ticks/ticksPerSecond*1e6/float64(acked))
		sysShare = append(sysShare, float64(s1-s0)/max(ticks, 1))
		ackedAll += acked
		elapsedAll += elapsed
		for i, rate := range sp.rungs {
			dur := time.Duration(rungShare[i] * cfg.seconds / rounds * float64(time.Second))
			rungs[i].add(s.gen.open(round*len(rungs)+i, rate, dur, 10*time.Second))
		}
	}
	res.metrics["throughput_rps"] = median(rps)
	res.metrics["server_cpu_us_per_req"] = median(cpuUS)
	res.metrics["server.sys_cpu_share"] = median(sysShare)
	res.notef("closed: %d requests in %.3f s; per segment %.0f req/s, %.2f us CPU per request", ackedAll, elapsedAll.Seconds(), rps, cpuUS)
	best := -1
	for i := range rungs {
		r := &rungs[i]
		if r.pass(sp.limitUS) {
			best = i
		}
		res.notef("open r%d: offered %.0f req/s for %.1f s, %d windows, delivered %.0f req/s, on time %.4f, p50 %.1f us, p99 %.1f us (n=%d), send lag p99 %.1f us, pass=%v",
			i+1, sp.rungs[i], rungShare[i]*cfg.seconds, r.offered, r.delivered(), float64(r.onTime)/float64(max(r.offered, 1)),
			r.quantileUS(0.5), r.p99us(), r.lat.Count(), r.lag.Quantile(0.99)/1e3, r.pass(sp.limitUS))
	}
	r2 := &rungs[1]
	res.metrics["latency_p50_us"] = r2.quantileUS(0.5)
	res.metrics["latency_p90_us"] = r2.quantileUS(0.9)
	res.metrics["latency_p99_us"] = r2.p99us()
	if best >= 0 {
		res.metrics["max_rate_within_slo_rps"] = rungs[best].delivered()
	} else {
		// No rung met the limit: report half of what the lowest rung
		// delivered, a rung below r1 (the metric may not be 0).
		res.metrics["max_rate_within_slo_rps"] = rungs[0].delivered() / 2
	}
	res.metrics["client.slo_rung"] = float64(best + 1)
	res.metrics["client.send_lag_p99_us"] = r2.lag.Quantile(0.99) / 1e3
	res.metrics["client.latency_p99_whole_us"] = r2.lat.Quantile(0.99) / 1e3
	res.metrics["client.latency_p999_us"] = r2.lat.Quantile(0.999) / 1e3
	res.metrics["client.latency_max_us"] = float64(r2.lat.Max()) / 1e3
	res.metrics["client.p99_us_r1"] = rungs[0].p99us()
	res.metrics["client.p99_us_r3"] = rungs[2].p99us()
	res.metrics["client.delivered_ratio_r3"] = float64(rungs[2].onTime) / float64(max(rungs[2].offered, 1))

	// Counters over the measured phases.
	c1, err := s.ctl.counters()
	if err != nil {
		return res, fmt.Errorf("counters: %w", err)
	}
	d := c1.sub(c0)
	reqs := float64(s.gen.answered() - answered0)
	gt := s.gen.tally()
	res.metrics["server.reqs_per_round"] = float64(d.reqs) / float64(max(d.rounds, 1))
	res.metrics["server.dispatches_per_round"] = float64(d.dispatch) / float64(max(d.rounds, 1))
	res.metrics["server.escalations_per_kreq"] = float64(d.escalations) / reqs * 1e3
	res.metrics["server.sealed_bytes_per_req"] = float64(d.sealed) / reqs
	res.metrics["server.flush_pauses"] = float64(c1.pauses)
	res.metrics["server.flush_kills"] = float64(c1.kills)
	res.metrics["kv.reqs_per_txn"] = reqs / float64(max(d.txns, 1))
	res.metrics["kv.cross_shard_ratio"] = float64(d.cross) / float64(max(d.txns, 1))
	res.metrics["kv.aborts_per_txn"] = float64(d.aborts) / float64(max(d.txns, 1))
	res.metrics["client.txn_abort_ratio"] = float64(gt.aborted) / float64(max(gt.execs, 1))

	// State the store must hold after recovery, then kill and recover.
	want, err := s.expectedState(res)
	if err != nil {
		return res, err
	}
	hwm, err := s.srv.hwmKiB()
	if err != nil {
		return res, err
	}
	res.metrics["server_rss_mb"] = float64(hwm) / 1024
	// Under -fsync interval an ack can precede the log goroutine's
	// write by its scheduling delay; idle so that every acked record has
	// reached the file before the process dies.
	time.Sleep(250 * time.Millisecond)
	walBytes, err := dirBytes(s.wal)
	if err != nil {
		return res, err
	}
	writes := s.writesAcked()
	res.metrics["wal.bytes_per_write"] = float64(walBytes) / float64(max(writes, 1))
	res.notef("wal: %d bytes for %d acked writes", walBytes, writes)
	s.gen.close()
	// SIGKILL, restart on the same directory, first PONG. A recovered
	// server that receives no write leaves the log as it found it, so
	// killing it again repeats the same recovery: the median of a few
	// repeats is recovery_s.
	var recS []float64
	for spent := 0.0; len(recS) < maxRecoveries && (len(recS) == 0 || spent < recoveryBudget); {
		s.ctl.c.close()
		s.srv.kill()
		t0 := time.Now()
		if err := s.startAndPing(); err != nil {
			return res, fmt.Errorf("recovery: %w", err)
		}
		d := time.Since(t0).Seconds()
		recS = append(recS, d)
		spent += d
		if len(recS) == 1 {
			if err := s.ctl.expectAll(want.reqs, want.replies, &s.ctlT); err != nil {
				return res, fmt.Errorf("verification after recovery: %w", err)
			}
		}
	}
	res.metrics["recovery_s"] = median(recS)
	res.notef("recovery samples (s): %.4f", recS)

	res.t = s.gen.tally()
	res.t.add(&s.ctlT)
	res.metrics["client.error_rate"] = float64(res.t.failed()) / float64(max(res.t.attempted, 1))
	return res, nil
}

// writesAcked counts the write requests the server acknowledged:
// preload plus the SETs and DELs (or committed transfers) answered.
func (s *session) writesAcked() int64 {
	n := int64(s.sp.keys)
	for _, c := range s.gen.clients {
		if s.sp.txn {
			n += c.transfers - c.t.aborted
		} else {
			n += c.writes
		}
	}
	return n
}

// expectation is a list of requests and the exact reply each must get.
type expectation struct {
	reqs, replies []string
}

// expectedState returns the reads that verify the store after recovery.
// Every key has a single writer, so the union of the clients' models is
// the exact state: write-reqresp checks every key (each acked write
// survives SIGKILL), the other workloads LEN and a seeded 1000-key
// sample. The transactional workload first reads all balances in one
// snapshot, checks the total is the initial one (atomicity seen from the
// wire), and expects the same balances after recovery.
func (s *session) expectedState(res *wireResult) (expectation, error) {
	var e expectation
	sp := s.sp
	add := func(k int, present bool, v uint64) {
		e.reqs = append(e.reqs, "GET "+keyName(sp, k))
		if present {
			e.replies = append(e.replies, "VALUE "+strconv.FormatUint(v, 10))
		} else {
			e.replies = append(e.replies, "NOTFOUND")
		}
	}
	if sp.txn {
		var b strings.Builder
		b.WriteString("MULTI\n")
		for k := 0; k < sp.keys; k++ {
			b.WriteString("GET " + keyName(sp, k) + "\n")
		}
		b.WriteString("EXEC\n")
		lines, err := s.ctl.do(b.String(), 2*sp.keys+2)
		s.ctlT.attempted++
		if err != nil {
			return e, fmt.Errorf("final snapshot: %w", err)
		}
		var sum uint64
		for k, l := range lines[sp.keys+2:] {
			kind, v := classify([]byte(l))
			if kind != rValue {
				s.ctlT.wrongKind++
				s.ctlT.firstBad = fmt.Sprintf("final snapshot: account %d answered %q", k, l)
				return e, nil
			}
			sum += v
			add(k, true, v)
		}
		if sum != uint64(sp.keys)*txnInitBalance {
			s.ctlT.wrongValue++
			s.ctlT.firstBad = fmt.Sprintf("final snapshot: balances total %d, want %d", sum, sp.keys*txnInitBalance)
		}
		res.notef("final snapshot: %d accounts total %d", sp.keys, sum)
	} else {
		state := func(k int) (bool, uint64) {
			m := s.gen.clients[k%len(s.gen.clients)].m
			return m.present[k], m.val[k]
		}
		if sp.ownReads {
			for k := 0; k < sp.keys; k++ {
				p, v := state(k)
				add(k, p, v)
			}
		} else {
			rng := rand.New(rand.NewSource(s.cfg.seed))
			for i := 0; i < 1000; i++ {
				k := rng.Intn(sp.keys)
				p, v := state(k)
				add(k, p, v)
			}
		}
		n := 0
		for k := 0; k < sp.keys; k++ {
			if p, _ := state(k); p {
				n++
			}
		}
		e.reqs = append(e.reqs, "LEN")
		e.replies = append(e.replies, "LEN "+strconv.Itoa(n))
	}
	return e, nil
}
