package bench

// Experiment E15: the serving grid re-measured after the async reply
// path (PR 9) plus a slow-reader soak. The grid half shares the E13
// measurement plan (and memo) — what changed is the serving runtime
// under it: replies now drain through per-connection pending buffers
// and a flusher pool instead of synchronous round-end writes, and
// round formation adapts its gather window, chunk budget and mailbox
// capacity to the live connection count. The acceptance readout is the
// per-core ratio on the cheap engine (nztm, where round overhead used
// to eat the folding win) without giving back the tl2 ratio.
//
// The soak half is the adversarial case the async path exists for: one
// connection pipelines a large burst and stops reading mid-load while
// healthy connections keep serving. Pre-PR 9, the stalled socket write
// blocked its worker and — through the round barrier — every worker,
// for up to FlushTimeout per round; now the stalled connection's bytes
// pile into its pending buffer until -max-pending-write pauses its
// reader, and nobody else notices. The row records the healthy
// connections' throughput and worst pipelined window alongside the
// backpressure counters that prove the stall actually happened.

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

const (
	// soakBudget is -max-pending-write for the soak server: small
	// enough that the burst trips backpressure within the measured
	// phase, large enough to hold several rounds of replies.
	soakBudget = 64 << 10
	// soakConns is the total connection count (1 stalled + healthy).
	soakConns = 64
	// soakWindows is the number of pipelined windows each healthy
	// connection pushes through while the stalled one sits there.
	soakWindows = 30
	// soakBurst is how many GETs of a 20-digit value the stalled
	// connection pipelines: ~10 MiB of replies, far past soakBudget
	// plus both socket buffers even at the kernel's largest autotuned
	// send buffer (tcp_wmem caps at 4 MiB on common configs — seal's
	// inline fast path drains into that buffer before EAGAIN pushes
	// the backlog to the pending buffer).
	soakBurst = 500000
)

// SoakResult is one slow-reader soak measurement: healthy-connection
// throughput and worst window with one non-reading connection present,
// plus the server's backpressure counters.
type SoakResult struct {
	Runtime string
	Conns   int // total, including the stalled connection
	Reqs    int64
	Elapsed time.Duration
	// Worst is the slowest single pipelined window observed on any
	// healthy connection — a cross-connection stall shows up here as a
	// multi-second outlier even when the aggregate throughput hides it.
	Worst time.Duration
	// Pauses/Kills are the flusher pool's counters after the run
	// (worker runtime only): the soak is only meaningful if the stalled
	// connection actually tripped a backpressure pause, and it must be
	// held by backpressure, not reaped by the FlushTimeout kill.
	Pauses int64
	Kills  int64
}

// ReqsPerSec returns the healthy connections' aggregate throughput.
func (r SoakResult) ReqsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Reqs) / r.Elapsed.Seconds()
}

// RunSlowReaderSoak measures one soak point: conns-1 healthy pipelined
// connections push windows while one connection bursts requests and
// never reads its replies.
func RunSlowReaderSoak(rt string, conns, pipeline, windows int) (SoakResult, error) {
	res := SoakResult{Runtime: rt, Conns: conns}
	srv, keys, err := startLoadServerCfg(server.Config{
		Engine:          scaleEngine,
		Runtime:         rt,
		Workers:         scaleOpts.Workers,
		MaxPendingWrite: soakBudget,
		// Far beyond the soak's duration: the stalled connection must be
		// held by backpressure alone, not reaped by the kill.
		FlushTimeout: time.Minute,
	})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	if _, err := srv.Store().Put(nil, "soakkey", ^uint64(0)); err != nil {
		return res, err
	}

	slow, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		return res, err
	}
	defer slow.Close()
	if tc, ok := slow.(*net.TCPConn); ok {
		// Shrink the receive buffer so the kernel absorbs little of the
		// burst and the server-side pending buffer fills fast.
		tc.SetReadBuffer(4 << 10)
	}

	healthy := conns - 1
	lcs := make([]*loadConn, healthy)
	for i := range lcs {
		lc, err := dialLoadConn(srv.Addr().String(), keys, int64(i+1), pipeline, 20, 5)
		if err != nil {
			return res, err
		}
		defer lc.close()
		lcs[i] = lc
	}

	errs := make([]error, healthy)
	worsts := make([]time.Duration, healthy)
	start := make(chan struct{})
	var warm, done sync.WaitGroup
	for i, lc := range lcs {
		i, lc := i, lc
		warm.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			err := lc.do(2 * pipeline)
			warm.Done()
			if err != nil {
				errs[i] = err
				return
			}
			<-start
			for wnd := 0; wnd < windows; wnd++ {
				st := time.Now()
				if err := lc.do(pipeline); err != nil {
					errs[i] = fmt.Errorf("window %d: %w", wnd, err)
					return
				}
				if el := time.Since(st); el > worsts[i] {
					worsts[i] = el
				}
			}
		}()
	}
	warm.Wait()
	// Launch the stall with the measured load: the write itself blocks
	// once backpressure stops the server from consuming the burst.
	go io.WriteString(slow, strings.Repeat("GET soakkey\n", soakBurst))
	t0 := time.Now()
	close(start)
	done.Wait()
	res.Elapsed = time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	for _, wd := range worsts {
		if wd > res.Worst {
			res.Worst = wd
		}
	}
	res.Reqs = int64(healthy) * int64(windows) * int64(pipeline)
	if rt == "worker" {
		// The burst races the (short) healthy phase; give the flusher a
		// moment to observe the full socket and trip the pause before
		// snapshotting the counters.
		deadline := time.Now().Add(10 * time.Second)
		for srv.FlushStats().Pauses == 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		fs := srv.FlushStats()
		res.Pauses, res.Kills = fs.Pauses, fs.Kills
	}
	return res, nil
}

// E15 reports the post-async-flush serving grid with its acceptance
// ratios, then the slow-reader soak on both runtimes.
func E15(w io.Writer) {
	ms := runScaleGrid()
	key := func(c ScaleCase) string {
		return fmt.Sprintf("%s|%d|%d|%s", c.engine(), c.Conns, c.Shards, c.Fsync)
	}
	baseCore := map[string]float64{}
	for _, m := range ms {
		if m.err == nil && m.c.Runtime == "goroutine" {
			baseCore[key(m.c)] = m.res.ReqsPerCore()
		}
	}
	t := NewTable(fmt.Sprintf("Experiment E15 — serving grid after the async reply path (pipeline %d, %d loadgen proc(s))",
		scalePipeline, scaleOpts.Procs),
		"runtime", "engine", "conns", "shards", "wal", "req/s", "req/s/core", "allocs/req", "vs goroutine")
	ratios := map[string]float64{} // worker wal-off per-core ratios, keyed engine|conns
	allocsMax, nztmOffMax := 0.0, 0.0
	for _, m := range ms {
		if m.err != nil {
			fmt.Fprintf(w, "E15 %s %s c%d s%d %s: %v\n", m.c.Runtime, m.c.engine(), m.c.Conns, m.c.Shards, m.c.walLabel(), m.err)
			continue
		}
		rel := "-"
		if m.c.Runtime == "worker" {
			if base := baseCore[key(m.c)]; base > 0 && m.res.ReqsPerCore() > 0 {
				r := m.res.ReqsPerCore() / base
				rel = fmt.Sprintf("%.2fx/core", r)
				if m.c.Fsync == "" && m.c.Shards == srvShards {
					ratios[fmt.Sprintf("%s|%d", m.c.engine(), m.c.Conns)] = r
				}
			}
			if m.res.AllocsPerReq > allocsMax {
				allocsMax = m.res.AllocsPerReq
			}
			if m.c.engine() == "nztm" && m.c.Fsync == "" && m.res.AllocsPerReq > nztmOffMax {
				nztmOffMax = m.res.AllocsPerReq
			}
		}
		t.Add(m.c.Runtime, m.c.engine(),
			fmt.Sprintf("%d", m.c.Conns), fmt.Sprintf("%d", m.c.Shards), m.c.walLabel(),
			fmt.Sprintf("%.0f", m.res.ReqsPerSec()),
			fmt.Sprintf("%.0f", m.res.ReqsPerCore()),
			fmt.Sprintf("%.2f", m.res.AllocsPerReq), rel)
	}
	fmt.Fprint(w, t.String())
	gate := func(label string, k string, want float64) {
		r, ok := ratios[k]
		if !ok {
			fmt.Fprintf(w, "  %s >= %.1fx/core: n/a (point not in this grid)\n", label, want)
			return
		}
		fmt.Fprintf(w, "  %s >= %.1fx/core: %.2fx %s\n", label, want, r, pass(r >= want))
	}
	fmt.Fprintln(w, "Acceptance (wal-off, equal shards):")
	gate("nztm c64 ", "nztm|64", 1.5)
	gate("nztm c256", "nztm|256", 1.5)
	gate("tl2  c256", "tl2|256", 1.6)
	fmt.Fprintf(w, "  allocs/req <= 1 on every worker point: max %.2f %s\n", allocsMax, pass(allocsMax <= 1))
	fmt.Fprintf(w, "  allocs/req <= 0.2 on nztm wal-off:     max %.2f %s\n", nztmOffMax, pass(nztmOffMax <= 0.2))
	fmt.Fprintln(w)

	lowOccTable(w)

	st := NewTable(fmt.Sprintf("Slow-reader soak — 1 of %d conns bursts %d GETs and never reads (windows of %d x %d reqs)",
		soakConns, soakBurst, soakWindows, scalePipeline),
		"soak", "conns", "healthy req/s", "worst window", "bp pauses", "kills")
	for _, rt := range []string{"goroutine", "worker"} {
		r, err := RunSlowReaderSoak(rt, soakConns, scalePipeline, soakWindows)
		if err != nil {
			fmt.Fprintf(w, "E15 soak %s: %v\n", rt, err)
			continue
		}
		st.Add("soak-"+rt, fmt.Sprintf("%d", r.Conns),
			fmt.Sprintf("%.0f", r.ReqsPerSec()),
			fmt.Sprint(r.Worst.Round(time.Millisecond)),
			fmt.Sprint(r.Pauses), fmt.Sprint(r.Kills))
	}
	fmt.Fprint(w, st.String())
	fmt.Fprintln(w, "A cross-connection stall would appear as a multi-second worst window; the worker row")
	fmt.Fprintln(w, "must show bp pauses >= 1 (the stall really tripped -max-pending-write) and kills = 0")
	fmt.Fprintln(w, "(held by backpressure, not reaped by FlushTimeout). The goroutine runtime isolates")
	fmt.Fprintln(w, "the stall in its own handler and has no flusher counters.")
}
