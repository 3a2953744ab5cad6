package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadgen is the load generator: C connections, each replaying its own
// seeded stream, driven through a closed phase and open-loop rungs.
type loadgen struct {
	sp      *spec
	seed    int64
	clients []*client
}

func newLoadgen(sp *spec, seed int64, conns int) *loadgen {
	g := &loadgen{sp: sp, seed: seed}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, newClient(sp, i, seed, conns))
	}
	return g
}

func (g *loadgen) connect(addr string) error {
	for _, c := range g.clients {
		if err := c.connect(addr); err != nil {
			return err
		}
	}
	return nil
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.close()
	}
}

// reset closes the connections and rewinds every client to its
// post-preload state.
func (g *loadgen) reset() {
	g.close()
	for _, c := range g.clients {
		c.reset()
	}
}

// tally merges the clients' counts. Requests written but never answered
// count as unanswered.
func (g *loadgen) tally() tally {
	var t tally
	for _, c := range g.clients {
		ct := c.t
		ct.unanswered = c.sent.Load() - ct.attempted
		ct.attempted = c.sent.Load()
		t.add(&ct)
	}
	return t
}

func (g *loadgen) answered() int64 {
	var n int64
	for _, c := range g.clients {
		n += c.t.attempted
	}
	return n
}

// closed runs the closed phase: every connection keeps exactly one
// window outstanding until total requests have been sent, or the
// deadline passes. It returns the requests answered and the time from
// the common start to the last answer.
func (g *loadgen) closed(total int64, deadline time.Duration) (acked int64, elapsed time.Duration) {
	var remaining atomic.Int64
	remaining.Store((total + int64(g.sp.window) - 1) / int64(g.sp.window))
	before := g.answered()
	ends := make([]time.Time, len(g.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.nc.SetDeadline(start.Add(deadline))
			for remaining.Add(-1) >= 0 {
				if c.sendWindow() != nil || c.recvWindow() != nil {
					break
				}
			}
			ends[i] = time.Now()
		}()
	}
	wg.Wait()
	for _, e := range ends {
		if d := e.Sub(start); d > elapsed {
			elapsed = d
		}
	}
	return g.answered() - before, elapsed
}

// rungResult is what one open-loop rung measured. Latency is per
// window: last reply parsed minus the time the window was due to be
// sent, so a stall is charged to every window that waited behind it.
type rungResult struct {
	offered  int64         // windows scheduled
	answered int64         // windows answered before the deadline
	reqs     int64         // ... in requests
	onTime   int64         // ... by the end of the schedule plus the latency limit
	samples  []sample      // answered windows due after the rung's first tenth, by due time
	lat      hist          // their latencies, ns
	lag      hist          // ns, actual send minus due time
	busy     time.Duration // start of the schedule to the last answer
}

// delivered is the rate at which requests were answered, in req/s.
func (r *rungResult) delivered() float64 {
	if r.busy == 0 {
		return 0
	}
	return float64(r.reqs) / r.busy.Seconds()
}

// add appends a later part of the same rung.
func (r *rungResult) add(o *rungResult) {
	r.offered += o.offered
	r.answered += o.answered
	r.reqs += o.reqs
	r.onTime += o.onTime
	r.samples = append(r.samples, o.samples...)
	r.lat.Merge(&o.lat)
	r.lag.Merge(&o.lag)
	r.busy += o.busy
}

// sample is one answered window: when it was due, from the rung's
// start, and how long after that its last reply was parsed, both in ns.
type sample struct{ at, lat int64 }

// sliceWindows is the length of one slice of a rung, in windows: the
// fewest that leave ten samples beyond the 99th percentile.
const sliceWindows = 1000

// quantileUS is the median, over the rung's slices of sliceWindows
// consecutive windows, of the slice's q-quantile in us. This sandbox
// stalls for a few milliseconds about once a second; at the measured
// rates each stall delays about one window in a hundred, so the
// whole-rung p99 measures how long the stalls happened to be and moves
// by a quarter between identical runs. A stall lands in one slice and
// does not move the median slice. The whole-rung tail is reported
// beside it (client.latency_p99_whole_us, _p999_us, _max_us).
func (r *rungResult) quantileUS(q float64) float64 {
	var v []float64
	var h hist
	for i := 0; i+sliceWindows <= len(r.samples); i += sliceWindows {
		h = hist{}
		for _, s := range r.samples[i : i+sliceWindows] {
			h.Record(s.lat)
		}
		v = append(v, h.Quantile(q)/1e3)
	}
	if len(v) == 0 {
		return r.lat.Quantile(q) / 1e3
	}
	return median(v)
}

func (r *rungResult) p99us() float64 { return r.quantileUS(0.99) }

// pass reports whether the rung met the latency limit: p99 within it,
// and at least 99 % of the offered windows answered by the end of the
// schedule plus the limit — which a growing backlog cannot do.
func (r *rungResult) pass(limitUS float64) bool {
	return r.p99us() <= limitUS && float64(r.onTime) >= 0.99*float64(r.offered)
}

// arrivals draws one connection's Poisson schedule for one part of the
// open phase: offsets from the part's start, in ns, at perSec windows
// per second for dur.
func arrivals(seed int64, part, conn int, perSec float64, dur time.Duration) []int64 {
	rng := rand.New(rand.NewSource(streamSeed(seed, conn) + int64(part+1)*104729))
	var out []int64
	for t := rng.ExpFloat64() / perSec; t < dur.Seconds(); t += rng.ExpFloat64() / perSec {
		out = append(out, int64(t*1e9))
	}
	return out
}

// due is one scheduled window: its offset from the rung's start and the
// connection that sends it.
type due struct {
	at   int64
	conn int
}

// open runs one part of an open-loop rung: windows are sent when the seeded
// schedule says so, whatever the replies do. One pacer goroutine sends
// for every connection, sleeping in nanosleep on its own thread: the Go
// runtime's timers are only good to a millisecond when the process is
// otherwise idle, which would put the generator's own lateness into
// every latency. grace bounds the wait for answers after the schedule
// ends.
func (g *loadgen) open(part int, rate float64, dur, grace time.Duration) *rungResult {
	res := &rungResult{}
	perConn := rate / float64(g.sp.window) / float64(len(g.clients))
	limit := time.Duration(g.sp.limitUS * 1e3)
	// The first tenth of the schedule is warm-up.
	warm := int64(dur / 10)
	type connPart struct {
		samples          []sample
		answered, onTime int64
		last             time.Duration
	}
	parts := make([]connPart, len(g.clients))
	scheds := make([][]int64, len(g.clients))
	var merged []due
	for i := range g.clients {
		scheds[i] = arrivals(g.seed, part, i, perConn, dur)
		for _, at := range scheds[i] {
			merged = append(merged, due{at, i})
		}
		parts[i].samples = make([]sample, 0, len(scheds[i]))
	}
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].at < merged[b].at })
	res.offered = int64(len(merged))
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // pacer
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		preciseSleepInit()
		dead := make([]bool, len(g.clients))
		for _, d := range merged {
			late := time.Since(start) - time.Duration(d.at)
			for late < 0 {
				preciseSleep(-late)
				late = time.Since(start) - time.Duration(d.at)
			}
			res.lag.Record(int64(late))
			if !dead[d.conn] && g.clients[d.conn].sendWindow() != nil {
				dead[d.conn] = true
			}
		}
	}()
	for i, c := range g.clients {
		sched, p := scheds[i], &parts[i]
		c.nc.SetDeadline(start.Add(dur + grace))
		wg.Add(1)
		go func() { // reader
			defer wg.Done()
			for _, at := range sched {
				if c.recvWindow() != nil {
					return
				}
				now := time.Since(start)
				p.answered++
				p.last = now
				if now <= dur+limit {
					p.onTime++
				}
				if at >= warm {
					p.samples = append(p.samples, sample{at, int64(now) - at})
				}
			}
		}()
	}
	wg.Wait()
	var last time.Duration
	for i := range parts {
		p := &parts[i]
		res.samples = append(res.samples, p.samples...)
		res.answered += p.answered
		res.onTime += p.onTime
		if p.last > last {
			last = p.last
		}
	}
	sort.SliceStable(res.samples, func(a, b int) bool { return res.samples[a].at < res.samples[b].at })
	for _, s := range res.samples {
		res.lat.Record(s.lat)
	}
	res.busy, res.reqs = last, res.answered*int64(g.sp.window)
	return res
}

// preciseSleepInit asks the kernel not to round the calling thread's
// sleeps: the default timer slack is 50 us.
func preciseSleepInit() {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: failure only costs precision
}

// preciseSleep blocks the calling thread for d.
func preciseSleep(d time.Duration) {
	if d < 2*time.Microsecond {
		return // shorter than the syscall: spin
	}
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early return is handled by the caller's loop
}

// control is the benchmark's side channel to the server: PING, preload,
// counters and verification reads, written for clarity, not speed.
type control struct {
	c *client
}

func dialControl(sp *spec, addr string) (*control, error) {
	c := &client{id: -1, sp: sp}
	if err := c.connect(addr); err != nil {
		return nil, err
	}
	return &control{c: c}, nil
}

// do writes the request lines with one Write and returns one reply line
// per expected line count.
func (k *control) do(reqs string, lines int) ([]string, error) {
	k.c.nc.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := k.c.nc.Write([]byte(reqs)); err != nil {
		return nil, err
	}
	out := make([]string, 0, lines)
	for len(out) < lines {
		l, err := k.c.lr.line()
		if err != nil {
			return out, err
		}
		out = append(out, string(l))
	}
	return out, nil
}

// ping returns nil once the server answers PONG.
func (k *control) ping() error {
	r, err := k.do("PING\n", 1)
	if err == nil && r[0] != "PONG" {
		err = fmt.Errorf("PING answered %q", r[0])
	}
	return err
}

// expectAll sends one request per element and tallies every reply that
// differs from the expected line.
func (k *control) expectAll(reqs, want []string, t *tally) error {
	const chunk = 64
	for i := 0; i < len(reqs); i += chunk {
		j := min(i+chunk, len(reqs))
		got, err := k.do(strings.Join(reqs[i:j], "\n")+"\n", j-i)
		t.attempted += int64(j - i)
		t.unanswered += int64(j - i - len(got))
		for n, g := range got {
			if g == want[i+n] {
				continue
			}
			counter := &t.wrongValue
			switch kind, _ := classify([]byte(g)); kind {
			case rBad:
				counter = &t.malformed
			case rErr:
				counter = &t.errs
			}
			*counter++
			if t.firstBad == "" {
				t.firstBad = fmt.Sprintf("control: %q answered %q, want %q", reqs[i+n], g, want[i+n])
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// preload stores every key of the workload: key k -> k, or the initial
// balance on the transactional workload.
func (k *control) preload(t *tally) error {
	sp := k.c.sp
	reqs, want := make([]string, sp.keys), make([]string, sp.keys)
	for i := range reqs {
		v := uint64(i)
		if sp.txn {
			v = txnInitBalance
		}
		reqs[i] = "SET " + keyName(sp, i) + " " + strconv.FormatUint(v, 10)
		want[i] = "OK NEW"
	}
	return k.expectAll(reqs, want, t)
}

// counters is a snapshot of the server's wire-visible counters, summed
// over workers.
type counters struct {
	txns, cross, aborts                 int64 // STATS
	reqs, rounds, escalations, dispatch int64 // STATS WORKERS
	sealed, pauses, kills               int64 // STATS FLUSH
}

func (a counters) sub(b counters) counters {
	return counters{a.txns - b.txns, a.cross - b.cross, a.aborts - b.aborts,
		a.reqs - b.reqs, a.rounds - b.rounds, a.escalations - b.escalations, a.dispatch - b.dispatch,
		a.sealed - b.sealed, a.pauses - b.pauses, a.kills - b.kills}
}

// field extracts key=<int> from a counter line.
func field(line, key string) (int64, error) {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s= in %q", key, line)
}

func (k *control) counters() (counters, error) {
	var c counters
	var firstErr error
	get := func(line, key string) int64 {
		v, err := field(line, key)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	block := func(req, countKey, prefix string) ([]string, error) {
		head, err := k.do(req, 1)
		if err != nil {
			return nil, err
		}
		var n int64
		if countKey == "" {
			n, err = strconv.ParseInt(strings.TrimPrefix(head[0], prefix), 10, 64)
		} else {
			n, err = field(head[0], countKey)
		}
		if err != nil {
			return nil, fmt.Errorf("%s answered %q", strings.TrimSpace(req), head[0])
		}
		body, err := k.do("", int(n))
		return append(head, body...), err
	}
	st, err := k.do("STATS\n", 1)
	if err != nil {
		return c, err
	}
	c.txns, c.cross, c.aborts = get(st[0], "txns"), get(st[0], "cross"), get(st[0], "aborts")
	ws, err := block("STATS WORKERS\n", "", "WORKERS ")
	if err != nil {
		return c, err
	}
	for _, l := range ws[1:] {
		c.reqs += get(l, "reqs")
		c.rounds += get(l, "rounds")
		c.escalations += get(l, "escalations")
		c.dispatch += get(l, "dispatches")
	}
	fl, err := block("STATS FLUSH\n", "workers", "")
	if err != nil {
		return c, err
	}
	c.sealed, c.pauses, c.kills = get(fl[0], "sealed"), get(fl[0], "pauses"), get(fl[0], "kills")
	return c, firstErr
}
