package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/nztm"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wal"
)

// This file is the traced run: the per-layer cost ledger. Spans are
// recorded from the benchmark's own code, around calls into each
// layer's public functions — nothing inside the program is instrumented.
// One connection replays the workload's seeded stream in a closed loop
// against an in-process server (wire pass); the same operations are then
// executed directly on a kv store (store pass) and, as bare read/write
// counts, on the engine (engine pass). Self times are differences, so
// the ledger sums to the round trip by construction; what the run has to
// show is that every self time is non-negative and the tracing overhead
// small.

// span is one timed interval. Spans of one window share its number;
// Parent is the id of the span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Window int    `json:"window"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, window int, start, end int64) int {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id, parent, window, name, start, end})
	t.mu.Unlock()
	return id
}

// open records a span whose end is not known yet.
func (t *tracer) open(name string, parent, window int) int {
	return t.add(name, parent, window, t.now(), 0)
}

func (t *tracer) close(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// sum returns the total duration and the count of the spans named name.
func (t *tracer) sum(name string) (total int64, n int64) {
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			total += s.End - s.Start
			n++
		}
	}
	return total, n
}

type tracedResult struct {
	metrics           map[string]float64
	notes             []string
	attempted, failed int64
	bad               string
}

func (r *tracedResult) notef(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// runTraced runs the traced passes of one workload and writes the spans
// to benchmark/out/trace-<workload>.json.
func runTraced(sp *spec, seed int64, seconds float64, b *bench) (*tracedResult, error) {
	res := &tracedResult{metrics: map[string]float64{}}
	// The full stream from 20 s of run length on; shorter runs (-smoke)
	// trace proportionally less.
	windows := max(int(float64(sp.traceWindows)*min(seconds, 20)/20), 200)
	tr := &tracer{t0: time.Now()}
	dir := filepath.Join(b.workDir, "trace")

	// Wire pass, first plain and span-free, then traced.
	plain, err := wirePass(sp, seed, windows, filepath.Join(dir, "plain"), nil, res)
	if err != nil {
		return nil, fmt.Errorf("plain wire pass: %w", err)
	}
	traced, err := wirePass(sp, seed, windows, filepath.Join(dir, "traced"), tr, res)
	if err != nil {
		return nil, fmt.Errorf("traced wire pass: %w", err)
	}
	reqs := float64(traced.requests)
	rt, _ := tr.sum("server.roundtrip")
	ap, appends := tr.sum("wal.append")
	res.metrics["client.trace_overhead_pct"] = 100 * (traced.elapsed.Seconds() - plain.elapsed.Seconds()) / plain.elapsed.Seconds()
	res.metrics["server.roundtrip_us_per_req"] = float64(rt) / reqs / 1e3
	res.metrics["wal.append_ns"] = float64(ap) / float64(max(appends, 1))
	var aph hist
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Name == "wal.append" {
			aph.Record(s.End - s.Start)
		}
	}
	res.metrics["wal.append_p99_us"] = aph.Quantile(0.99) / 1e3
	res.notef("wire pass: %d windows, %d requests; plain %.3f s, traced %.3f s; %d WAL appends",
		windows, traced.requests, plain.elapsed.Seconds(), traced.elapsed.Seconds(), appends)

	// Store pass: timed on the bare engine, counted on the wrapper.
	bare := kv.New(nztm.New(), 8, 16)
	if err := storePass(sp, seed, windows, bare, tr, nil); err != nil {
		return nil, fmt.Errorf("store pass: %w", err)
	}
	ctm := &countTM{TM: nztm.New()}
	if err := storePass(sp, seed, windows, kv.New(ctm, 8, 16), nil, ctm); err != nil {
		return nil, fmt.Errorf("counting store pass: %w", err)
	}
	kvNS, _ := tr.sum("kv.txn")
	res.metrics["kv.txn_ns_per_req"] = float64(kvNS) / reqs
	res.metrics["core.reads_per_req"] = float64(ctm.reads) / reqs
	res.metrics["core.writes_per_req"] = float64(ctm.writes) / reqs
	res.metrics["core.attempts_per_txn"] = float64(ctm.begins) / float64(max(ctm.commits, 1))
	res.notef("store pass: %d transactions, %d attempts, %d reads, %d writes", ctm.commits, ctm.begins, ctm.reads, ctm.writes)

	// Engine pass: the same read and write counts on the bare engine.
	enginePass(ctm.perWindow, tr)
	coreNS, _ := tr.sum("core.txn")
	res.metrics["core.txn_ns_per_req"] = float64(coreNS) / reqs
	res.metrics["kv.self_ns_per_req"] = float64(kvNS-coreNS) / reqs
	res.metrics["server.self_us_per_req"] = (float64(rt) - float64(kvNS) - float64(ap)) / reqs / 1e3

	// WAL calls.
	for k, v := range traced.wal {
		res.metrics[k] = v
	}
	us, n, err := appendAlways(filepath.Join(dir, "always"))
	if err != nil {
		return nil, fmt.Errorf("wal always: %w", err)
	}
	res.metrics["wal.append_always_us"] = us
	res.notef("wal: %d appends under -fsync always, median %.1f us", n, us)

	out, err := json.Marshal(map[string]any{"workload": sp.name, "seed": seed, "env": b.env, "spans": tr.spans})
	if err == nil {
		err = os.WriteFile(filepath.Join(b.outDir, "trace-"+sp.name+".json"), out, 0o644)
	}
	if err != nil {
		return nil, err
	}
	return res, os.RemoveAll(dir)
}

type wirePassResult struct {
	requests int64
	elapsed  time.Duration
	wal      map[string]float64
}

// wirePass serves the stream from an in-process server built exactly
// like the shipped one. With a tracer it records one server.roundtrip
// span per window and, through a wrapper installed in place of the
// server's commit hook, one wal.append span per call of Log.Append; then
// it times a snapshot cut and recovery from the directory.
func wirePass(sp *spec, seed int64, windows int, dir string, tr *tracer, res *tracedResult) (*wirePassResult, error) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Engine: "nztm", Shards: 8,
		Workers: runtime.NumCPU(), WALDir: dir, Fsync: "interval"})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()
	var curSpan, curWindow atomic.Int64
	if tr != nil {
		log := srv.WAL()
		srv.Store().SetCommitHook(func(effects []kv.Effect) error {
			start := tr.now()
			err := log.Append(effects)
			tr.add("wal.append", int(curSpan.Load()), int(curWindow.Load()), start, tr.now())
			return err
		})
	}
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	ctl, err := dialControl(sp, srv.Addr().String())
	if err != nil {
		return nil, err
	}
	defer ctl.c.close()
	var ct tally
	curSpan.Store(-1)
	curWindow.Store(-1)
	if err := ctl.preload(&ct); err != nil {
		return nil, err
	}
	c := newClient(sp, 0, seed, 1)
	if err := c.connect(srv.Addr().String()); err != nil {
		return nil, err
	}
	defer c.close()
	c.nc.SetDeadline(time.Now().Add(120 * time.Second))
	out := &wirePassResult{wal: map[string]float64{}}
	// The first tenth again as warm-up: windows -warm..-1 are not
	// measured. The store pass replays the same numbering.
	warm := windows / 10
	var t0 time.Time
	for w := -warm; w < windows; w++ {
		if w == 0 {
			t0 = time.Now()
		}
		id := -1
		if tr != nil && w >= 0 {
			id = tr.open("server.roundtrip", -1, w)
			curSpan.Store(int64(id))
			curWindow.Store(int64(w))
		}
		if err := c.sendWindow(); err != nil {
			return nil, err
		}
		if err := c.recvWindow(); err != nil {
			return nil, err
		}
		if id >= 0 {
			tr.close(id)
		}
	}
	out.elapsed = time.Since(t0)
	out.requests = int64(windows * sp.window)
	curSpan.Store(-1)
	curWindow.Store(-1)
	ct.add(&c.t)
	res.attempted += ct.attempted
	res.failed += ct.failed()
	if res.bad == "" {
		res.bad = ct.firstBad
	}
	if tr == nil {
		return out, nil
	}

	// Snapshot cut, then recovery: from the chain the cut wrote, and from
	// a snapshot-free copy of the log (full replay).
	time.Sleep(150 * time.Millisecond) // let the log goroutine write the tail
	replayDir := dir + "-replay"
	if err := copyDir(dir, replayDir); err != nil {
		return nil, err
	}
	before, err := dirFiles(dir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := srv.SnapshotNow(); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	out.wal["wal.cut_ms"] = time.Since(start).Seconds() * 1e3
	after, err := dirFiles(dir)
	if err != nil {
		return nil, err
	}
	var cutBytes int64
	for name, size := range after {
		if _, old := before[name]; !old {
			cutBytes += size
		}
	}
	out.wal["wal.cut_bytes"] = float64(cutBytes)
	closed = true
	if err := srv.Close(); err != nil {
		return nil, err
	}
	<-served
	open := func(dir string) (time.Duration, wal.Recovered, error) {
		start := time.Now()
		l, rec, err := wal.Open(wal.Options{Dir: dir})
		d := time.Since(start)
		if err == nil {
			err = l.Close()
		}
		return d, rec, err
	}
	d, rec, err := open(dir)
	if err != nil {
		return nil, fmt.Errorf("recovery from the chain: %w", err)
	}
	out.wal["wal.recover_chain_ms"] = d.Seconds() * 1e3
	tr.add("wal.recover_chain", -1, -1, 0, int64(d))
	d2, rec2, err := open(replayDir)
	if err != nil {
		return nil, fmt.Errorf("recovery by replay: %w", err)
	}
	out.wal["wal.replay_ns_per_rec"] = float64(d2) / float64(max(rec2.Records, 1))
	res.notef("wal: cut %d bytes; chain recovery %d keys (%d records replayed); full replay %d records, %d keys",
		cutBytes, rec.Keys, rec.Records, rec2.Records, rec2.Keys)
	res.attempted++
	if rec.Keys != rec2.Keys && res.bad == "" {
		res.failed++
		res.bad = fmt.Sprintf("recovery from the chain found %d keys, full replay %d", rec.Keys, rec2.Keys)
	}
	return out, os.RemoveAll(replayDir)
}

func dirFiles(dir string) (map[string]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	m := map[string]int64{}
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			m[e.Name()] = info.Size()
		}
	}
	return m, nil
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		src, err := os.Open(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		dst, err := os.Create(filepath.Join(to, e.Name()))
		if err == nil {
			_, err = io.Copy(dst, src)
			if cerr := dst.Close(); err == nil {
				err = cerr
			}
		}
		src.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// serverUnit is the worker runtime's default -unit: the most ops it
// folds into one transaction.
const serverUnit = 8

// txnBuilder turns the stream, window by window in order, into the
// transactions the server runs for it: unconditional ops fold per owning
// worker (shard mod workers) into units of up to serverUnit, in order; a
// MULTI block is one transaction. It replays the single connection's
// model, so the transactional blocks carry the balances the wire client
// sends.
type txnBuilder struct {
	sp      *spec
	se      *kv.Session
	pool    *pool
	plans   []txnPlan
	bal     [txnAccounts]uint64
	workers int
	units   [][]kv.Op // scratch: the open unit per owner
	handles []uint64
	next    int // next window of the stream
}

func newTxnBuilder(sp *spec, seed int64, se *kv.Session) *txnBuilder {
	tb := &txnBuilder{sp: sp, se: se, workers: runtime.NumCPU()}
	tb.units = make([][]kv.Op, tb.workers)
	tb.handles = make([]uint64, sp.keys)
	for k := range tb.handles {
		tb.handles[k] = se.Handle(keyName(sp, k))
	}
	if sp.txn {
		tb.plans = buildTxnPlans(seed, 0)
		for i := range tb.bal {
			tb.bal[i] = txnInitBalance
		}
	} else {
		tb.pool = buildPool(sp, seed, 0, 1)
	}
	return tb
}

// each calls run once per transaction of the stream's next window.
func (tb *txnBuilder) each(run func(ops []kv.Op) error) error {
	w := tb.next
	tb.next++
	if tb.sp.txn {
		pl := tb.plans[w%len(tb.plans)]
		a, z, amt := pl.acct[0], pl.acct[1], uint64(pl.amt)
		if tb.bal[a] < amt {
			a, z = z, a
		}
		ops := tb.units[0][:0]
		if pl.transfer && tb.bal[a] >= amt {
			ops = append(ops,
				kv.Op{Kind: kv.OpCAS, Handle: tb.handles[a], Old: tb.bal[a], Val: tb.bal[a] - amt},
				kv.Op{Kind: kv.OpCAS, Handle: tb.handles[z], Old: tb.bal[z], Val: tb.bal[z] + amt})
			tb.bal[a] -= amt
			tb.bal[z] += amt
		} else {
			for _, x := range pl.acct {
				ops = append(ops, kv.Op{Kind: kv.OpGet, Handle: tb.handles[x]})
			}
		}
		tb.units[0] = ops
		return run(ops)
	}
	store := tb.se.Store()
	for _, r := range tb.pool.window(w % tb.pool.windows()) {
		op := kv.Op{Handle: tb.handles[r.key], Val: r.val}
		switch r.kind {
		case kGet:
			op.Kind = kv.OpGet
		case kSet:
			op.Kind = kv.OpPut
		case kDel:
			op.Kind = kv.OpDelete
		}
		o := store.ShardOf(op.Handle) % tb.workers
		tb.units[o] = append(tb.units[o], op)
		if len(tb.units[o]) == serverUnit {
			if err := run(tb.units[o]); err != nil {
				return err
			}
			tb.units[o] = tb.units[o][:0]
		}
	}
	for o := range tb.units {
		if len(tb.units[o]) > 0 {
			if err := run(tb.units[o]); err != nil {
				return err
			}
			tb.units[o] = tb.units[o][:0]
		}
	}
	return nil
}

// storePass executes the stream's transactions with kv.Session.Txn on
// store. With a tracer it records one kv.txn span per window; with a
// counting engine it records each window's per-transaction read and
// write counts. A no-op commit hook stands in for the WAL, so that kv
// renders effects and takes its commit-order locks as it does in the
// server.
func storePass(sp *spec, seed int64, windows int, store *kv.Store, tr *tracer, ctm *countTM) error {
	se := store.NewSession()
	for k := 0; k < sp.keys; k++ {
		v := uint64(k)
		if sp.txn {
			v = txnInitBalance
		}
		if _, err := se.Put(nil, keyName(sp, k), v); err != nil {
			return err
		}
	}
	store.SetCommitHook(func([]kv.Effect) error { return nil })
	tb := newTxnBuilder(sp, seed, se)
	run := func(ops []kv.Op) error {
		_, err := se.Txn(nil, ops)
		return err
	}
	warm := windows / 10
	for w := -warm; w < windows; w++ {
		if w == 0 && ctm != nil {
			ctm.reset()
		}
		var start int64
		if tr != nil {
			start = tr.now()
		}
		if err := tb.each(run); err != nil {
			return err
		}
		if w < 0 {
			continue
		}
		if tr != nil {
			tr.add("kv.txn", -1, w, start, tr.now())
		}
		if ctm != nil {
			ctm.endWindow()
		}
	}
	return nil
}

// rw is the size of one committed transaction.
type rw struct{ reads, writes int32 }

// countTM forwards to an engine and counts what passes through. kv and
// ds use only the core.TM and core.Tx interfaces (plus the optional
// Recycle, forwarded below), so the wrapper is transparent to them.
type countTM struct {
	core.TM
	begins, commits, reads, writes int64
	window                         []rw
	perWindow                      [][]rw
}

func (c *countTM) reset() {
	c.begins, c.commits, c.reads, c.writes = 0, 0, 0, 0
	c.window, c.perWindow = nil, nil
}

func (c *countTM) endWindow() {
	c.perWindow = append(c.perWindow, c.window)
	c.window = nil
}

func (c *countTM) Begin(p *sim.Proc) core.Tx {
	c.begins++
	return &countTx{Tx: c.TM.Begin(p), tm: c}
}

type countTx struct {
	core.Tx
	tm *countTM
	n  rw
}

func (t *countTx) Read(v core.Var) (uint64, error) {
	t.tm.reads++
	t.n.reads++
	return t.Tx.Read(v)
}

func (t *countTx) Write(v core.Var, val uint64) error {
	t.tm.writes++
	t.n.writes++
	return t.Tx.Write(v, val)
}

func (t *countTx) Commit() error {
	err := t.Tx.Commit()
	if err == nil {
		t.tm.commits++
		t.tm.window = append(t.tm.window, t.n)
	}
	return err
}

func (t *countTx) Recycle() {
	if r, ok := t.Tx.(core.TxRecycler); ok {
		r.Recycle()
	}
}

// enginePass replays each window's transactions as bare reads and
// writes through core.Run on a fresh engine: r reads of distinct
// variables, the last w of them then written, which is the
// read-then-update shape of an index operation.
func enginePass(perWindow [][]rw, tr *tracer) {
	const nvars = 1 << 14
	tm := nztm.New()
	vars := make([]core.Var, nvars)
	for i := range vars {
		vars[i] = tm.NewVar("v", uint64(i))
	}
	base := 0
	var cur rw
	body := func(tx core.Tx) error {
		for i := 0; i < int(cur.reads); i++ {
			if _, err := tx.Read(vars[(base+i)%nvars]); err != nil {
				return err
			}
		}
		for i := int(cur.reads) - int(cur.writes); i < int(cur.reads); i++ {
			if err := tx.Write(vars[(base+max(i, 0))%nvars], uint64(i)); err != nil {
				return err
			}
		}
		return nil
	}
	for w, txns := range perWindow {
		start := tr.now()
		for _, cur = range txns {
			core.Run(tm, nil, body) // single goroutine: nothing can abort it
			base = (base + int(cur.reads)) % nvars
		}
		tr.add("core.txn", -1, w, start, tr.now())
	}
}

// appendAlways times Log.Append of one-effect records under the always
// policy: the durable-ack latency of this machine's disk. It stops after
// 2000 records or one second.
func appendAlways(dir string) (medianUS float64, n int, err error) {
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		return 0, 0, err
	}
	var d []float64
	eff := []kv.Effect{{Key: "k", Val: 1}}
	for t0 := time.Now(); n < 2000 && time.Since(t0) < time.Second; n++ {
		start := time.Now()
		if err := l.Append(eff); err != nil {
			l.Close()
			return 0, n, err
		}
		d = append(d, float64(time.Since(start))/1e3)
	}
	sort.Float64s(d)
	return d[len(d)/2], n, l.Close()
}
