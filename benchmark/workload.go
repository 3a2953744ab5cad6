package main

import (
	"math/rand"
	"strconv"
)

// spec is one workload: its traffic shape and the absolute constants
// calibrated once on the seed commit (README "Calibration"). Nothing
// here is derived at run time from the commit under test.
type spec struct {
	name string
	why  string
	// ungated is set on a workload that BENCHMARK.json does not list,
	// and says why: it runs on request, in -smoke and in -aa, and its
	// numbers are recorded, but no bound is put on them.
	ungated string

	keys   int // preloaded keys (accounts on the transactional workload)
	window int // P: requests written with one Write
	// Request mix in percent; the remainder is GET.
	setPct, delPct int
	// ownReads restricts GETs to the connection's own keys too, so every
	// reply is predictable byte for byte (write-reqresp).
	ownReads bool
	// txn marks the transactional workload: windows are MULTI..EXEC
	// blocks rendered at send time from the balances last seen.
	txn bool

	// closedPerSec sizes the closed phase: it sends
	// closedPerSec × closedShare × seconds requests, which takes the
	// seed commit closedShare × seconds. rungs are the three open-loop
	// offered rates in req/s; limitUS is the p99 limit at a rung.
	closedPerSec float64
	rungs        [3]float64
	limitUS      float64
	// warmReqs is the fixed amount of warm-up work that ends set-up;
	// traceWindows the length of the traced stream per pass.
	warmReqs     int
	traceWindows int
}

// Shares of -seconds spent in each measured phase: closed, then the
// three open rungs. They sum to 1.
const closedShare = 0.25

var rungShare = [3]float64{0.20, 0.35, 0.20}

// poolReqs is how many requests each connection pre-builds; the pool is
// replayed cyclically when a phase needs more.
const poolReqs = 1 << 17

const (
	txnAccounts    = 64
	txnInitBalance = 1000
	txnZipfS       = 1.1
)

var specs = []spec{
	{
		name: "read-pipelined",
		why:  "1024 keys, 95% GET / 5% SET, windows of 32: wire parse/render/flush and the engine read path, folding at its best, WAL nearly idle",
		keys: 1024, window: 32, setPct: 5,
		closedPerSec: 340000, rungs: [3]float64{85000, 170000, 255000}, limitUS: 3000,
		warmReqs: 150000, traceWindows: 20000,
	},
	{
		name: "write-reqresp",
		why:  "1024 keys, 70% SET / 10% DEL / 20% GET, one request per write, single writer per key: nothing folds, every request pays syscalls, round, txn, commit hook and WAL record",
		keys: 1024, window: 1, setPct: 70, delPct: 10, ownReads: true,
		closedPerSec: 20000, rungs: [3]float64{5000, 10000, 15000}, limitUS: 2000,
		warmReqs: 10000, traceWindows: 20000,
	},
	{
		name: "txn-contended",
		why:  "64 accounts drawn Zipf(1.1), one MULTI..EXEC per window, half 4-account snapshots, half CAS-pair transfers: conflicting transactions, escalation path, cross-shard plans, engine aborts; no folding",
		keys: txnAccounts, window: 1, txn: true,
		closedPerSec: 22000, rungs: [3]float64{5500, 11000, 16500}, limitUS: 2000,
		warmReqs: 10000, traceWindows: 20000,
	},
	{
		name:    "large-keyspace",
		why:     "32768 keys on 128 sorted-list buckets (256 per bucket), 90% GET / 10% SET, windows of 8: kv list traversal and engine read-set growth dominate, the wire path is noise",
		ungated: "its 50 MB of list nodes live in the last-level cache this sandbox shares with its neighbours: closed throughput reads 22k req/s for some tens of minutes and 32k for others, so no bound of a quarter holds",
		keys:    32768, window: 8, setPct: 10,
		closedPerSec: 20000, rungs: [3]float64{5000, 10000, 15000}, limitUS: 10000,
		warmReqs: 10000, traceWindows: 4000,
	},
}

// Request kinds. Each reply is checked against the kind that caused it.
const (
	kGet uint8 = iota
	kSet
	kDel
)

// req describes one pre-built request for the reply checker.
type req struct {
	kind uint8
	own  bool   // key is written by this connection only: the reply is exact
	key  uint32 // key index
	val  uint64 // SET value
}

// pool is one connection's pre-built request stream: windows of
// sp.window requests, the bytes of window w being buf[off[w]:off[w+1]].
type pool struct {
	reqs []req
	buf  []byte
	off  []uint32
	win  int
}

func (p *pool) windows() int       { return len(p.off) - 1 }
func (p *pool) bytes(w int) []byte { return p.buf[p.off[w]:p.off[w+1]] }
func (p *pool) window(w int) []req { return p.reqs[w*p.win : (w+1)*p.win] }

// keyName is the wire name of key k: "k<k>", or "acct<k>" on the
// transactional workload.
func keyName(sp *spec, k int) string {
	if sp.txn {
		return "acct" + strconv.Itoa(k)
	}
	return "k" + strconv.Itoa(k)
}

func streamSeed(seed int64, c int) int64 { return seed*1000003 + int64(c)*7919 + 17 }

// setValue encodes writer sequence and key into a value, so that a GET
// of a key another connection writes can still be checked: whatever
// value it returns must belong to that key (val mod keys == key).
func setValue(sp *spec, seq uint64, key int) uint64 { return seq*uint64(sp.keys) + uint64(key) }

// buildPool generates connection c's request stream (of conns) from the
// seed. Writes go only to the connection's own keys (key mod conns ==
// c), so the union of the connections' models is the exact store state.
func buildPool(sp *spec, seed int64, c, conns int) *pool {
	rng := rand.New(rand.NewSource(streamSeed(seed, c)))
	n := poolReqs / sp.window * sp.window
	p := &pool{reqs: make([]req, n), win: sp.window, off: make([]uint32, 0, n/sp.window+1)}
	own := (sp.keys - c + conns - 1) / conns // own keys: c, c+conns, ...
	var seq uint64
	for i := range p.reqs {
		if i%sp.window == 0 {
			p.off = append(p.off, uint32(len(p.buf)))
		}
		r := &p.reqs[i]
		roll := rng.Intn(100)
		switch {
		case roll < sp.setPct:
			r.kind = kSet
		case roll < sp.setPct+sp.delPct:
			r.kind = kDel
		default:
			r.kind = kGet
		}
		if r.kind == kGet && !sp.ownReads {
			r.key = uint32(rng.Intn(sp.keys))
		} else {
			r.key = uint32(c + conns*rng.Intn(own))
		}
		r.own = int(r.key)%conns == c
		switch r.kind {
		case kGet:
			p.buf = append(p.buf, "GET k"...)
			p.buf = strconv.AppendUint(p.buf, uint64(r.key), 10)
		case kSet:
			seq++
			r.val = setValue(sp, seq, int(r.key))
			p.buf = append(p.buf, "SET k"...)
			p.buf = strconv.AppendUint(p.buf, uint64(r.key), 10)
			p.buf = append(p.buf, ' ')
			p.buf = strconv.AppendUint(p.buf, r.val, 10)
		case kDel:
			p.buf = append(p.buf, "DEL k"...)
			p.buf = strconv.AppendUint(p.buf, uint64(r.key), 10)
		}
		p.buf = append(p.buf, '\n')
	}
	p.off = append(p.off, uint32(len(p.buf)))
	return p
}

// txnPlan is one planned transaction of the transactional workload:
// a snapshot of all four accounts, or a transfer of amt from acct[0] to
// acct[1]. The accounts are distinct.
type txnPlan struct {
	transfer bool
	acct     [4]uint8
	amt      uint8
}

func buildTxnPlans(seed int64, c int) []txnPlan {
	rng := rand.New(rand.NewSource(streamSeed(seed, c)))
	zipf := rand.NewZipf(rng, txnZipfS, 1, txnAccounts-1)
	plans := make([]txnPlan, poolReqs)
	for i := range plans {
		pl := &plans[i]
		pl.transfer = rng.Intn(2) == 0
		pl.amt = uint8(1 + rng.Intn(10))
		for j := 0; j < 4; {
			a := uint8(zipf.Uint64())
			dup := false
			for _, b := range pl.acct[:j] {
				dup = dup || a == b
			}
			if !dup {
				pl.acct[j] = a
				j++
			}
		}
	}
	return plans
}

// model is one connection's view of the store: for its own keys the
// exact state (it is their only writer), for every key the preloaded
// state. Preload stores key k -> k on every key.
type model struct {
	present []bool
	val     []uint64
}

func newModel(sp *spec) *model {
	m := &model{present: make([]bool, sp.keys), val: make([]uint64, sp.keys)}
	for k := range m.val {
		m.present[k] = true
		m.val[k] = uint64(k)
	}
	return m
}
