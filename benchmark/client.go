package main

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the benchmark's own byte-level client: pre-built request
// bytes out, replies parsed in place and checked against the request
// that caused them. It allocates nothing per request.

// rk is the kind of one reply line.
type rk uint8

const (
	rBad rk = iota // not a reply line of the protocol
	rErr
	rPong
	rValue // VALUE <n>
	rNotFound
	rOK
	rOKNew
	rDeleted
	rSwapped
	rCasFail
	rLen     // LEN <n>
	rQueued  // op queued inside MULTI
	rResults // RESULTS <n>
	rAborted // ABORTED cas-guard
)

// classify parses one reply line (without its newline) into its kind and
// numeric argument.
func classify(line []byte) (rk, uint64) {
	if len(line) == 0 {
		return rBad, 0
	}
	num := func(prefix string, k rk) (rk, uint64) {
		if len(line) <= len(prefix) || string(line[:len(prefix)]) != prefix {
			return rBad, 0
		}
		var n uint64
		for _, ch := range line[len(prefix):] {
			if ch < '0' || ch > '9' {
				return rBad, 0
			}
			n = n*10 + uint64(ch-'0')
		}
		return k, n
	}
	is := func(s string, k rk) (rk, uint64) {
		if string(line) == s {
			return k, 0
		}
		return rBad, 0
	}
	switch line[0] {
	case 'V':
		return num("VALUE ", rValue)
	case 'O':
		if len(line) == 2 {
			return is("OK", rOK)
		}
		return is("OK NEW", rOKNew)
	case 'N':
		return is("NOTFOUND", rNotFound)
	case 'D':
		return is("DELETED", rDeleted)
	case 'Q':
		return is("QUEUED", rQueued)
	case 'R':
		return num("RESULTS ", rResults)
	case 'A':
		return is("ABORTED cas-guard", rAborted)
	case 'S':
		return is("SWAPPED", rSwapped)
	case 'C':
		return is("CASFAIL", rCasFail)
	case 'L':
		return num("LEN ", rLen)
	case 'P':
		return is("PONG", rPong)
	case 'E':
		if len(line) >= 3 && string(line[:3]) == "ERR" {
			return rErr, 0
		}
	}
	return rBad, 0
}

// tally counts requests and every way an answer can be wrong. A request
// is one protocol line, or one whole MULTI..EXEC block.
type tally struct {
	attempted  int64
	errs       int64 // ERR replies
	malformed  int64 // not a protocol reply line
	wrongKind  int64 // a reply the request cannot produce
	wrongValue int64 // right kind, wrong content
	unanswered int64
	execs      int64 // EXEC blocks answered (transactional workload)
	aborted    int64 // ... of which ABORTED cas-guard
	firstBad   string
}

func (t *tally) failed() int64 {
	return t.errs + t.malformed + t.wrongKind + t.wrongValue + t.unanswered
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.errs += o.errs
	t.malformed += o.malformed
	t.wrongKind += o.wrongKind
	t.wrongValue += o.wrongValue
	t.unanswered += o.unanswered
	t.execs += o.execs
	t.aborted += o.aborted
	if t.firstBad == "" {
		t.firstBad = o.firstBad
	}
}

// lineReader splits a connection's byte stream into lines in place.
type lineReader struct {
	nc   net.Conn
	buf  []byte
	r, w int
}

func newLineReader(nc net.Conn) *lineReader {
	return &lineReader{nc: nc, buf: make([]byte, 64<<10)}
}

// line returns the next line without its terminator; the slice is valid
// until the next call.
func (lr *lineReader) line() ([]byte, error) {
	for {
		for i := lr.r; i < lr.w; i++ {
			if lr.buf[i] == '\n' {
				l := lr.buf[lr.r:i]
				lr.r = i + 1
				if n := len(l); n > 0 && l[n-1] == '\r' {
					l = l[:n-1]
				}
				return l, nil
			}
		}
		if lr.r > 0 {
			lr.w = copy(lr.buf, lr.buf[lr.r:lr.w])
			lr.r = 0
		}
		if lr.w == len(lr.buf) {
			return nil, errors.New("reply line longer than 64 KiB")
		}
		n, err := lr.nc.Read(lr.buf[lr.w:])
		lr.w += n
		if n == 0 && err != nil {
			return nil, err
		}
	}
}

// txnView is the transactional client's picture of the accounts. The
// writer reads it to render a transfer and updates it optimistically;
// the reader corrects it from replies. pending counts this connection's
// in-flight transfers per account: a snapshot answered while one is in
// flight must not overwrite the optimistic balance.
type txnView struct {
	mu      sync.Mutex
	bal     [txnAccounts]uint64
	stale   [txnAccounts]bool
	pending [txnAccounts]int32
}

// txnSent is what the writer actually sent for one window.
type txnSent struct {
	transfer bool
	acct     [4]uint8
}

// txnRing carries txnSent records from writer to reader. Its capacity
// bounds the windows in flight on one connection.
const txnRing = 1 << 14

// client is one load-generating connection. sendWindow is called by the
// writer side and recvWindow by the reader side; in the closed loop both
// run on one goroutine.
type client struct {
	id int
	sp *spec
	nc net.Conn
	lr *lineReader

	pool     *pool
	sendNext int // writer: next pool window to send
	recvNext int // reader: pool window the next replies answer
	m        *model

	plans    []txnPlan
	planNext int
	view     txnView
	ring     []txnSent
	sentN    atomic.Int64 // windows sent (transactional workload)
	recvN    atomic.Int64 // windows answered
	scratch  []byte

	sent atomic.Int64 // requests written; the reader side owns the rest
	t    tally
	// writes counts answered requests that changed the store (SET, DEL
	// of a present key); transfers counts answered transfer blocks.
	writes, transfers int64
}

func newClient(sp *spec, id int, seed int64, conns int) *client {
	c := &client{id: id, sp: sp}
	if sp.txn {
		c.plans = buildTxnPlans(seed, id)
		c.ring = make([]txnSent, txnRing)
	} else {
		c.pool = buildPool(sp, seed, id, conns)
	}
	c.reset()
	return c
}

// reset rewinds the client to the state right after preload, so that
// every set-up of a run does identical work.
func (c *client) reset() {
	c.sendNext, c.recvNext, c.planNext = 0, 0, 0
	c.sentN.Store(0)
	c.recvN.Store(0)
	c.sent.Store(0)
	c.t = tally{}
	c.writes, c.transfers = 0, 0
	if c.sp.txn {
		c.view = txnView{}
		for i := range c.view.bal {
			c.view.bal[i] = txnInitBalance
		}
	} else {
		c.m = newModel(c.sp)
	}
}

func (c *client) connect(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c.nc = nc
	c.lr = newLineReader(nc)
	return nil
}

func (c *client) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// bad records the first wrong reply for the report.
func (c *client) bad(counter *int64, what string, line []byte) {
	*counter++
	if c.t.firstBad == "" {
		c.t.firstBad = fmt.Sprintf("conn %d: %s: got %q", c.id, what, line)
	}
}

// sendWindow writes the client's next window with one Write.
func (c *client) sendWindow() error {
	if c.sp.txn {
		return c.sendTxn()
	}
	w := c.sendNext
	c.sendNext++
	if c.sendNext == c.pool.windows() {
		c.sendNext = 0
	}
	c.sent.Add(int64(c.sp.window))
	_, err := c.nc.Write(c.pool.bytes(w))
	return err
}

// recvWindow reads and checks the replies to the oldest unanswered
// window. An error means the connection is unusable (I/O error or
// deadline); wrong replies are tallied, not returned.
func (c *client) recvWindow() error {
	if c.sp.txn {
		return c.recvTxn()
	}
	w := c.recvNext
	c.recvNext++
	if c.recvNext == c.pool.windows() {
		c.recvNext = 0
	}
	reqs := c.pool.window(w)
	for i := range reqs {
		line, err := c.lr.line()
		if err != nil {
			return err
		}
		c.t.attempted++
		c.checkReply(&reqs[i], line)
	}
	return nil
}

// checkReply checks one reply against its request and the model, and
// applies the request to the model.
func (c *client) checkReply(r *req, line []byte) {
	k, n := classify(line)
	switch k {
	case rBad:
		c.bad(&c.t.malformed, "malformed reply", line)
		return
	case rErr:
		c.bad(&c.t.errs, "ERR reply", line)
		return
	}
	m := c.m
	switch r.kind {
	case kGet:
		switch {
		case k != rValue && k != rNotFound:
			c.bad(&c.t.wrongKind, "GET answered by another kind", line)
		case r.own && (m.present[r.key] != (k == rValue) || (k == rValue && m.val[r.key] != n)):
			c.bad(&c.t.wrongValue, fmt.Sprintf("GET k%d: model says present=%v val=%d", r.key, m.present[r.key], m.val[r.key]), line)
		case !r.own && (k != rValue || n%uint64(c.sp.keys) != uint64(r.key)):
			// Another connection's key on a workload without DEL: it
			// exists, and every value ever stored in it encodes it.
			c.bad(&c.t.wrongValue, fmt.Sprintf("GET k%d: value does not belong to the key", r.key), line)
		}
	case kSet:
		switch {
		case k != rOK && k != rOKNew:
			c.bad(&c.t.wrongKind, "SET answered by another kind", line)
		case m.present[r.key] != (k == rOK):
			c.bad(&c.t.wrongValue, fmt.Sprintf("SET k%d: model says present=%v", r.key, m.present[r.key]), line)
		}
		m.present[r.key], m.val[r.key] = true, r.val
		c.writes++
	case kDel:
		switch {
		case k != rDeleted && k != rNotFound:
			c.bad(&c.t.wrongKind, "DEL answered by another kind", line)
		case m.present[r.key] != (k == rDeleted):
			c.bad(&c.t.wrongValue, fmt.Sprintf("DEL k%d: model says present=%v", r.key, m.present[r.key]), line)
		}
		if m.present[r.key] {
			c.writes++
		}
		m.present[r.key] = false
	}
}

// sendTxn renders and writes the next planned transaction. A planned
// transfer whose accounts the client knows to be stale (a transfer on
// them was ABORTED and nothing has re-read them since) is sent as the
// plan's four-account snapshot instead: that is the client's re-read.
func (c *client) sendTxn() error {
	for c.sentN.Load()-c.recvN.Load() >= txnRing {
		time.Sleep(50 * time.Microsecond)
	}
	pl := c.plans[c.planNext]
	c.planNext++
	if c.planNext == len(c.plans) {
		c.planNext = 0
	}
	s := txnSent{acct: pl.acct}
	b := append(c.scratch[:0], "MULTI\n"...)
	v := &c.view
	v.mu.Lock()
	a, z := pl.acct[0], pl.acct[1]
	amt := uint64(pl.amt)
	if pl.transfer && v.bal[a] < amt {
		a, z = z, a
	}
	if pl.transfer && !v.stale[a] && !v.stale[z] && v.bal[a] >= amt {
		s.transfer = true
		s.acct[0], s.acct[1] = a, z
		b = appendCAS(b, a, v.bal[a], v.bal[a]-amt)
		b = appendCAS(b, z, v.bal[z], v.bal[z]+amt)
		v.bal[a] -= amt
		v.bal[z] += amt
		v.pending[a]++
		v.pending[z]++
	} else {
		for _, x := range pl.acct {
			b = append(b, "GET acct"...)
			b = strconv.AppendUint(b, uint64(x), 10)
			b = append(b, '\n')
		}
	}
	v.mu.Unlock()
	b = append(b, "EXEC\n"...)
	c.scratch = b
	n := c.sentN.Load()
	c.ring[n%txnRing] = s
	c.sentN.Store(n + 1)
	c.sent.Add(1)
	_, err := c.nc.Write(b)
	return err
}

func appendCAS(b []byte, acct uint8, old, new uint64) []byte {
	b = append(b, "CAS acct"...)
	b = strconv.AppendUint(b, uint64(acct), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, old, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, new, 10)
	return append(b, '\n')
}

// recvTxn reads one MULTI..EXEC block's replies: OK, one QUEUED per op,
// then RESULTS <n> and n lines, or ABORTED cas-guard.
func (c *client) recvTxn() error {
	n := c.recvN.Load()
	for c.sentN.Load() <= n {
		// Replies cannot precede the request; this only orders the ring
		// read after the writer's store.
		time.Sleep(10 * time.Microsecond)
	}
	s := c.ring[n%txnRing]
	ops := 4
	if s.transfer {
		ops = 2
		c.transfers++
	}
	c.t.attempted++
	ok := true
	expect := func(want rk, what string) (uint64, error) {
		line, err := c.lr.line()
		if err != nil {
			return 0, err
		}
		k, v := classify(line)
		switch {
		case !ok: // one failure per request is enough
		case k == rBad:
			c.bad(&c.t.malformed, "malformed reply", line)
		case k == rErr:
			c.bad(&c.t.errs, "ERR reply", line)
		case k != want:
			c.bad(&c.t.wrongKind, what, line)
		default:
			return v, nil
		}
		ok = false
		return v, nil
	}
	if _, err := expect(rOK, "MULTI not answered OK"); err != nil {
		return err
	}
	for i := 0; i < ops; i++ {
		if _, err := expect(rQueued, "queued op not answered QUEUED"); err != nil {
			return err
		}
	}
	line, err := c.lr.line()
	if err != nil {
		return err
	}
	k, cnt := classify(line)
	c.t.execs++
	v := &c.view
	switch {
	case k == rAborted && s.transfer:
		c.t.aborted++
		v.mu.Lock()
		for _, x := range s.acct[:2] {
			v.pending[x]--
			v.stale[x] = true
		}
		v.mu.Unlock()
	case k == rResults && cnt == uint64(ops):
		var vals [4]uint64
		want, what := rValue, "snapshot GET not answered VALUE"
		if s.transfer {
			want, what = rSwapped, "committed CAS not answered SWAPPED"
		}
		for i := 0; i < ops; i++ {
			if vals[i], err = expect(want, what); err != nil {
				return err
			}
		}
		v.mu.Lock()
		for i, x := range s.acct[:ops] {
			switch {
			case s.transfer:
				v.pending[x]--
			case ok && v.pending[x] == 0:
				v.bal[x], v.stale[x] = vals[i], false
			}
		}
		v.mu.Unlock()
	case k == rBad:
		c.bad(&c.t.malformed, "malformed reply", line)
	case k == rErr:
		c.bad(&c.t.errs, "ERR reply", line)
	default:
		c.bad(&c.t.wrongKind, "EXEC answered by another kind", line)
		if k == rResults {
			// Stay in step with the stream: skip the announced lines.
			for i := uint64(0); i < cnt; i++ {
				if _, err := c.lr.line(); err != nil {
					return err
				}
			}
		}
	}
	c.recvN.Store(n + 1)
	return nil
}
