package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/kv"
)

// This file is the shard-affine worker runtime (Config.Runtime
// "worker"): instead of one goroutine per connection, N run-to-
// completion worker loops serve every connection. A connection is
// assigned to a worker at accept time (round-robin, static — ownership
// never rebalances); its dedicated reader goroutine ships raw chunks
// to that worker over a channel. Each worker parses its connections'
// requests with the PR 4 byte parser and routes every operation to the
// worker owning the key's shard (shard s belongs to worker s mod W):
//
//   - Unconditional single-key requests (GET/SET/DEL) fold into merged
//     units of up to Config.Batch ops per owner — across connections,
//     not just within one, which is what amortizes engine begin/commit
//     far beyond what per-connection batching can.
//   - CAS and single-owner MULTI..EXEC become their own ordered units
//     (same wire semantics as the goroutine path: CAS never rides in a
//     batch, EXEC is all-or-nothing).
//   - Cross-owner MULTI..EXEC, LEN and STATS escalate to a slow path
//     that runs after the round barrier on the parsing worker's own
//     session — kv's ascending-order commit-lock discipline keeps that
//     correct; the connection pauses so its later requests cannot
//     overtake the escalated one.
//
// Each round the worker dispatches the unit lists to their owners,
// executes its own inline, and waits for the peers — servicing their
// unit lists while it waits, so crossing dispatches cannot deadlock.
//
// Every round runs under the worker's baton (a mutex), and the loop
// goroutine is not the only one that may hold it. A connection's
// reader, straight after nc.Read, tries the baton and — when the worker
// is idle — runs its chunk as a complete round on its own goroutine:
// parse, execute every unit on this worker's session (other owners'
// too: no dispatch, no barrier, so an inline round waits on nobody),
// escalations, render, seal. That takes the reader → mailbox → worker →
// peer → worker hand-offs out of a lone request's path; see tryInline
// for the eligibility rule and why per-connection order survives it.
// So a shard's units run on its owner's loop or on a baton-holding
// reader of any worker. Nothing relies on ownership for safety: the
// engine makes concurrent access to a t-variable safe (that is the
// paper's point — any process running without step contention commits),
// kv's per-shard commit-order locks keep WAL append order equal to
// commit order when two sessions do meet on a shard, and routing by
// owner is purely what makes those locks and the engine's conflict
// paths rarely contended when many connections are busy.
//
// Replies render from per-connection slot queues in request order and
// every touched connection is sealed exactly once per round — all of
// its replies enter the pending-write buffer in one flush. The steady
// state allocates nothing: units, slots, buffers and sessions are all
// reused.
//
// Liveness: workers never write to sockets. A round's replies are
// sealed into the connection's pending buffer at its end and a small
// pool of flusher goroutines moves the bytes to the wire (flusher.go),
// so a client that stops reading stalls nobody but itself: its pending
// bytes grow until Config.MaxPendingWrite, at which point the
// connection is paused exactly like an escalation (its reader stops
// feeding, chunks stay pinned) until the flusher drains the backlog —
// or, if the socket accepts nothing for Config.FlushTimeout, the
// connection is killed.
//
// Round formation is adaptive: the blocking receive wakes the worker
// after a single reader's send, and a short gather window of scheduler
// yields (sized by recent fill) lets the other runnable readers deliver
// before the round closes, so merged units see a whole round's worth of
// connections. The chunk budget and the mailbox capacity both follow
// the live connection count instead of fixed constants.

// wmsgKind discriminates worker mailbox messages.
type wmsgKind uint8

const (
	// wmData: a reader delivered a raw chunk (buf aliases the reader's
	// buffer; the worker must ack once the chunk is consumed).
	wmData wmsgKind = iota
	// wmEOF: the connection's reader saw an error or EOF and exited.
	wmEOF
	// wmUnits: a peer dispatched a unit list for this worker to execute.
	wmUnits
	// wmDone: a peer finished executing the unit list we sent it.
	wmDone
	// wmResume: the flusher drained a backpressure-paused connection's
	// pending bytes; the worker may resume parsing its input.
	wmResume
	// wmDead: the flusher closed the connection (flush-deadline kill,
	// write error, or a deferred close after draining); the worker
	// releases its state.
	wmDead
	// wmNone: no message (drainAndExit's polling sentinel).
	wmNone
)

type wmsg struct {
	kind  wmsgKind
	c     *wconn
	buf   []byte
	from  *worker
	units []*unit
}

// unitKind discriminates execution units.
type unitKind uint8

const (
	// unitBatch is a merged unconditional batch (GET/SET/DEL), executed
	// as one transaction; ops may come from different connections.
	unitBatch unitKind = iota
	// unitCAS is a lone CAS with single-op semantics (a mismatch
	// reports CASFAIL, it never aborts anything else).
	unitCAS
	// unitMulti is a single-owner MULTI..EXEC batch (all-or-nothing;
	// a failed CAS guard answers ABORTED cas-guard).
	unitMulti
)

// unit is one ordered piece of a round's work for one owner. It is
// allocated from the parsing worker's pool and reused every round; the
// owner fills res/err, the parsing worker renders from them after the
// barrier.
type unit struct {
	kind unitKind
	ops  []kv.Op
	res  []kv.OpResult
	err  error
	// readsOK: the unit failed (err != nil) but its OpGet ops were
	// re-run read-only and res holds their results (see retryReads) —
	// reads keep their availability when another connection's write
	// poisons a merged batch (WAL fail-stop).
	readsOK bool
}

// slotKind discriminates reply slots.
type slotKind uint8

const (
	slotStatic      slotKind = iota // fixed text line
	slotErr                         // error via the shared errLine rules
	slotOp                          // one op's result out of a unit
	slotExec                        // a whole unit as a RESULTS block
	slotLen                         // LEN result (filled post-barrier)
	slotStats                       // store STATS line (rendered at flush)
	slotWorkerStats                 // STATS WORKERS block (rendered at flush)
	slotReplStats                   // STATS REPL line (rendered at flush)
	slotFlushStats                  // STATS FLUSH block (rendered at flush)
	slotPromote                     // PROMOTE result (filled post-barrier)
	// slotFoldStatic and slotFoldVal are folded replies whose outcome
	// is known at parse time but contingent on the governing unit (u)
	// committing: they render text / VALUE val / NOTFOUND on success
	// and the unit's error otherwise (see worker.folds).
	slotFoldStatic
	slotFoldVal
)

// rslot is one queued reply of a connection; slots render in request
// order at the end of the round.
type rslot struct {
	kind  slotKind
	text  string
	err   error
	u     *unit
	idx   int
	val   uint64
	found bool
}

// escKind discriminates slow-path escalations.
type escKind uint8

const (
	escExec escKind = iota // cross-owner MULTI..EXEC
	escLen
	escStats
	escStatsWorkers
	escStatsRepl
	escStatsFlush
	escPromote
)

// escal is one escalated request, executed after the round barrier in
// parse order.
type escal struct {
	kind escKind
	c    *wconn
	slot int
	u    *unit
}

// wconn is one connection's state, owned by exactly one worker for the
// connection's whole life (static assignment — the churn soak pins
// this). "The worker" is whoever holds its baton: the loop goroutine or
// a reader running an inline round. Outside the baton the reader
// goroutine only touches nc, bufs, cur, sent, ack and mb; the flusher
// pool touches nc and the fmu-guarded fields.
type wconn struct {
	w  *worker
	nc net.Conn
	// bw renders replies into the pending-write buffer (its sink is
	// pendWriter, never the socket); the flusher pool moves the bytes.
	bw *bufio.Writer
	// mb is the worker mailbox this connection is bound to — fixed at
	// accept time, so one connection's messages stay FIFO even after
	// the worker grows a larger mailbox for later connections.
	mb chan wmsg

	// bufs are the reader's ping-pong chunk buffers; ack releases a
	// consumed chunk's buffer back to the reader (capacity 2 = the
	// maximum outstanding chunks, so acking never blocks the worker).
	bufs [2][]byte
	ack  chan struct{}
	// cur is the buffer the reader fills next; sent[i] records that
	// bufs[i]'s chunk was delivered and its ack not yet received.
	cur  int
	sent [2]bool

	// carry assembles a line split across chunks (always a copy, so
	// chunks can be acked while a partial line is pending). rem is the
	// unparsed tail of the current chunk after a pause — possibly
	// empty but non-nil when the pause fell on the exact chunk
	// boundary, so the chunk stays un-acked either way; next is the
	// one further chunk that may already be queued behind it. Both
	// alias reader buffers and hold their acks until consumed, which
	// is what caps the reader at one queued chunk: a pause always
	// pins rem's buffer, so of the reader's two buffers at most one
	// can be in flight (next), and a third chunk cannot exist.
	carry []byte
	rem   []byte
	next  []byte

	toks    [][]byte
	multi   []kv.Op
	slots   []rslot
	num     []byte
	reqs    int64
	inMulti bool
	// paused stops parsing until the round barrier (set by
	// escalations, cleared when the round ends).
	paused   bool
	closing  bool // QUIT / fatal protocol error: close once drained
	eof      bool // reader exited
	gone     bool // closed and unregistered
	inActive bool // already on the worker's per-round active list
	// bpp is the backpressure pause: pending reply bytes exceeded
	// Config.MaxPendingWrite at seal. Unlike paused it persists across
	// rounds — input stays pinned until the flusher's wmResume. Owned
	// by the worker; set/cleared under fmu only for bppWait symmetry.
	bpp bool

	// Flusher-shared state, guarded by fmu (see flusher.go): out is the
	// sealed reply bytes awaiting the flusher, frest a partially
	// written remainder, fback the recycled drained array, inflight the
	// byte count of an ongoing write. fsince (flusher-only, sequenced
	// through the pool queue) tracks the last write progress for the
	// FlushTimeout kill.
	fmu      sync.Mutex
	out      []byte
	frest    []byte
	fback    []byte
	inflight int
	fsince   time.Time
	fqueued  bool // sitting in the flusher queue
	fbusy    bool // a flusher goroutine currently owns this connection
	ffailed  bool // flusher killed the connection; drop future seals
	fclose   bool // close nc once the pending bytes are drained
	bppWait  bool // flusher should send wmResume when fully drained

	// raw, when non-nil, enables seal's inline fast path: one
	// non-blocking (EAGAIN-bounded) write attempt on the fd before the
	// flusher handoff. Nil for conns without a syscall descriptor
	// (net.Pipe in tests), which always take the flusher path.
	raw *rawWriter
}

func (c *wconn) ackChunk() { c.ack <- struct{}{} }

// discardInput drops any unconsumed input, releasing the acks its
// chunks still hold so the reader can never deadlock on a dead conn.
func (c *wconn) discardInput() {
	c.carry = c.carry[:0]
	if c.rem != nil {
		c.rem = nil
		c.ackChunk()
	}
	if c.next != nil {
		c.next = nil
		c.ackChunk()
	}
}

// ownerOut accumulates one owner's ordered unit list for the current
// round. open is the trailing merged batch still accepting ops.
type ownerOut struct {
	units []*unit
	open  *unit
}

// foldState is one handle's per-round folding state (see worker.folds).
// seq must match the worker's current roundSeq for the entry to be
// live. ru/ridx name the round's first still-valid GET of the handle
// (later GETs share its result); wu names the unit carrying the
// round's trailing write, after which the key's state is known to be
// (present, val) — provided that unit commits. widx is the index of a
// rewritable SET op inside wu (-1 when the trailing write is a DEL).
type foldState struct {
	seq     uint64
	ru      *unit
	ridx    int
	wu      *unit
	widx    int
	val     uint64
	present bool
}

// worker is one run-to-completion loop.
type worker struct {
	id   int
	rt   *workerRuntime
	sess *kv.Session

	// baton guards every field below that is not atomic or a channel,
	// and the worker-owned state of this worker's connections: a round
	// runs start to finish under it, on the loop goroutine or inline on
	// a reader (tryInline). pending is empty whenever it is released.
	baton sync.Mutex
	// crowded records that the loop's last round served more than one
	// connection: merged cross-connection rounds are paying off, so
	// readers keep feeding the mailbox instead of fragmenting them.
	crowded atomic.Bool

	// dataCh carries reader and flusher traffic (data/EOF/resume/dead);
	// ctrlCh carries peer dispatch traffic (units/done). They are
	// separate so the round barrier can wait on peers without consuming
	// new connection input, and ctrlCh's capacity (2W) covers the worst
	// case in flight — at most one unit list and one done per peer — so
	// control sends never block. dataCh2 is the grown second mailbox
	// generation (nil until the live connection count outgrows dataCh's
	// capacity): existing connections keep the channel they bound at
	// accept time (per-connection FIFO), new ones bind the current one
	// (mbox). A nil dataCh2 case in a select simply never fires.
	dataCh  chan wmsg
	dataCh2 chan wmsg
	mbox    atomic.Value // chan wmsg: where accept binds new connections
	ctrlCh  chan wmsg

	outs    []ownerOut
	escs    []escal
	active  []*wconn
	pending []*wconn

	unitPool []*unit
	nUnits   int
	readOps  []kv.Op // retryReads scratch (reused)

	// folds is the round's per-handle folding state, the worker
	// runtime's cross-connection amortization (goroutine-per-connection
	// has no view across connections):
	//
	//   - duplicate GETs fold onto the round's first engine read of the
	//     same handle and share its result;
	//   - a GET after a same-round write is answered from the written
	//     state without touching the engine;
	//   - SET-after-SET rewrites the pending SET op's value in place
	//     (last-writer-wins) instead of appending a second op;
	//   - DEL of a key the round already removed (or whose trailing
	//     write was a DEL) answers statically — deleting an absent key
	//     is a no-op on state.
	//
	// The table is a dense slice indexed by handle, not a map: handles
	// are assigned densely from 1 by the store's interner and never
	// reclaimed, so the slice mirrors the interner's own arena
	// discipline (it grows with the set of distinct keys ever touched
	// and costs one bounds check per op where a map costs a hash).
	//
	// Folding is sound because all of a round's units execute before
	// any reply is flushed: the folded ops serialize adjacently at the
	// governing unit's commit, which respects every connection's
	// program order — an escalated write cannot be overtaken
	// (escalations pause their connection), and a same-round op from
	// another connection is concurrent with the folded ops (none of the
	// round's replies has left the server), so placing the folded ops
	// next to their source is a valid linearization. Replies derived
	// from a write render contingent on that write's unit: if the unit
	// errors (WAL fail-stop latch), the folded reply reports the same
	// error instead of acknowledging state that never committed. CAS
	// and EXEC writes invalidate the handle's entry. Entries are
	// stamped with roundSeq so the table is never cleared on the hot
	// path; a stale entry (old stamp, possibly a recycled unit) is
	// simply ignored.
	folds    []foldState
	roundSeq uint64

	// gatherSpins is the adaptive gather window: how many scheduler
	// yields the round takes to let runnable readers deliver before it
	// closes. It grows (to maxGatherSpins) while the last yield of a
	// round still surfaced new chunks with budget to spare, and shrinks
	// back toward 1 when the first yield comes up empty.
	gatherSpins int

	// Counters (read cross-worker by STATS WORKERS / STATS FLUSH and
	// the shutdown report, hence atomic).
	connsN    atomic.Int64
	reqsN     atomic.Int64
	rounds    atomic.Int64
	escals    atomic.Int64
	dispatchN atomic.Int64 // cross-worker unit-list dispatches (≤ peers per round)
	inlineN   atomic.Int64 // rounds that ran inline on a reader (counted in rounds too)

	// Async-flush counters (see flusher.go).
	pendBytes   atomic.Int64
	sealedBytes atomic.Int64
	bpPauses    atomic.Int64
	flushKills  atomic.Int64

	// Config cached off the hot path.
	batchCap   int
	maxMulti   int
	maxLine    int
	maxPending int64
}

// workerRuntime owns the worker loops and the flusher pool of one
// server.
type workerRuntime struct {
	srv     *Server
	workers []*worker
	fl      *flusherPool
	next    atomic.Uint64

	stop    chan struct{}
	live    atomic.Int32
	allIdle chan struct{}
	wg      sync.WaitGroup
}

func newWorkerRuntime(s *Server, n int) *workerRuntime {
	if n < 1 {
		n = 1
	}
	rt := &workerRuntime{srv: s, stop: make(chan struct{}), allIdle: make(chan struct{})}
	rt.fl = newFlusherPool(s.cfg.Flushers, s.cfg.FlushTimeout)
	rt.live.Store(int32(n))
	for i := 0; i < n; i++ {
		rt.workers = append(rt.workers, rt.newWorker(i, n))
	}
	rt.wg.Add(n)
	for _, w := range rt.workers {
		go w.loop()
	}
	return rt
}

// newWorker builds one worker of an n-worker runtime (the loop is
// started by the caller; worker-internal tests drive rounds directly).
func (rt *workerRuntime) newWorker(id, n int) *worker {
	s := rt.srv
	w := &worker{
		id:          id,
		rt:          rt,
		sess:        s.store.NewSession(),
		dataCh:      make(chan wmsg, 512),
		ctrlCh:      make(chan wmsg, 2*n),
		outs:        make([]ownerOut, n),
		folds:       make([]foldState, 1024),
		gatherSpins: 1,
		batchCap:    s.cfg.Unit,
		maxMulti:    s.cfg.MaxMultiOps,
		maxLine:     s.cfg.MaxLine,
		maxPending:  s.cfg.MaxPendingWrite,
	}
	w.mbox.Store(w.dataCh)
	return w
}

// ownerOf maps a key handle to the worker owning its shard.
func (rt *workerRuntime) ownerOf(h uint64) int {
	return rt.srv.store.ShardOf(h) % len(rt.workers)
}

// stopAll is called by Server.Close after every reader goroutine has
// exited: the workers drain what remains and stop, then the flusher
// pool (whose notifies nobody would drain anymore) is released.
func (rt *workerRuntime) stopAll() {
	close(rt.stop)
	rt.wg.Wait()
	rt.fl.stop()
}

// serve is the reader loop: it runs on the accept goroutine, handing
// raw chunks to the connection's worker (deliver) and recycling its two
// buffers as the worker acks them. Assignment is round-robin and
// permanent.
func (rt *workerRuntime) serve(nc net.Conn) {
	w := rt.workers[int(rt.next.Add(1)-1)%len(rt.workers)]
	c := &wconn{
		w:   w,
		nc:  nc,
		mb:  w.mbox.Load().(chan wmsg),
		ack: make(chan struct{}, 2),
	}
	if sc, ok := nc.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			c.raw = newRawWriter(rc)
		}
	}
	c.bw = bufio.NewWriterSize(pendWriter{c}, 16<<10)
	c.bufs[0] = make([]byte, 16<<10)
	c.bufs[1] = make([]byte, 16<<10)
	w.connsN.Add(1)
	for {
		buf := c.nextBuf()
		n, err := nc.Read(buf)
		if n > 0 {
			c.deliver(buf[:n])
		}
		if err != nil {
			c.mb <- wmsg{kind: wmEOF, c: c}
			return
		}
	}
}

// nextBuf returns the reader's next chunk buffer, first waiting out the
// ack of the chunk it last carried: acks arrive in chunk order, so the
// first one frees exactly it.
func (c *wconn) nextBuf() []byte {
	if c.sent[c.cur] {
		<-c.ack
		c.sent[c.cur] = false
	}
	return c.bufs[c.cur]
}

// deliver hands the chunk just read into nextBuf's buffer to the
// worker — as an inline round on this goroutine when the worker is
// idle, through the mailbox otherwise. Either way the chunk is acked
// through c.ack once consumed. A connection with an un-acked chunk
// still outstanding never goes inline: that chunk may be sitting in the
// mailbox (or held behind a pause), and chunk k+1 must not overtake
// chunk k.
func (c *wconn) deliver(buf []byte) {
	prev := c.cur ^ 1
	if c.sent[prev] {
		select {
		case <-c.ack:
			c.sent[prev] = false
		default:
		}
	}
	if c.sent[prev] || !c.w.tryInline(c, buf) {
		c.mb <- wmsg{kind: wmData, c: c, buf: buf}
	}
	c.sent[c.cur] = true
	c.cur = prev
}

// tryInline runs c's chunk as complete rounds on the calling reader's
// goroutine and reports whether it did. Eligibility is what the worker
// observes, not configuration: the baton is free (no round in
// progress), the mailbox is empty (no other connection is waiting for
// the loop to form a round) and the loop's last round was not crowded.
// So a few request/response connections skip every goroutine hand-off,
// while many busy ones collide on the baton, fall back to the mailbox,
// and within one crowded loop round are all back on merged rounds.
//
// Per-connection FIFO: the caller has no un-acked chunk outstanding, a
// chunk is acked only under the baton by the round that parsed it, and
// that round seals its replies before releasing the baton — so every
// earlier request of c is already answered into c's pending buffer when
// the TryLock succeeds. Input this round leaves held (rem after an
// escalation pause) is re-parsed here until pending is empty; a
// backpressure pause keeps its chunk un-acked, which routes c's next
// chunk through the mailbox behind the flusher's wmResume.
func (w *worker) tryInline(c *wconn, buf []byte) bool {
	if w.crowded.Load() || !w.baton.TryLock() {
		return false
	}
	defer w.baton.Unlock()
	if len(w.dataCh)+len(w.dataCh2) > 0 {
		return false
	}
	w.handleData(wmsg{kind: wmData, c: c, buf: buf})
	w.inlineRound()
	for len(w.pending) > 0 {
		w.resumePending()
		w.inlineRound()
	}
	return true
}

// Round sizing. The chunk budget bounds how many queued messages one
// round absorbs — so a deep backlog cannot starve the seal of already-
// parsed replies — and follows the live connection count: with two
// ping-pong chunks per reader in flight, 2×live+16 admits every
// runnable reader's delivery without truncating the cross-connection
// fold, clamped to keep degenerate counts sane.
const (
	minRoundBudget = 64
	maxRoundBudget = 4096
	maxGatherSpins = 4
)

func (w *worker) roundBudget() int {
	b := 2*int(w.connsN.Load()) + 16
	if b < minRoundBudget {
		return minRoundBudget
	}
	if b > maxRoundBudget {
		return maxRoundBudget
	}
	return b
}

func (w *worker) loop() {
	defer w.rt.wg.Done()
	for {
		var m wmsg
		select {
		case m = <-w.dataCh:
		case m = <-w.dataCh2:
		case m = <-w.ctrlCh:
		case <-w.rt.stop:
			w.drainAndExit()
			return
		}
		w.baton.Lock()
		if m.kind == wmUnits || m.kind == wmDone {
			w.handleCtrl(m)
		} else {
			w.handleData(m)
		}
		w.gather()
		w.finishRound()
		// Re-parse input a round left held BEFORE absorbing new chunks: a
		// connection's held tail (rem) and queued chunk (next) are
		// strictly older than anything still in the mailbox, and parsing
		// them first is what keeps each connection's requests in arrival
		// order across a pause.
		for len(w.pending) > 0 {
			w.resumePending()
			w.gather()
			w.finishRound()
		}
		w.baton.Unlock()
	}
}

// gather forms the round: it absorbs everything already queued, then
// yields to the scheduler so the readers made runnable by their sends
// can deliver too — the blocking receive in loop wakes this worker
// after a single reader's send, while the other ready readers are
// still queued behind it on the run queue. Stepping to the back of
// that queue lets every runnable reader deliver its chunk before the
// round closes, which is what gives the merged units their cross-
// connection fold (and the read-dedup its duplicates). The number of
// yields adapts (gatherSpins): while the final yield of a round still
// surfaced new chunks with budget to spare the window grows, and when
// the first yield comes up empty it shrinks. A worker with at most one
// connection takes no window at all (gatherWindow): no other reader
// exists that a yield could let deliver, so a lone connection pays no
// added latency, while a busy worker coalesces a full round per
// scheduler pass.
func (w *worker) gather() {
	budget := w.roundBudget()
	n := w.drainQueued(budget)
	spins := w.gatherWindow()
	for s := 0; s < spins && n < budget; s++ {
		runtime.Gosched()
		m := w.drainQueued(budget - n)
		if m == 0 {
			if s == 0 && w.gatherSpins > 1 {
				w.gatherSpins--
			}
			return
		}
		n += m
		if s == spins-1 && n < budget && w.gatherSpins < maxGatherSpins {
			w.gatherSpins++
		}
	}
}

// gatherWindow is the number of scheduler yields this round's gather
// may take.
func (w *worker) gatherWindow() int {
	if w.connsN.Load() <= 1 {
		return 0
	}
	return w.gatherSpins
}

// drainQueued absorbs up to budget already-queued messages without
// blocking, from both mailbox generations and the control channel.
func (w *worker) drainQueued(budget int) int {
	n := 0
	for n < budget {
		select {
		case m := <-w.dataCh:
			w.handleData(m)
		case m := <-w.dataCh2:
			w.handleData(m)
		case m := <-w.ctrlCh:
			w.handleCtrl(m)
		default:
			return n
		}
		n++
	}
	return n
}

func (w *worker) handleData(m wmsg) {
	c := m.c
	switch m.kind {
	case wmData:
		if c.gone || c.closing {
			c.ackChunk()
			return
		}
		if c.paused || c.bpp || c.rem != nil || c.next != nil {
			// The connection holds older unparsed input, or a pause is in
			// force. An escalation pause always pins its chunk un-acked
			// in rem (even a pause on the exact chunk boundary keeps an
			// empty tail there — see parseLines), so the reader owns at
			// most one more buffer and exactly one chunk can ever be
			// queued in next. A backpressure pause (bpp) can begin with
			// no held input: its first arriving chunk is pinned whole in
			// rem — un-acked, so the same single-slot bound applies. A
			// third chunk would mean the ping-pong accounting broke;
			// queueing it would silently overwrite client input, so fail
			// loudly.
			if c.rem == nil && c.next == nil {
				c.rem = m.buf
				return
			}
			if c.next != nil {
				panic("server: worker received a chunk with one already queued behind a pause")
			}
			c.next = m.buf
			return
		}
		if rest := w.parseLines(c, m.buf); rest != nil {
			c.rem = rest
		} else {
			c.ackChunk()
		}
	case wmEOF:
		c.eof = true
		w.touch(c) // make the round visit it for close
	case wmResume:
		// The flusher drained a backpressure-paused connection; resume
		// parsing its pinned input at the next round.
		if c.gone || !c.bpp {
			return
		}
		c.bpp = false
		if c.rem != nil || c.next != nil || c.eof || c.closing {
			// Touching is enough: finishRound re-pends held input (rem/
			// next) and handles a deferred close uniformly for every
			// active connection.
			w.touch(c)
		}
	case wmDead:
		// The flusher closed the socket (deadline kill, write error, or
		// a deferred close after draining); release the worker state.
		if c.reqs != 0 {
			w.rt.srv.requests.Add(c.reqs)
			w.reqsN.Add(c.reqs)
			c.reqs = 0
		}
		w.closeConn(c)
	}
}

// handleCtrl services one peer message; it reports whether it was a
// completion (the barrier counts those).
func (w *worker) handleCtrl(m wmsg) bool {
	switch m.kind {
	case wmUnits:
		w.runUnits(m.units)
		m.from.ctrlCh <- wmsg{kind: wmDone}
		return false
	case wmDone:
		return true
	}
	return false
}

// resumePending re-parses connections paused mid-chunk by the previous
// round, oldest input first (rem, then the queued next chunk).
func (w *worker) resumePending() {
	pend := w.pending
	w.pending = w.pending[:0]
	for _, c := range pend {
		if c.gone || c.closing {
			c.discardInput()
			w.touch(c)
			continue
		}
		if c.rem != nil {
			data := c.rem
			c.rem = nil
			if rest := w.parseLines(c, data); rest != nil {
				c.rem = rest
				continue
			}
			c.ackChunk()
		}
		if c.paused {
			continue // re-pended by finishRound if input remains
		}
		if c.next != nil {
			data := c.next
			c.next = nil
			if rest := w.parseLines(c, data); rest != nil {
				c.rem = rest
				continue
			}
			c.ackChunk()
		}
	}
}

// parseLines consumes newline-terminated requests from data. It
// returns the unconsumed tail when the connection paused — a zero-
// length but non-nil tail when the pause fell on the exact chunk
// boundary — and nil when the chunk is fully consumed (or discarded).
// The caller acks exactly the nil case: a paused connection must keep
// its chunk un-acked even when nothing is left to parse, so the
// reader stays blocked and can queue at most one further chunk
// (c.next) before the pause resolves.
func (w *worker) parseLines(c *wconn, data []byte) []byte {
	for len(data) > 0 {
		if c.closing || c.gone {
			return nil
		}
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			if len(c.carry)+len(data) > w.maxLine {
				w.lineTooLong(c)
				return nil
			}
			c.carry = append(c.carry, data...)
			return nil
		}
		var line []byte
		if len(c.carry) > 0 {
			if len(c.carry)+i+1 > w.maxLine {
				w.lineTooLong(c)
				return nil
			}
			c.carry = append(c.carry, data[:i+1]...)
			line = c.carry
		} else {
			line = data[:i+1]
			if len(line) > w.maxLine {
				w.lineTooLong(c)
				return nil
			}
		}
		data = data[i+1:]
		w.handleLine(c, line)
		c.carry = c.carry[:0]
		if c.paused {
			return data // non-nil even when empty: the chunk stays un-acked
		}
	}
	return nil
}

// lineTooLong mirrors the goroutine path's oversized-line handling:
// answer `ERR line too long` (after the replies queued before it, in
// order) and close the connection.
func (w *worker) lineTooLong(c *wconn) {
	s := w.slot(c)
	s.kind = slotStatic
	s.text = "ERR line too long"
	c.closing = true
	c.discardInput()
}

// handleLine parses and routes one request line.
func (w *worker) handleLine(c *wconn, line []byte) {
	c.toks = splitFields(line, c.toks)
	if len(c.toks) == 0 {
		return
	}
	c.reqs++
	w.touch(c)
	v := lookupVerb(c.toks[0])
	if c.inMulti {
		w.stepMulti(c, v)
		return
	}
	args := c.toks[1:]
	switch v {
	case vGet, vSet, vDel:
		if v != vGet && w.rt.srv.isReplica() {
			w.errSlot(c, errReplicaReadonly)
			return
		}
		op, err := parseOp(w.sess, v, c.toks[0], args)
		if err != nil {
			w.errSlot(c, err)
			return
		}
		w.pushOp(c, op)
	case vCas:
		if w.rt.srv.isReplica() {
			w.errSlot(c, errReplicaReadonly)
			return
		}
		op, err := parseOp(w.sess, v, c.toks[0], args)
		if err != nil {
			w.errSlot(c, err)
			return
		}
		w.pushCAS(c, op)
	case vLen:
		s := w.slot(c)
		s.kind = slotLen
		w.escalate(c, escLen, nil, len(c.slots)-1)
	case vStats:
		s := w.slot(c)
		switch {
		case len(args) == 1 && foldEq(args[0], "WORKERS"):
			s.kind = slotWorkerStats
			w.escalate(c, escStatsWorkers, nil, len(c.slots)-1)
		case len(args) == 1 && foldEq(args[0], "REPL"):
			s.kind = slotReplStats
			w.escalate(c, escStatsRepl, nil, len(c.slots)-1)
		case len(args) == 1 && foldEq(args[0], "FLUSH"):
			s.kind = slotFlushStats
			w.escalate(c, escStatsFlush, nil, len(c.slots)-1)
		default:
			s.kind = slotStats
			w.escalate(c, escStats, nil, len(c.slots)-1)
		}
	case vPing:
		w.staticSlot(c, "PONG")
	case vMulti:
		c.inMulti = true
		c.multi = c.multi[:0]
		w.staticSlot(c, "OK")
	case vQuit:
		w.staticSlot(c, "BYE")
		c.closing = true
		c.discardInput()
	case vPromote:
		// Role changes happen post-barrier so no in-flight unit of the
		// round straddles the flip; the connection pauses like any other
		// escalation, so its later requests observe the new role.
		s := w.slot(c)
		s.kind = slotPromote
		w.escalate(c, escPromote, nil, len(c.slots)-1)
	default:
		s := w.slot(c)
		s.kind = slotStatic
		s.text = fmt.Sprintf("ERR unknown command %q", foldUpper(c.toks[0]))
	}
}

// stepMulti handles one request inside a MULTI block.
func (w *worker) stepMulti(c *wconn, v verb) {
	switch v {
	case vExec:
		c.inMulti = false
		w.pushExec(c)
		c.multi = c.multi[:0]
	case vDiscard:
		c.inMulti = false
		c.multi = c.multi[:0]
		w.staticSlot(c, "OK")
	default:
		op, err := parseOp(w.sess, v, c.toks[0], c.toks[1:])
		switch {
		case err != nil:
			w.errSlot(c, err)
		case len(c.multi) >= w.maxMulti:
			s := w.slot(c)
			s.kind = slotStatic
			s.text = fmt.Sprintf("ERR multi batch exceeds %d ops", w.maxMulti)
		default:
			c.multi = append(c.multi, op)
			w.staticSlot(c, "QUEUED")
		}
	}
}

// appendOp appends an unconditional op to its owner's trailing merged
// batch, opening a new one at the Config.Unit boundary.
func (w *worker) appendOp(op kv.Op) (*unit, int) {
	o := &w.outs[w.rt.ownerOf(op.Handle)]
	u := o.open
	if u == nil || len(u.ops) >= w.batchCap {
		u = w.newUnit(unitBatch)
		o.units = append(o.units, u)
		o.open = u
	}
	u.ops = append(u.ops, op)
	return u, len(u.ops) - 1
}

// fold returns the handle's folding entry, growing the dense table to
// admit it. A zero entry (nil ru/wu) reads as absent in every branch of
// pushOp, so growth needs no initialization and invalidation is a
// zeroing store.
func (w *worker) fold(h uint64) *foldState {
	if h >= uint64(len(w.folds)) {
		grown := make([]foldState, 2*h)
		copy(grown, w.folds)
		w.folds = grown
	}
	return &w.folds[h]
}

// pushOp routes an unconditional op through the round's per-handle
// folding state (see worker.folds), appending to a merged unit only
// when the op genuinely needs the engine.
func (w *worker) pushOp(c *wconn, op kv.Op) {
	s := w.slot(c)
	f := w.fold(op.Handle)
	live := f.seq == w.roundSeq
	switch op.Kind {
	case kv.OpGet:
		if live && f.wu != nil {
			// The round already wrote this key: answer from the written
			// state, contingent on that write's unit committing.
			s.kind = slotFoldVal
			s.u = f.wu
			s.val = f.val
			s.found = f.present
			return
		}
		if live && f.ru != nil {
			// Duplicate read: share the round's first read of the key.
			s.kind = slotOp
			s.u = f.ru
			s.idx = f.ridx
			return
		}
		s.kind = slotOp
		s.u, s.idx = w.appendOp(op)
		*f = foldState{seq: w.roundSeq, ru: s.u, ridx: s.idx}
	case kv.OpPut:
		if live && f.wu != nil && f.widx >= 0 {
			// SET after SET: last-writer-wins — rewrite the pending op's
			// value in place (units dispatch only at the round barrier,
			// so the op is still the parsing worker's to mutate). The
			// reply is OK, not OK NEW: the folded-into SET created the
			// key, so this one observes it present.
			f.wu.ops[f.widx].Val = op.Val
			f.val = op.Val
			s.kind = slotFoldStatic
			s.u = f.wu
			s.text = "OK"
			return
		}
		s.kind = slotOp
		s.u, s.idx = w.appendOp(op)
		*f = foldState{
			seq: w.roundSeq, wu: s.u, widx: s.idx, val: op.Val, present: true,
		}
	case kv.OpDelete:
		if live && f.wu != nil && !f.present {
			// The round's trailing write already removed the key (or a
			// prior DEL established absence): deleting an absent key is
			// a no-op on state, so no engine op is needed.
			s.kind = slotFoldStatic
			s.u = f.wu
			s.text = "NOTFOUND"
			return
		}
		s.kind = slotOp
		s.u, s.idx = w.appendOp(op)
		*f = foldState{seq: w.roundSeq, wu: s.u, widx: -1}
	default:
		s.kind = slotOp
		s.u, s.idx = w.appendOp(op)
		*f = foldState{}
	}
}

// pushCAS seals the owner's merged batch (CAS never rides in one, so
// independent pipelined requests cannot abort each other) and appends
// the CAS as its own ordered unit.
func (w *worker) pushCAS(c *wconn, op kv.Op) {
	*w.fold(op.Handle) = foldState{}
	o := &w.outs[w.rt.ownerOf(op.Handle)]
	u := w.newUnit(unitCAS)
	u.ops = append(u.ops, op)
	o.units = append(o.units, u)
	o.open = nil
	s := w.slot(c)
	s.kind = slotOp
	s.u = u
	s.idx = 0
}

// pushExec routes a MULTI..EXEC batch: single-owner batches become an
// ordered unit on that owner; cross-owner batches escalate to the
// post-barrier slow path.
func (w *worker) pushExec(c *wconn) {
	if w.rt.srv.isReplica() && batchHasWrites(c.multi) {
		w.errSlot(c, errReplicaReadonly)
		return
	}
	if len(c.multi) == 0 {
		w.staticSlot(c, "RESULTS 0")
		return
	}
	owner := w.rt.ownerOf(c.multi[0].Handle)
	single := true
	for _, op := range c.multi[1:] {
		if w.rt.ownerOf(op.Handle) != owner {
			single = false
			break
		}
	}
	u := w.newUnit(unitMulti)
	// Copy out of c.multi: the connection may queue another MULTI in
	// the same round, and the unit must outlive the scratch.
	u.ops = append(u.ops, c.multi...)
	// A batch write invalidates the handle's folding state for the rest
	// of the round (the key's post-EXEC state is not tracked).
	for i := range u.ops {
		if u.ops[i].Kind != kv.OpGet {
			*w.fold(u.ops[i].Handle) = foldState{}
		}
	}
	s := w.slot(c)
	s.kind = slotExec
	s.u = u
	if single {
		o := &w.outs[owner]
		o.units = append(o.units, u)
		o.open = nil
		return
	}
	w.escalate(c, escExec, u, len(c.slots)-1)
}

// escalate defers a request to the post-barrier slow path and pauses
// the connection so its later requests cannot overtake this one.
func (w *worker) escalate(c *wconn, k escKind, u *unit, slot int) {
	w.escs = append(w.escs, escal{kind: k, c: c, slot: slot, u: u})
	c.paused = true
	w.escals.Add(1)
}

// runUnits executes a unit list on this worker's session — the owner
// side of a dispatch. Results are copied into each unit immediately
// (session scratch is only valid until its next operation).
func (w *worker) runUnits(units []*unit) {
	for _, u := range units {
		if u.kind == unitCAS {
			r, err := w.sess.Do(nil, u.ops[0])
			u.res = append(u.res[:0], r)
			u.err = err
			continue
		}
		res, err := w.sess.Txn(nil, u.ops)
		u.err = err
		if err == nil {
			u.res = append(u.res[:0], res...)
		} else if u.kind == unitBatch {
			w.retryReads(u)
		}
	}
}

// retryReads re-runs a failed merged batch's GETs as one read-only
// transaction. A merged batch mixes independent requests from many
// connections, so its error must not spread to ops that could not have
// caused it: under WAL fail-stop only writes fail (reads never reach
// the commit hook), and the goroutine runtime — where another
// connection's GET can never share a batch with this one's SET — would
// answer that GET from the store. Re-running the reads restores
// exactly that answer: a failed hook does not roll the engine commit
// back (see kv.CommitHook), so the state the retried reads observe is
// the same state any later read would. Write slots still render the
// unit's error.
func (w *worker) retryReads(u *unit) {
	w.readOps = w.readOps[:0]
	for i := range u.ops {
		if u.ops[i].Kind == kv.OpGet {
			w.readOps = append(w.readOps, u.ops[i])
		}
	}
	if len(w.readOps) == 0 {
		return
	}
	res, err := w.sess.Txn(nil, w.readOps)
	if err != nil {
		return // reads genuinely fail too: every slot reports u.err
	}
	if cap(u.res) < len(u.ops) {
		u.res = make([]kv.OpResult, len(u.ops))
	} else {
		u.res = u.res[:len(u.ops)]
	}
	j := 0
	for i := range u.ops {
		if u.ops[i].Kind == kv.OpGet {
			u.res[i] = res[j]
			j++
		} else {
			u.res[i] = kv.OpResult{}
		}
	}
	u.readsOK = true
}

// runEscalations executes the round's deferred slow-path requests in
// parse order, after every unit of the round has completed. LEN — the
// one escalation that costs a cross-shard read transaction — is
// snapshotted once per round and shared: a connection can carry at
// most one escalation per round (escalations pause their connection),
// so two LENs in one round are necessarily from different connections,
// i.e. concurrent requests, and serving both from one linearization
// point is as valid as serving them from two.
func (w *worker) runEscalations() {
	srv := w.rt.srv
	lenDone := false
	var lenVal uint64
	var lenErr error
	for i := range w.escs {
		e := &w.escs[i]
		switch e.kind {
		case escExec:
			res, err := w.sess.Txn(nil, e.u.ops)
			e.u.err = err
			if err == nil {
				e.u.res = append(e.u.res[:0], res...)
			}
		case escLen:
			if !lenDone {
				n, err := srv.store.Len(nil)
				lenVal, lenErr = uint64(n), err
				lenDone = true
			}
			s := &e.c.slots[e.slot]
			s.val, s.err = lenVal, lenErr
		case escPromote:
			seq, err := srv.Promote()
			s := &e.c.slots[e.slot]
			s.val, s.err = seq, err
		case escStats, escStatsWorkers, escStatsRepl, escStatsFlush:
			// Counter snapshots; rendered at flush, ordered here.
		}
	}
	w.escs = w.escs[:0]
}

// finishRound is the loop goroutine's round: dispatch and execute,
// then reply. Every peer receives at most one dispatch per round (its
// whole ordered unit list in one wmUnits), however many connections
// contributed units or escalations — the barrier cost is bounded by
// the worker count, not the connection count.
func (w *worker) finishRound() {
	w.dispatchRound()
	// A round that served no connection (a peer's units, a flusher
	// notice) says nothing about crowding.
	if n := len(w.active); n > 0 && (n > 1) != w.crowded.Load() {
		w.crowded.Store(n > 1) // readers poll it: write only on change
	}
	w.replyRound()
	// The loop selects on dataCh2 outside the baton, so only it may
	// install one.
	w.maybeGrowMailbox()
}

// inlineRound is a baton-holding reader's round: it executes every
// owner's unit list itself, on this worker's session. It sends nothing
// and waits on nobody, so it cannot take part in a dispatch cycle.
func (w *worker) inlineRound() {
	for v := range w.outs {
		w.outs[v].open = nil
		w.runUnits(w.outs[v].units)
	}
	if w.replyRound() {
		w.inlineN.Add(1)
	}
}

// replyRound runs the escalations, renders and seals every touched
// connection and resets the round state; it reports whether anything
// was sealed. All of the round's units have executed by now — on their
// owners or inline — before any reply is sealed, which is what folding
// soundness rests on.
func (w *worker) replyRound() bool {
	w.runEscalations()

	sealed := false
	for _, c := range w.active {
		c.inActive = false
		c.paused = false
		for i := range c.slots {
			w.renderSlot(c, &c.slots[i])
		}
		c.slots = c.slots[:0]
		// Publish the tally before the seal: seal may put the replies on
		// the wire, and a client that has its answer may read the counters.
		if c.reqs != 0 {
			w.rt.srv.requests.Add(c.reqs)
			w.reqsN.Add(c.reqs)
			c.reqs = 0
		}
		wantClose := c.closing || (c.eof && c.rem == nil && c.next == nil)
		pend := int64(0)
		if !c.gone {
			pend = w.seal(c, wantClose)
			sealed = true
		}
		if wantClose {
			if pend > 0 {
				// Replies are still in flight; seal marked fclose under
				// fmu, so the flusher closes the socket once they're on
				// the wire (or the deadline kills it) and reports back
				// with wmDead — closing here would drop the bytes.
				c.discardInput()
				continue
			}
			w.closeConn(c)
			continue
		}
		if !c.bpp && (c.rem != nil || c.next != nil) {
			w.pending = append(w.pending, c)
		}
	}
	w.active = w.active[:0]
	for v := range w.outs {
		w.outs[v].units = w.outs[v].units[:0]
	}
	w.nUnits = 0
	// Invalidate the round's folded reads in O(1): stale stamps are
	// ignored, so the map needs no clearing.
	w.roundSeq++
	if sealed {
		w.rounds.Add(1)
	}
	return sealed
}

// dispatchRound sends each peer its unit list, executes this worker's
// own, and waits out the barrier, servicing peers' lists meanwhile.
func (w *worker) dispatchRound() {
	outstanding := 0
	for v := range w.outs {
		o := &w.outs[v]
		o.open = nil
		if len(o.units) == 0 || v == w.id {
			continue
		}
		w.rt.workers[v].ctrlCh <- wmsg{kind: wmUnits, from: w, units: o.units}
		outstanding++
	}
	if outstanding > 0 {
		w.dispatchN.Add(int64(outstanding))
	}
	w.runUnits(w.outs[w.id].units)
	for outstanding > 0 {
		if w.handleCtrl(<-w.ctrlCh) {
			outstanding--
		}
	}
}

// seal flushes the round's rendered replies into the connection's
// pending buffer, hands the connection to the flusher pool, and applies
// backpressure: past Config.MaxPendingWrite the connection pauses like
// an escalation (input pinned, reader stalled) until the flusher's
// wmResume. wantClose marks the connection for a deferred close — set
// under the same fmu hold as the pending check, so the flusher cannot
// drain in between and miss it. Returns the pending byte count.
func (w *worker) seal(c *wconn, wantClose bool) int64 {
	c.bw.Flush() // into the pending buffer via pendWriter; cannot fail
	c.fmu.Lock()
	if c.ffailed {
		// A flusher kill raced this round's renders: the bytes can
		// never be written, so drop them here to keep the pending-byte
		// accounting exact.
		dropLocked(c)
		c.fmu.Unlock()
		return 0
	}
	// Inline fast path: when the flusher is idle for this connection
	// and no remainder is queued ahead, one non-blocking write attempt
	// moves the round's replies straight to the socket — the common
	// case for a responsive client — and skips the flusher handoff
	// (two goroutine wakeups and a deadline syscall per round). A
	// socket that would block falls through to the pool with whatever
	// is left; fmu is uncontended here since no flusher owns the conn.
	if c.raw != nil && !c.fqueued && !c.fbusy && c.frest == nil && len(c.out) > 0 {
		n, err := c.raw.tryWrite(c.out)
		if n > 0 {
			w.pendBytes.Add(-int64(n))
			if n == len(c.out) {
				c.out = c.out[:0]
			} else {
				c.out = c.out[:copy(c.out, c.out[n:])]
			}
		}
		if err != nil {
			// Hard error: the peer is gone. Mirror the flusher's
			// failure path synchronously; the reader's Read error
			// releases the worker-side state via the normal close path.
			c.ffailed = true
			dropLocked(c)
			c.fmu.Unlock()
			c.nc.Close()
			return 0
		}
	}
	pend := int64(len(c.out) + len(c.frest) + c.inflight)
	if pend == 0 {
		c.fmu.Unlock()
		return 0
	}
	if wantClose {
		c.fclose = true
	}
	enq := !c.fqueued && !c.fbusy
	if enq {
		c.fqueued = true
	}
	if w.maxPending > 0 && pend > w.maxPending && !c.bpp && !wantClose {
		c.bpp = true
		c.bppWait = true
		w.bpPauses.Add(1)
	}
	c.fmu.Unlock()
	if enq {
		w.rt.fl.push(c)
	}
	return pend
}

// maybeGrowMailbox swaps in a larger second mailbox generation when the
// live connection count outgrows the seed capacity (512): with two
// ping-pong chunks per reader, a full round's deliveries must fit or
// readers serialize on the channel. Existing connections keep their
// bound channel (per-connection FIFO is per-channel); only new accepts
// bind the grown one, and the worker drains both forever. One growth
// suffices for the supported scale, so the select stays two-armed.
func (w *worker) maybeGrowMailbox() {
	if w.dataCh2 != nil {
		return
	}
	live := int(w.connsN.Load())
	if 2*live+16 <= cap(w.dataCh) {
		return
	}
	capacity := 4 * live
	if capacity < 2048 {
		capacity = 2048
	}
	if capacity > 16384 {
		capacity = 16384
	}
	w.dataCh2 = make(chan wmsg, capacity)
	w.mbox.Store(w.dataCh2)
}

// renderSlot writes one queued reply to the connection's buffer.
func (w *worker) renderSlot(c *wconn, s *rslot) {
	bw := c.bw
	switch s.kind {
	case slotStatic:
		renderStatic(bw, s.text)
	case slotErr:
		renderErr(bw, s.err)
	case slotOp:
		switch {
		case s.u.err == nil,
			s.u.readsOK && s.u.ops[s.idx].Kind == kv.OpGet:
			renderResult(bw, &c.num, s.u.ops[s.idx], s.u.res[s.idx])
		default:
			renderErr(bw, s.u.err)
		}
	case slotExec:
		u := s.u
		switch {
		case errors.Is(u.err, kv.ErrCASFailed):
			renderStatic(bw, "ABORTED cas-guard")
		case u.err != nil:
			renderErr(bw, u.err)
		default:
			bw.WriteString("RESULTS ")
			renderUint(bw, &c.num, uint64(len(u.res)))
			bw.WriteByte('\n')
			for i := range u.res {
				renderResult(bw, &c.num, u.ops[i], u.res[i])
			}
		}
	case slotLen:
		if s.err != nil {
			renderErr(bw, s.err)
		} else {
			bw.WriteString("LEN ")
			renderUint(bw, &c.num, s.val)
			bw.WriteByte('\n')
		}
	case slotStats:
		renderStats(bw, w.rt.srv.store.Stats())
	case slotWorkerStats:
		renderWorkerStats(bw, w.rt.srv)
	case slotReplStats:
		renderReplStats(bw, w.rt.srv)
	case slotFlushStats:
		renderFlushStats(bw, w.rt.srv, c.pendingBytes())
	case slotPromote:
		if s.err != nil {
			renderErr(bw, s.err)
		} else {
			bw.WriteString("PROMOTED ")
			renderUint(bw, &c.num, s.val)
			bw.WriteByte('\n')
		}
	case slotFoldStatic:
		if s.u.err != nil {
			renderErr(bw, s.u.err)
		} else {
			renderStatic(bw, s.text)
		}
	case slotFoldVal:
		switch {
		case s.u.err != nil:
			renderErr(bw, s.u.err)
		case s.found:
			bw.WriteString("VALUE ")
			renderUint(bw, &c.num, s.val)
			bw.WriteByte('\n')
		default:
			renderStatic(bw, "NOTFOUND")
		}
	}
}

func (w *worker) closeConn(c *wconn) {
	if c.gone {
		return
	}
	c.gone = true
	c.discardInput()
	w.connsN.Add(-1)
	w.rt.srv.dropConn(c.nc)
}

// drainAndExit runs after Server.Close has closed every connection and
// waited out the readers: whatever they produced is already queued.
// Drain it (publishing the exact request tallies), then keep answering
// peers still finishing their last round until every worker is here.
func (w *worker) drainAndExit() {
	w.baton.Lock() // no reader is left to want it
	defer w.baton.Unlock()
	for {
		var m wmsg
		select {
		case m = <-w.dataCh:
		case m = <-w.dataCh2:
		default:
			m.kind = wmNone
		}
		if m.kind != wmNone {
			switch m.kind {
			case wmData:
				m.c.ackChunk()
			case wmEOF, wmDead:
				if m.c.reqs != 0 {
					w.rt.srv.requests.Add(m.c.reqs)
					w.reqsN.Add(m.c.reqs)
					m.c.reqs = 0
				}
				w.closeConn(m.c)
			case wmResume:
				// Nothing to resume into; the connection is closing anyway.
			}
			continue
		}
		{
			// No dispatch can be in flight once every worker idles here
			// (a mid-round worker has not decremented yet and its
			// barrier completes because we keep serving ctrlCh).
			if w.rt.live.Add(-1) == 0 {
				close(w.rt.allIdle)
			}
			for {
				select {
				case m := <-w.ctrlCh:
					w.handleCtrl(m)
				case <-w.rt.allIdle:
					return
				}
			}
		}
	}
}

func (w *worker) touch(c *wconn) {
	if !c.inActive {
		c.inActive = true
		w.active = append(w.active, c)
	}
}

func (w *worker) slot(c *wconn) *rslot {
	w.touch(c)
	c.slots = append(c.slots, rslot{})
	return &c.slots[len(c.slots)-1]
}

func (w *worker) staticSlot(c *wconn, text string) {
	s := w.slot(c)
	s.kind = slotStatic
	s.text = text
}

func (w *worker) errSlot(c *wconn, err error) {
	s := w.slot(c)
	s.kind = slotErr
	s.err = err
}

func (w *worker) newUnit(k unitKind) *unit {
	var u *unit
	if w.nUnits < len(w.unitPool) {
		u = w.unitPool[w.nUnits]
	} else {
		u = &unit{}
		w.unitPool = append(w.unitPool, u)
	}
	w.nUnits++
	u.kind = k
	u.ops = u.ops[:0]
	u.res = u.res[:0]
	u.err = nil
	u.readsOK = false
	return u
}

// WorkerStats is one worker loop's counter snapshot.
type WorkerStats struct {
	// Conns is the number of connections currently assigned.
	Conns int64
	// Requests counts parsed protocol requests (published at flush and
	// close, like Server.Requests).
	Requests int64
	// FlushRounds counts rounds that flushed at least one connection.
	FlushRounds int64
	// Escalations counts slow-path requests: cross-worker MULTI..EXEC,
	// LEN and STATS.
	Escalations int64
	// Dispatches counts cross-worker unit-list sends — at most one per
	// peer per round, however many connections escalated or contributed
	// units (the batched-dispatch invariant).
	Dispatches int64
	// InlineRounds counts the FlushRounds that ran on a connection's
	// reader goroutine instead of the worker loop (see tryInline).
	InlineRounds int64
}

// WorkerStats snapshots the per-worker counters — the figures behind
// `STATS WORKERS` and the shutdown report. It returns nil when the
// server runs the goroutine runtime.
func (s *Server) WorkerStats() []WorkerStats {
	if s.rt == nil {
		return nil
	}
	out := make([]WorkerStats, len(s.rt.workers))
	for i, w := range s.rt.workers {
		out[i] = WorkerStats{
			Conns:        w.connsN.Load(),
			Requests:     w.reqsN.Load(),
			FlushRounds:  w.rounds.Load(),
			Escalations:  w.escals.Load(),
			Dispatches:   w.dispatchN.Load(),
			InlineRounds: w.inlineN.Load(),
		}
	}
	return out
}
