package server

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// This file is the worker runtime's asynchronous reply path. Workers
// never write to a socket: finishRound renders a connection's replies
// through its bufio.Writer, whose sink is the connection's pending
// buffer (pendWriter), and seals the round by flushing that writer and
// enqueueing the connection on the flusher pool. A small pool of
// flusher goroutines moves the sealed bytes to the sockets in short
// write windows, requeueing a connection whose socket is not draining
// so one slow client never occupies a flusher for long — the stall is
// confined to the offending connection.
//
// Reply-ordering soundness: a round's replies are rendered only after
// every unit of the round has executed and the escalations have run
// (finishRound), so any byte that reaches the pending buffer — even a
// bufio spill mid-render — describes a completed, durably-acknowledged
// effect. Within a connection the buffer is strictly FIFO (appends and
// drains are ordered by fmu), so replies leave in request order; across
// connections no ordering was ever promised. The WAL fail-stop ack
// boundary is untouched: group commit happens in runUnits, strictly
// before any reply of the round is sealed.
//
// Backpressure: a connection whose pending bytes exceed
// Config.MaxPendingWrite at seal time is paused exactly like an
// escalation — its reader-delivered chunks stay pinned un-acked
// (wconn.bpp), so the reader stops feeding after at most two buffered
// chunks — and resumes (wmResume) when the flusher fully drains its
// backlog. Config.FlushTimeout bounds flusher progress per connection:
// a connection that accepts no bytes for that long is killed
// (nc.Close + wmDead), which frees its worker-side state through the
// normal close path.

// flushWindow is one write attempt's deadline. It is deliberately
// short: a flusher blocked on an undrained socket yields after one
// window (requeueing the connection at the tail), so with F flushers at
// most F stalled connections can delay a healthy flush, and only by one
// window.
const flushWindow = 5 * time.Millisecond

// flushers is the flusher-pool size of a worker runtime. Flushers write
// with short deadlines and requeue stalled connections, so a handful
// serve any connection count; more than one keeps healthy connections
// flowing while a stalled one waits out its write window.
const flushers = 2

// rawWriter is the reusable state behind seal's inline fast path: one
// non-blocking write attempt on the connection's descriptor, writing
// until the socket would block (EAGAIN) and never waiting for
// writability (the callback always returns true, so the runtime poller
// is not engaged). The callback is bound once per connection so a
// seal-time attempt allocates nothing.
type rawWriter struct {
	rc  syscall.RawConn
	b   []byte
	n   int
	err error
	fn  func(fd uintptr) bool
}

func newRawWriter(rc syscall.RawConn) *rawWriter {
	rw := &rawWriter{rc: rc}
	rw.fn = rw.step
	return rw
}

func (rw *rawWriter) step(fd uintptr) bool {
	for rw.n < len(rw.b) {
		m, err := syscall.Write(int(fd), rw.b[rw.n:])
		if m > 0 {
			rw.n += m
			continue
		}
		switch err {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return true // would block; leftover goes to the pool
		case nil:
			err = io.ErrShortWrite // 0-byte write with no error
		}
		rw.err = err
		return true
	}
	return true
}

// tryWrite returns the bytes written and any hard error; a would-block
// leftover is not an error — the caller hands it to the flusher pool.
func (rw *rawWriter) tryWrite(b []byte) (int, error) {
	rw.b, rw.n, rw.err = b, 0, nil
	werr := rw.rc.Write(rw.fn)
	n, err := rw.n, rw.err
	rw.b = nil
	if err == nil {
		err = werr // RawConn unusable (conn already closed)
	}
	return n, err
}

// flusherPool drains the per-connection pending-write buffers of one
// worker runtime.
type flusherPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       []*wconn
	head    int
	stopped bool

	// stopc unblocks notify sends during shutdown, after the workers
	// have exited and nobody drains their mailboxes anymore.
	stopc chan struct{}
	wg    sync.WaitGroup

	// timeout is the per-connection progress bound (Config.FlushTimeout;
	// 0 = never kill). window is one write attempt's deadline.
	timeout time.Duration
	window  time.Duration

	depth atomic.Int64 // queued connections (STATS FLUSH)
}

func newFlusherPool(timeout time.Duration) *flusherPool {
	if timeout < 0 {
		timeout = 0 // negative FlushTimeout: never kill, keep retrying
	}
	p := &flusherPool{stopc: make(chan struct{}), timeout: timeout, window: flushWindow}
	if timeout > 0 && timeout < p.window {
		p.window = timeout
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(flushers)
	for i := 0; i < flushers; i++ {
		go p.run()
	}
	return p
}

// push enqueues a connection (the caller has set c.fqueued under
// c.fmu, so a connection is queued at most once). Never blocks.
func (p *flusherPool) push(c *wconn) {
	p.mu.Lock()
	p.q = append(p.q, c)
	p.mu.Unlock()
	p.depth.Add(1)
	p.cond.Signal()
}

// next blocks for the next queued connection; nil means stop.
func (p *flusherPool) next() *wconn {
	p.mu.Lock()
	for p.head == len(p.q) && !p.stopped {
		p.cond.Wait()
	}
	if p.stopped {
		p.mu.Unlock()
		return nil
	}
	c := p.q[p.head]
	p.q[p.head] = nil
	p.head++
	if p.head == len(p.q) {
		p.q, p.head = p.q[:0], 0
	}
	p.mu.Unlock()
	p.depth.Add(-1)
	return c
}

// stop terminates the pool. Called after the workers have exited: any
// notify still blocked on a dead mailbox is released via stopc.
func (p *flusherPool) stop() {
	close(p.stopc)
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

func (p *flusherPool) run() {
	defer p.wg.Done()
	for {
		c := p.next()
		if c == nil {
			return
		}
		p.service(c)
	}
}

// notify delivers a flusher-side event to the connection's worker
// through its bound mailbox. During shutdown the mailbox may no longer
// be drained; stopc releases the send.
func (p *flusherPool) notify(c *wconn, kind wmsgKind) {
	select {
	case c.mb <- wmsg{kind: kind, c: c}:
	case <-p.stopc:
	}
}

// dropLocked discards a failed connection's pending bytes (fmu held).
func dropLocked(c *wconn) {
	dropped := int64(len(c.out) + len(c.frest))
	c.out = c.out[:0]
	c.frest = nil
	if dropped != 0 {
		c.w.pendBytes.Add(-dropped)
	}
}

// service drains one connection's pending buffer until it is empty, the
// socket stops accepting bytes (requeue), or the connection fails.
func (p *flusherPool) service(c *wconn) {
	w := c.w
	c.fmu.Lock()
	c.fqueued = false
	if c.ffailed {
		dropLocked(c)
		c.fmu.Unlock()
		return
	}
	c.fbusy = true
	for {
		buf := c.frest
		c.frest = nil
		if len(buf) == 0 {
			if len(c.out) == 0 {
				break
			}
			// Swap the sealed buffer out and hand the previously drained
			// array back for the worker's next appends (steady state: two
			// arrays per connection ping-pong between the roles).
			buf = c.out
			c.out = c.fback
			c.fback = nil
		}
		c.inflight = len(buf)
		c.fmu.Unlock()

		if c.fsince.IsZero() {
			c.fsince = time.Now()
		}
		c.nc.SetWriteDeadline(time.Now().Add(p.window))
		n, err := c.nc.Write(buf)
		if n > 0 {
			w.pendBytes.Add(-int64(n))
			c.fsince = time.Now()
		}

		c.fmu.Lock()
		c.inflight = 0
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if p.timeout > 0 && time.Since(c.fsince) >= p.timeout {
					// Flush-deadline kill: the socket accepted nothing for
					// FlushTimeout. Closing nc unblocks the reader (EOF)
					// and wmDead releases the worker-side state.
					w.flushKills.Add(1)
					c.ffailed = true
					c.frest = buf[n:] // keep the accounting exact for the drop
					dropLocked(c)
					c.fbusy = false
					c.fmu.Unlock()
					c.nc.Close()
					p.notify(c, wmDead)
					return
				}
				// No room this window: keep the remainder and requeue at
				// the tail, yielding this flusher to other connections.
				c.frest = buf[n:]
				c.fbusy = false
				c.fqueued = true
				c.fmu.Unlock()
				p.push(c)
				return
			}
			// Hard write error: the connection is dead.
			c.ffailed = true
			c.frest = buf[n:]
			dropLocked(c)
			c.fbusy = false
			c.fmu.Unlock()
			c.nc.Close()
			p.notify(c, wmDead)
			return
		}
		// buf fully written; recycle its array for the next swap.
		c.fsince = time.Time{}
		if cap(buf) > cap(c.fback) {
			c.fback = buf[:0]
		}
	}
	c.fbusy = false
	closeNow := c.fclose
	resume := c.bppWait && !closeNow
	if resume {
		c.bppWait = false
	}
	c.fmu.Unlock()
	if closeNow {
		// Deferred close (QUIT, oversized line, EOF with replies still
		// pending): every sealed byte is on the wire, close for real and
		// let the worker finish its bookkeeping.
		c.nc.Close()
		p.notify(c, wmDead)
		return
	}
	if resume {
		p.notify(c, wmResume)
	}
}

// pendWriter is the sink behind a worker connection's bufio.Writer: it
// appends rendered reply bytes to the connection's pending buffer for
// the flusher pool to drain. It never returns an error — socket
// failures surface through the flusher (wmDead), not through renders.
type pendWriter struct{ c *wconn }

func (p pendWriter) Write(b []byte) (int, error) {
	c := p.c
	c.fmu.Lock()
	c.out = append(c.out, b...)
	c.fmu.Unlock()
	c.w.pendBytes.Add(int64(len(b)))
	c.w.sealedBytes.Add(int64(len(b)))
	return len(b), nil
}

// pendingBytes reports a connection's sealed-but-unwritten reply bytes.
func (c *wconn) pendingBytes() int64 {
	c.fmu.Lock()
	n := int64(len(c.out) + len(c.frest) + c.inflight)
	c.fmu.Unlock()
	return n
}

// WorkerFlushStats is one worker's async-flush counter snapshot.
type WorkerFlushStats struct {
	// PendingBytes is the current total of sealed reply bytes not yet
	// written to this worker's sockets.
	PendingBytes int64
	// SealedBytes is the total reply bytes sealed since start.
	SealedBytes int64
	// Pauses counts backpressure pauses: a connection's pending bytes
	// exceeded Config.MaxPendingWrite at seal and its reader was paused.
	Pauses int64
	// Kills counts flush-deadline kills: connections that accepted no
	// bytes for Config.FlushTimeout and were closed.
	Kills int64
}

// FlushStats is the async reply path's counter snapshot (STATS FLUSH).
type FlushStats struct {
	// PendingBytes / SealedBytes / Pauses / Kills sum Workers.
	PendingBytes int64
	SealedBytes  int64
	Pauses       int64
	Kills        int64
	// Queue is the flusher pool's current queue depth.
	Queue int64
	// Workers holds the per-worker figures; empty on the goroutine
	// runtime (which writes replies synchronously on each handler).
	Workers []WorkerFlushStats
}

// FlushStats snapshots the async-flush counters. On the goroutine
// runtime everything is zero: that path has no flusher.
func (s *Server) FlushStats() FlushStats {
	var fs FlushStats
	if s.rt == nil {
		return fs
	}
	fs.Workers = make([]WorkerFlushStats, len(s.rt.workers))
	for i, w := range s.rt.workers {
		st := WorkerFlushStats{
			PendingBytes: w.pendBytes.Load(),
			SealedBytes:  w.sealedBytes.Load(),
			Pauses:       w.bpPauses.Load(),
			Kills:        w.flushKills.Load(),
		}
		fs.Workers[i] = st
		fs.PendingBytes += st.PendingBytes
		fs.SealedBytes += st.SealedBytes
		fs.Pauses += st.Pauses
		fs.Kills += st.Kills
	}
	fs.Queue = s.rt.fl.depth.Load()
	return fs
}
