package server

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/wal"
)

// These tests drive a worker's rounds synchronously — no loop
// goroutine — so the chunk-queue bookkeeping around escalation pauses
// can be pinned deterministically. The windows involved (a pause lasts
// only until the round barrier, microseconds) are not reachable
// reliably from network-level tests.

// newTestWorker builds a single worker bound to a fresh server without
// starting its loop. The server is created on the goroutine runtime so
// no real worker loops race the test's synchronous round driving.
func newTestWorker(t *testing.T, cfg Config) (*Server, *worker) {
	t.Helper()
	cfg.Runtime = "goroutine"
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	rt := &workerRuntime{srv: s, stop: make(chan struct{}), allIdle: make(chan struct{})}
	rt.fl = newFlusherPool(s.cfg.Flushers, s.cfg.FlushTimeout)
	t.Cleanup(rt.fl.stop)
	w := rt.newWorker(0, 1)
	rt.workers = []*worker{w}
	return s, w
}

// newTestWconn returns a connection owned by w over one end of a
// net.Pipe, plus the client end. Replies travel the real async path:
// rendered into the pending buffer, drained by the test runtime's
// flusher pool.
func newTestWconn(w *worker) (*wconn, net.Conn) {
	cl, sv := net.Pipe()
	c := &wconn{
		w:   w,
		nc:  sv,
		mb:  w.dataCh,
		ack: make(chan struct{}, 2),
	}
	c.bw = bufio.NewWriterSize(pendWriter{c}, 16<<10)
	w.connsN.Add(1)
	return c, cl
}

// collect drains the client end until the server closes it and yields
// the full raw reply stream.
func collect(cl net.Conn) <-chan string {
	ch := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(cl)
		ch <- string(b)
	}()
	return ch
}

// deliver simulates the reader shipping one raw chunk.
func deliver(w *worker, c *wconn, chunk string) {
	w.handleData(wmsg{kind: wmData, c: c, buf: []byte(chunk)})
}

// TestWorkerPauseAtChunkBoundary: an escalation pause landing exactly
// on a chunk boundary must keep the chunk un-acked (empty rem
// sentinel). Acking it would free both reader buffers while the
// connection is still paused, letting two further chunks race into the
// single queue slot — the second silently overwriting the first.
func TestWorkerPauseAtChunkBoundary(t *testing.T) {
	_, w := newTestWorker(t, Config{Engine: "nztm", Shards: 4})
	c, cl := newTestWconn(w)
	out := collect(cl)

	// LEN escalates and pauses the connection, right at the chunk end.
	deliver(w, c, "SET a 1\nLEN\n")
	if len(c.ack) != 0 {
		t.Fatal("chunk acked while its pause is unresolved — both reader buffers freed behind a paused connection")
	}
	if c.rem == nil {
		t.Fatal("boundary pause left no rem sentinel")
	}
	// The reader's second buffer can still deliver one chunk; it must
	// be queued, not parsed and not dropped.
	deliver(w, c, "GET a\nQUIT\n")
	if c.next == nil {
		t.Fatal("chunk delivered behind a pause was not queued")
	}
	if got := len(c.slots); got != 2 {
		t.Fatalf("queued chunk parsed during the pause: %d slots, want 2", got)
	}

	w.finishRound()   // executes SET, runs the LEN escalation, flushes
	w.resumePending() // consumes the sentinel, then the queued chunk
	w.finishRound()

	const want = "OK NEW\nLEN 1\nVALUE 1\nBYE\n"
	if got := <-out; got != want {
		t.Fatalf("reply stream %q, want %q", got, want)
	}
}

// TestWorkerPausedBoundaryKeepsArrivalOrder: after the round barrier
// clears a boundary pause, a fresh chunk arriving before the held
// input has been re-parsed must queue behind it — parsing it first
// would execute the client's pipelined requests out of order.
func TestWorkerPausedBoundaryKeepsArrivalOrder(t *testing.T) {
	_, w := newTestWorker(t, Config{Engine: "nztm", Shards: 4})
	c, cl := newTestWconn(w)
	out := collect(cl)

	deliver(w, c, "LEN\n") // boundary pause: chunk stays un-acked
	w.finishRound()        // escalation runs, pause clears, conn re-pended
	// Simulates the drain phase receiving new input before
	// resumePending has consumed the held tail.
	deliver(w, c, "SET b 2\nGET b\nQUIT\n")
	if c.next == nil {
		t.Fatal("fresh chunk was not queued behind the held pause tail")
	}
	if len(c.slots) != 0 {
		t.Fatal("fresh chunk parsed ahead of input held from the previous round")
	}
	w.resumePending()
	w.finishRound()

	const want = "LEN 0\nOK NEW\nVALUE 2\nBYE\n"
	if got := <-out; got != want {
		t.Fatalf("reply stream %q, want %q", got, want)
	}
}

// TestWorkerMidChunkPauseOrder: held tail (rem) and queued chunk
// (next) re-parse oldest first across the barrier.
func TestWorkerMidChunkPauseOrder(t *testing.T) {
	_, w := newTestWorker(t, Config{Engine: "nztm", Shards: 4})
	c, cl := newTestWconn(w)
	out := collect(cl)

	deliver(w, c, "LEN\nSET m 3\n") // pause mid-chunk: rem = "SET m 3\n"
	deliver(w, c, "GET m\nQUIT\n")  // queued behind the pause
	w.finishRound()
	w.resumePending()
	w.finishRound()

	const want = "LEN 0\nOK NEW\nVALUE 3\nBYE\n"
	if got := <-out; got != want {
		t.Fatalf("reply stream %q, want %q", got, want)
	}
}

// TestWorkerThirdChunkPanics: the reader's two-buffer ping-pong makes
// a third outstanding chunk impossible; the worker asserts that
// instead of silently overwriting queued client input.
func TestWorkerThirdChunkPanics(t *testing.T) {
	_, w := newTestWorker(t, Config{Engine: "nztm", Shards: 4})
	c, cl := newTestWconn(w)
	defer cl.Close()

	deliver(w, c, "LEN\n")  // pause, chunk held in rem
	deliver(w, c, "PING\n") // queued in next
	defer func() {
		if recover() == nil {
			t.Fatal("third chunk behind a pause did not panic")
		}
	}()
	deliver(w, c, "PING\n")
}

// TestWorkerMergedBatchReadRetryFailStop: a merged unit mixes
// connections, but one connection's write failure (WAL fail-stop) must
// not take down another connection's folded-in reads — the fail-stop
// contract is that reads keep working, and the goroutine runtime,
// which never merges across connections, answers them successfully.
func TestWorkerMergedBatchReadRetryFailStop(t *testing.T) {
	s, w := newTestWorker(t, Config{Engine: "nztm", Shards: 4})
	if _, err := s.Store().Put(nil, "k", 7); err != nil {
		t.Fatal(err)
	}
	s.Store().SetCommitHook(func([]kv.Effect) error { return wal.ErrFailStop })

	ca, cla := newTestWconn(w)
	cb, clb := newTestWconn(w)
	outA, outB := collect(cla), collect(clb)

	// One round: A's SET and B's GETs fold into the same merged unit.
	deliver(w, ca, "SET x 1\nQUIT\n")
	deliver(w, cb, "GET k\nGET nope\nQUIT\n")
	w.finishRound()

	a := <-outA
	if !strings.HasPrefix(a, "ERR readonly") {
		t.Fatalf("failing write answered %q, want ERR readonly", a)
	}
	const wantB = "VALUE 7\nNOTFOUND\nBYE\n"
	if b := <-outB; b != wantB {
		t.Fatalf("reads merged with another connection's failing write answered %q, want %q", b, wantB)
	}
}

// TestWorkerFlushDeadline: a connection that stops reading must not
// stall its worker — the round seals its replies into the pending
// buffer and returns immediately — and once its socket accepts nothing
// for Config.FlushTimeout the flusher kills it (wmDead), while the
// round's other connections get their replies undelayed.
func TestWorkerFlushDeadline(t *testing.T) {
	_, w := newTestWorker(t, Config{
		Engine: "nztm", Shards: 4,
		FlushTimeout: 100 * time.Millisecond,
	})
	cs, cls := newTestWconn(w) // stalled: nobody drains the client end
	defer cls.Close()
	ch, clh := newTestWconn(w)
	out := collect(clh)

	deliver(w, cs, "PING\n")
	deliver(w, ch, "PING\nQUIT\n")
	start := time.Now()
	w.finishRound()
	if el := time.Since(start); el > time.Second {
		t.Fatalf("round blocked %v behind a non-reading connection", el)
	}
	// The healthy connection's stream must complete without waiting for
	// the stalled one's deadline.
	const want = "PONG\nBYE\n"
	if got := <-out; got != want {
		t.Fatalf("healthy connection answered %q, want %q", got, want)
	}
	// Drive the worker's mailbox (the loop isn't running in these
	// synchronous tests) until the flusher's kill lands.
	deadline := time.After(5 * time.Second)
	for !cs.gone {
		select {
		case m := <-w.dataCh:
			w.handleData(m)
		case <-deadline:
			t.Fatal("stalled connection not killed after the flush deadline")
		}
	}
	if got := w.flushKills.Load(); got != 1 {
		t.Fatalf("flushKills = %d, want 1", got)
	}
}

// TestWorkerBackpressurePause: a connection whose pending reply bytes
// exceed Config.MaxPendingWrite at seal is paused like an escalation —
// its queued input stays pinned un-parsed — and resumes (wmResume) when
// the flusher drains the backlog; other connections are untouched. The
// net.Pipe client end is drained only after the pause is observed, so
// the sequence is deterministic.
func TestWorkerBackpressurePause(t *testing.T) {
	_, w := newTestWorker(t, Config{
		Engine: "nztm", Shards: 4,
		MaxPendingWrite: 8, // absurdly small: one PONG round trips it
	})
	c, cl := newTestWconn(w)
	ch, clh := newTestWconn(w)
	out := collect(clh)

	deliver(w, c, "PING\nPING\nPING\n") // 15 reply bytes > 8
	deliver(w, ch, "PING\nQUIT\n")
	w.finishRound()
	if !c.bpp {
		t.Fatal("pending bytes over MaxPendingWrite did not pause the connection")
	}
	if got := w.bpPauses.Load(); got != 1 {
		t.Fatalf("bpPauses = %d, want 1", got)
	}
	// Input arriving behind the pause is pinned, not parsed.
	deliver(w, c, "GET z\nQUIT\n")
	if c.rem == nil {
		t.Fatal("chunk behind a backpressure pause was not pinned")
	}
	if len(c.slots) != 0 {
		t.Fatal("chunk parsed while backpressure-paused")
	}
	// The healthy peer is unaffected by c's stall.
	if got, want := <-out, "PONG\nBYE\n"; got != want {
		t.Fatalf("healthy connection answered %q, want %q", got, want)
	}

	// Drain c's client end: the flusher empties the backlog and sends
	// wmResume; driving the mailbox resumes parsing the pinned input.
	outC := collect(cl)
	deadline := time.After(5 * time.Second)
	for c.bpp {
		select {
		case m := <-w.dataCh:
			w.handleData(m)
		case <-deadline:
			t.Fatal("backpressure pause never resumed after the backlog drained")
		}
	}
	w.finishRound()   // wmResume touched c: this round re-pends its pinned input
	w.resumePending() // parses the pinned GET/QUIT
	w.finishRound()
	for !c.gone {
		select {
		case m := <-w.dataCh:
			w.handleData(m)
		case <-deadline:
			t.Fatal("connection never finished after resume")
		}
	}
	if got, want := <-outC, "PONG\nPONG\nPONG\nNOTFOUND\nBYE\n"; got != want {
		t.Fatalf("paused connection's stream %q, want %q", got, want)
	}
}
