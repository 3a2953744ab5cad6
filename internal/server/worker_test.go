package server

import (
	"bufio"
	"fmt"
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
	s, ws := newTestWorkers(t, cfg, 1)
	return s, ws[0]
}

// newTestWorkers is newTestWorker for an n-worker runtime, still with
// no loop goroutine anywhere: a round that dispatched to a peer would
// hang, which is how the inline tests prove an inline round never does.
func newTestWorkers(t *testing.T, cfg Config, n int) (*Server, []*worker) {
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
	for i := 0; i < n; i++ {
		rt.workers = append(rt.workers, rt.newWorker(i, n))
	}
	return s, rt.workers
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

// TestGatherWindowLoneConnection: a worker with at most one connection
// takes no gather window — no other reader exists that a scheduler
// yield could let deliver, so the yield is pure added latency.
func TestGatherWindowLoneConnection(t *testing.T) {
	_, w := newTestWorker(t, Config{Engine: "nztm", Shards: 4})
	if got := w.gatherWindow(); got != 0 {
		t.Fatalf("gather window with no connection = %d yields, want 0", got)
	}
	_, cl1 := newTestWconn(w)
	defer cl1.Close()
	if got := w.gatherWindow(); got != 0 {
		t.Fatalf("gather window with a lone connection = %d yields, want 0", got)
	}
	_, cl2 := newTestWconn(w)
	defer cl2.Close()
	if got := w.gatherWindow(); got < 1 {
		t.Fatalf("gather window with two connections = %d yields, want >= 1", got)
	}
}

// readerDeliver is one turn of the reader loop (serve) without the
// socket: wait for the next buffer, then deliver the chunk.
func readerDeliver(c *wconn, chunk string) {
	c.nextBuf()
	c.deliver([]byte(chunk))
}

// TestInlineQueuedChunkKeepsOrder: a connection whose chunk k sits in
// the mailbox reads chunk k+1 while the baton is free. k+1 must queue
// behind k — run inline it would be answered first. Once both are
// consumed and acked, the connection is eligible again.
func TestInlineQueuedChunkKeepsOrder(t *testing.T) {
	_, w := newTestWorker(t, Config{Engine: "nztm", Shards: 4})
	c, cl := newTestWconn(w)
	out := collect(cl)

	w.baton.Lock() // a round is in progress: chunk k goes to the mailbox
	readerDeliver(c, "SET a 1\n")
	w.baton.Unlock()
	readerDeliver(c, "GET a\n") // baton free, but k is still outstanding
	if got := len(w.dataCh); got != 2 {
		t.Fatalf("mailbox holds %d chunks, want 2 (k+1 must queue behind k)", got)
	}
	if got := w.inlineN.Load(); got != 0 {
		t.Fatalf("chunk k+1 ran inline ahead of queued chunk k (%d inline rounds)", got)
	}
	// The loop's part, by hand.
	for len(w.dataCh) > 0 {
		w.handleData(<-w.dataCh)
	}
	w.finishRound()

	readerDeliver(c, "GET a\nQUIT\n") // both acked, worker idle: inline
	if got := w.inlineN.Load(); got != 1 {
		t.Fatalf("idle worker, nothing outstanding: %d inline rounds, want 1", got)
	}
	const want = "OK NEW\nVALUE 1\nVALUE 1\nBYE\n"
	if got := <-out; got != want {
		t.Fatalf("reply stream %q, want %q", got, want)
	}
}

// TestInlineCrowdedOrBusyFallsBack: the other two observed conditions.
// A crowded last loop round or a non-empty mailbox sends the chunk
// through the mailbox even though the baton is free.
func TestInlineCrowdedOrBusyFallsBack(t *testing.T) {
	_, w := newTestWorker(t, Config{Engine: "nztm", Shards: 4})
	a, cla := newTestWconn(w)
	b, clb := newTestWconn(w)
	outA, outB := collect(cla), collect(clb)

	// A loop round serving two connections marks the worker crowded.
	deliver(w, a, "PING\n")
	deliver(w, b, "PING\n")
	w.finishRound()
	if !w.crowded.Load() {
		t.Fatal("a loop round with two active connections did not mark the worker crowded")
	}
	readerDeliver(a, "PING\n")
	if len(w.dataCh) != 1 || w.inlineN.Load() != 0 {
		t.Fatalf("crowded worker: mailbox %d, inline %d; want the chunk queued", len(w.dataCh), w.inlineN.Load())
	}
	// A loop round serving one connection clears it.
	w.handleData(<-w.dataCh)
	w.finishRound()
	if w.crowded.Load() {
		t.Fatal("a loop round with one active connection left the worker crowded")
	}
	// A round that served nobody (a peer's units, a flusher notice)
	// leaves the verdict alone.
	w.crowded.Store(true)
	w.finishRound()
	if !w.crowded.Load() {
		t.Fatal("an empty loop round cleared crowded")
	}
	w.crowded.Store(false)

	// Mailbox not empty: another connection is waiting for the loop.
	w.baton.Lock()
	readerDeliver(b, "PING\nQUIT\n")
	w.baton.Unlock()
	readerDeliver(a, "PING\nQUIT\n")
	if len(w.dataCh) != 2 || w.inlineN.Load() != 0 {
		t.Fatalf("busy mailbox: mailbox %d, inline %d; want both chunks queued", len(w.dataCh), w.inlineN.Load())
	}
	for len(w.dataCh) > 0 {
		w.handleData(<-w.dataCh)
	}
	w.finishRound()
	if got, want := <-outA, "PONG\nPONG\nPONG\nBYE\n"; got != want {
		t.Fatalf("connection a answered %q, want %q", got, want)
	}
	if got, want := <-outB, "PONG\nPONG\nBYE\n"; got != want {
		t.Fatalf("connection b answered %q, want %q", got, want)
	}
}

// keysByOwner returns per keys owned by each worker of w's runtime.
func keysByOwner(t *testing.T, w *worker, per int) [][]string {
	t.Helper()
	keys := make([][]string, len(w.rt.workers))
	for i, missing := 0, per*len(keys); missing > 0; i++ {
		if i > 1000 {
			t.Fatal("not enough keys found for every owner")
		}
		k := fmt.Sprintf("k%d", i)
		if o := w.rt.ownerOf(w.sess.Handle(k)); len(keys[o]) < per {
			keys[o] = append(keys[o], k)
			missing--
		}
	}
	return keys
}

// TestInlineEscalationReparse: escalations inside an inline round (LEN,
// a cross-owner EXEC, PROMOTE) pin the rest of the chunk in rem, clear
// at the round's end, and the tail is re-parsed by the same reader —
// no loop goroutine exists here, and the other owner's units run on
// this worker's session, so a dispatch or a barrier would hang.
func TestInlineEscalationReparse(t *testing.T) {
	_, ws := newTestWorkers(t, Config{Engine: "nztm", Shards: 4}, 2)
	w := ws[0]
	k := keysByOwner(t, w, 1)
	c, cl := newTestWconn(w)
	out := collect(cl)

	readerDeliver(c, fmt.Sprintf(
		"SET %[1]s 1\nSET %[2]s 2\nLEN\n"+
			"MULTI\nSET %[1]s 3\nSET %[2]s 4\nEXEC\n"+
			"PROMOTE\nGET %[1]s\nGET %[2]s\nQUIT\n", k[0][0], k[1][0]))

	if c.rem != nil || c.next != nil || len(w.pending) != 0 {
		t.Fatalf("inline rounds left input held: rem=%q next=%q pending=%d", c.rem, c.next, len(w.pending))
	}
	if len(c.ack) != 1 {
		t.Fatalf("chunk acked %d times, want once after its last tail was parsed", len(c.ack))
	}
	if got := w.escals.Load(); got != 3 {
		t.Fatalf("%d escalations, want 3 (LEN, cross-owner EXEC, PROMOTE)", got)
	}
	// One round per escalation pause plus the tail.
	if got := w.inlineN.Load(); got != 4 {
		t.Fatalf("%d inline rounds, want 4", got)
	}
	if got := w.dispatchN.Load(); got != 0 {
		t.Fatalf("inline rounds dispatched %d unit lists, want 0", got)
	}
	const want = "OK NEW\nOK NEW\nLEN 2\n" +
		"OK\nQUEUED\nQUEUED\nRESULTS 2\nOK\nOK\n" +
		"ERR server: not a replica\nVALUE 3\nVALUE 4\nBYE\n"
	if got := <-out; got != want {
		t.Fatalf("reply stream %q, want %q", got, want)
	}
}

// TestInlineBackpressureResumeThroughLoop: a backpressure pause raised
// by an inline round's seal keeps the connection off the inline path —
// its next chunk is pinned, not parsed — and is resumed by the
// flusher's wmResume, which only the loop goroutine handles.
func TestInlineBackpressureResumeThroughLoop(t *testing.T) {
	s := startServer(t, Config{
		Engine: "nztm", Shards: 4, Runtime: "worker", Workers: 1,
		MaxPendingWrite: 8, // 15 reply bytes trip it
	})
	w := s.rt.workers[0]
	// A net.Pipe end has no descriptor, so seal always hands off to the
	// flusher and the pending count at seal time is deterministic.
	cl, sv := net.Pipe()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		s.rt.serve(sv)
	}()

	// Each Write returns once the reader has taken the chunk, i.e. after
	// the previous chunk's inline round (if any) is over.
	if _, err := io.WriteString(cl, "PING\nPING\nPING\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(cl, "GET z\nQUIT\n"); err != nil {
		t.Fatal(err)
	}
	// Nothing has been read from cl yet, so the flusher cannot have
	// drained: the pause is still in force and chunk 2 is pinned.
	if got := w.bpPauses.Load(); got != 1 {
		t.Fatalf("bpPauses = %d after the inline seal, want 1", got)
	}
	if got := w.inlineN.Load(); got != 1 {
		t.Fatalf("%d inline rounds, want 1 (the pinned chunk seals nothing)", got)
	}
	got, err := io.ReadAll(cl) // drains the backlog: wmResume, then the tail
	if err != nil {
		t.Fatal(err)
	}
	if want := "PONG\nPONG\nPONG\nNOTFOUND\nBYE\n"; string(got) != want {
		t.Fatalf("reply stream %q, want %q", got, want)
	}
	if got := w.inlineN.Load(); got != 1 {
		t.Fatalf("%d inline rounds, want 1: the resumed tail belongs to the loop", got)
	}
	<-readerDone
}

// TestInlineFailStop: WAL fail-stop semantics hold on an inline round —
// replies stay in request order, the failing write and its folded
// followers answer ERR readonly, and the batch's reads are retried and
// answered from the store (retryReads), on the other owner's shard too.
func TestInlineFailStop(t *testing.T) {
	s, ws := newTestWorkers(t, Config{Engine: "nztm", Shards: 4}, 2)
	w := ws[0]
	k := keysByOwner(t, w, 2)
	for o := range k {
		if _, err := s.Store().Put(nil, k[o][0], uint64(7+o)); err != nil {
			t.Fatal(err)
		}
	}
	s.Store().SetCommitHook(func([]kv.Effect) error { return wal.ErrFailStop })
	c, cl := newTestWconn(w)
	out := collect(cl)

	// Per owner: a read of a stored key, a failing write of another key,
	// and (owner 0) a read folded onto that write.
	readerDeliver(c, fmt.Sprintf(
		"GET %s\nSET %s 1\nGET %[2]s\nGET %s\nSET %s 9\nGET nope\nQUIT\n",
		k[0][0], k[0][1], k[1][0], k[1][1]))
	if got := w.inlineN.Load(); got != 1 {
		t.Fatalf("%d inline rounds, want 1", got)
	}
	lines := strings.Split(<-out, "\n")
	want := []string{"VALUE 7", "ERR readonly", "ERR readonly", "VALUE 8", "ERR readonly", "NOTFOUND", "BYE", ""}
	if len(lines) != len(want) {
		t.Fatalf("reply stream %q, want %d lines", lines, len(want))
	}
	for i := range want {
		if !strings.HasPrefix(lines[i], want[i]) {
			t.Fatalf("reply %d = %q, want prefix %q (stream %q)", i, lines[i], want[i], lines)
		}
	}
}
