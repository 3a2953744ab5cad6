package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/kv"
	"repro/internal/wal"
)

// This file is the byte-level request path: the default connection
// handler tokenizes requests in place over the bufio read buffer,
// case-folds verbs by table, resolves keys to pre-interned handles
// through a per-connection kv.Session, and renders replies with
// strconv.AppendUint into reused scratch — in the steady state
// (known keys, repeated batch shapes) a pipelined GET/SET request is
// served without any heap allocation. The retired string-based PR 3
// handler survives in legacy.go as the measured baseline (E10).

// verb is a protocol command identified from its token without
// allocating. vUnknown covers everything else, including the unicode
// case-folding oddities the old strings.ToUpper parser accepted (e.g.
// a LATIN SMALL LETTER LONG S folding into "SET") — verbs are ASCII by
// contract now.
type verb uint8

const (
	vUnknown verb = iota
	vGet
	vSet
	vDel
	vCas
	vLen
	vStats
	vPing
	vMulti
	vExec
	vDiscard
	vQuit
	vPromote
)

// verbName is indexed by verb; parse errors quote it.
var verbName = [...]string{"", "GET", "SET", "DEL", "CAS", "LEN", "STATS", "PING", "MULTI", "EXEC", "DISCARD", "QUIT", "PROMOTE"}

// upperASCII folds a-z to A-Z and leaves every other byte unchanged.
var upperASCII [256]byte

func init() {
	for i := range upperASCII {
		c := byte(i)
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		upperASCII[i] = c
	}
}

// foldEq reports whether tok case-folds (ASCII) to upper.
func foldEq(tok []byte, upper string) bool {
	if len(tok) != len(upper) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		if upperASCII[tok[i]] != upper[i] {
			return false
		}
	}
	return true
}

// foldUpper returns tok ASCII-uppercased as a string — error-message
// path only.
func foldUpper(tok []byte) string {
	out := make([]byte, len(tok))
	for i, c := range tok {
		out[i] = upperASCII[c]
	}
	return string(out)
}

func lookupVerb(tok []byte) verb {
	switch len(tok) {
	case 3:
		switch {
		case foldEq(tok, "GET"):
			return vGet
		case foldEq(tok, "SET"):
			return vSet
		case foldEq(tok, "DEL"):
			return vDel
		case foldEq(tok, "CAS"):
			return vCas
		case foldEq(tok, "LEN"):
			return vLen
		}
	case 4:
		switch {
		case foldEq(tok, "PING"):
			return vPing
		case foldEq(tok, "EXEC"):
			return vExec
		case foldEq(tok, "QUIT"):
			return vQuit
		}
	case 5:
		switch {
		case foldEq(tok, "STATS"):
			return vStats
		case foldEq(tok, "MULTI"):
			return vMulti
		}
	case 7:
		switch {
		case foldEq(tok, "DISCARD"):
			return vDiscard
		case foldEq(tok, "PROMOTE"):
			return vPromote
		}
	}
	return vUnknown
}

var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields tokenizes line with strings.Fields semantics (any run of
// unicode whitespace separates tokens) into the reusable toks slice.
// Tokens alias line — they are valid only as long as line is.
func splitFields(line []byte, toks [][]byte) [][]byte {
	toks = toks[:0]
	i, n := 0, len(line)
	for i < n {
		// Skip a run of whitespace. Bytes below RuneSelf use the ASCII
		// table; anything else decodes a rune (invalid UTF-8 decodes to
		// RuneError over one byte, which is not a space — exactly what
		// strings.Fields does).
		for i < n {
			if c := line[i]; c < utf8.RuneSelf {
				if !asciiSpace[c] {
					break
				}
				i++
				continue
			}
			r, sz := utf8.DecodeRune(line[i:])
			if !unicode.IsSpace(r) {
				break
			}
			i += sz
		}
		if i >= n {
			break
		}
		start := i
		for i < n {
			if c := line[i]; c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				i++
				continue
			}
			r, sz := utf8.DecodeRune(line[i:])
			if unicode.IsSpace(r) {
				break
			}
			i += sz
		}
		toks = append(toks, line[start:i])
	}
	return toks
}

// parseUint is strconv.ParseUint(string(b), 10, 64) without the string
// conversion: ASCII digits only, no sign, overflow-checked.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// parseOp parses a single-key request into a kv.Op carrying the key's
// pre-interned handle (Key stays empty — the allocation-free path;
// handles come from the per-connection session cache). Building an
// error allocates, but only for malformed requests. Accepts and
// rejects the same request language as the retired string parser
// (parseOpLegacy), which the equivalence test and FuzzParseOp enforce.
func parseOp(se *kv.Session, v verb, raw []byte, args [][]byte) (kv.Op, error) {
	name := verbName[v]
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s: want %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	num := func(i int) (uint64, error) {
		u, ok := parseUint(args[i])
		if !ok {
			return 0, fmt.Errorf("%s: bad number %q", name, args[i])
		}
		return u, nil
	}
	switch v {
	case vGet:
		if err := arity(1); err != nil {
			return kv.Op{}, err
		}
		return kv.Op{Kind: kv.OpGet, Handle: se.HandleBytes(args[0])}, nil
	case vSet:
		if err := arity(2); err != nil {
			return kv.Op{}, err
		}
		val, err := num(1)
		if err != nil {
			return kv.Op{}, err
		}
		return kv.Op{Kind: kv.OpPut, Handle: se.HandleBytes(args[0]), Val: val}, nil
	case vDel:
		if err := arity(1); err != nil {
			return kv.Op{}, err
		}
		return kv.Op{Kind: kv.OpDelete, Handle: se.HandleBytes(args[0])}, nil
	case vCas:
		if err := arity(3); err != nil {
			return kv.Op{}, err
		}
		old, err := num(1)
		if err != nil {
			return kv.Op{}, err
		}
		val, err := num(2)
		if err != nil {
			return kv.Op{}, err
		}
		return kv.Op{Kind: kv.OpCAS, Handle: se.HandleBytes(args[0]), Old: old, Val: val}, nil
	}
	return kv.Op{}, fmt.Errorf("unknown command %q", foldUpper(raw))
}

// conn is the per-connection scratch of the byte-level request path:
// everything the steady state needs is allocated once here and reused
// — buffered reader/writer, token and batch slices, the kv.Session
// with its handle cache and plan scratch, and the numeric render
// buffer.
type conn struct {
	srv  *Server
	r    *bufio.Reader
	w    *bufio.Writer
	sess *kv.Session

	toks  [][]byte
	batch []kv.Op
	multi []kv.Op
	long  []byte // assembly buffer for lines longer than the read buffer
	num   []byte // strconv.AppendUint scratch

	inMulti bool
	reqs    int64 // parsed requests not yet flushed to srv.requests
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:  s,
		r:    bufio.NewReaderSize(nc, 16<<10),
		w:    bufio.NewWriterSize(nc, 16<<10),
		sess: s.store.NewSession(),
	}
}

// errLineTooLong aborts a connection whose current request line exceeds
// Config.MaxLine: the reply is `ERR line too long` and the connection
// closes, because resynchronizing mid-line is not worth buffering an
// unbounded request for.
var errLineTooLong = errors.New("line too long")

// readLine returns the next newline-terminated request without copying
// when it fits the read buffer; longer lines are assembled in c.long,
// up to Config.MaxLine bytes. The returned slice is valid until the
// next readLine.
func (c *conn) readLine() ([]byte, error) {
	max := c.srv.cfg.MaxLine
	line, err := c.r.ReadSlice('\n')
	if err == nil {
		if len(line) > max {
			return nil, errLineTooLong
		}
		return line, nil
	}
	if err != bufio.ErrBufferFull {
		return nil, err // EOF mid-line drops the partial request, as before
	}
	c.long = append(c.long[:0], line...)
	for {
		if len(c.long) > max {
			return nil, errLineTooLong
		}
		line, err = c.r.ReadSlice('\n')
		c.long = append(c.long, line...)
		if err == nil {
			if len(c.long) > max {
				return nil, errLineTooLong
			}
			return c.long, nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

func (c *conn) syncRequests() {
	if c.reqs != 0 {
		c.srv.requests.Add(c.reqs)
		c.reqs = 0
	}
}

func (c *conn) run() {
	defer c.syncRequests()
	for {
		line, err := c.readLine()
		if err != nil {
			if err == errLineTooLong {
				// Tell the client why before hanging up; the batch holds
				// requests that preceded the oversized line, so answer
				// them first to keep responses in request order.
				c.flushBatch()
				c.errLine(err)
				c.syncRequests()
				c.w.Flush()
			}
			return
		}
		c.toks = splitFields(line, c.toks)
		if len(c.toks) > 0 {
			// One parsed request, whatever becomes of it. An EXEC counts
			// once — its result lines are part of one response.
			c.reqs++
			v := lookupVerb(c.toks[0])
			if c.inMulti {
				c.stepMulti(v)
			} else if !c.step(v) {
				return // QUIT
			}
		}
		// Drain the pipeline before paying a flush/syscall: keep
		// accumulating only while another *complete* request is already
		// buffered. A buffer holding just a partial line must flush too —
		// the client may be waiting for these responses before sending
		// the rest of that request.
		if !hasCompleteLine(c.r) {
			c.flushBatch()
			c.syncRequests()
			if err := c.w.Flush(); err != nil {
				return
			}
		}
	}
}

// step handles one request outside MULTI; it reports false on QUIT.
func (c *conn) step(v verb) bool {
	args := c.toks[1:]
	switch v {
	case vGet, vSet, vDel:
		if v != vGet && c.srv.isReplica() {
			c.flushBatch()
			c.errLine(errReplicaReadonly)
			return true
		}
		op, err := parseOp(c.sess, v, c.toks[0], args)
		if err != nil {
			c.flushBatch()
			c.errLine(err)
			return true
		}
		c.batch = append(c.batch, op)
		if len(c.batch) >= c.srv.cfg.Batch {
			c.flushBatch()
		}
	case vCas:
		// CAS is never folded into the implicit batch: independent
		// pipelined requests must not abort each other.
		c.flushBatch()
		if c.srv.isReplica() {
			c.errLine(errReplicaReadonly)
			return true
		}
		op, err := parseOp(c.sess, v, c.toks[0], args)
		if err != nil {
			c.errLine(err)
			return true
		}
		res, err := c.sess.Do(nil, op)
		switch {
		case err != nil:
			c.errLine(err)
		case res.Swapped:
			c.staticLine("SWAPPED")
		case res.Found:
			c.staticLine("CASFAIL")
		default:
			c.staticLine("NOTFOUND")
		}
	case vLen:
		c.flushBatch()
		n, err := c.srv.store.Len(nil)
		if err != nil {
			c.errLine(err)
		} else {
			c.w.WriteString("LEN ")
			c.writeUint(uint64(n))
			c.w.WriteByte('\n')
		}
	case vStats:
		c.flushBatch()
		if len(args) == 1 && foldEq(args[0], "WORKERS") {
			renderWorkerStats(c.w, c.srv)
			break
		}
		if len(args) == 1 && foldEq(args[0], "REPL") {
			renderReplStats(c.w, c.srv)
			break
		}
		if len(args) == 1 && foldEq(args[0], "FLUSH") {
			// This handler writes replies synchronously, so its own
			// pending-byte figure is definitionally zero.
			renderFlushStats(c.w, c.srv, 0)
			break
		}
		renderStats(c.w, c.srv.store.Stats())
	case vPing:
		c.flushBatch()
		c.staticLine("PONG")
	case vMulti:
		c.flushBatch()
		c.inMulti = true
		c.multi = c.multi[:0]
		c.staticLine("OK")
	case vPromote:
		c.flushBatch()
		seq, err := c.srv.Promote()
		if err != nil {
			c.errLine(err)
			break
		}
		c.w.WriteString("PROMOTED ")
		c.writeUint(seq)
		c.w.WriteByte('\n')
	case vQuit:
		c.flushBatch()
		c.staticLine("BYE")
		c.syncRequests()
		c.w.Flush()
		return false
	default:
		c.flushBatch()
		fmt.Fprintf(c.w, "ERR unknown command %q\n", foldUpper(c.toks[0]))
	}
	return true
}

// stepMulti handles one request inside a MULTI block.
func (c *conn) stepMulti(v verb) {
	switch v {
	case vExec:
		c.inMulti = false
		if c.srv.isReplica() && batchHasWrites(c.multi) {
			c.errLine(errReplicaReadonly)
			c.multi = c.multi[:0]
			return
		}
		res, err := c.sess.Txn(nil, c.multi)
		switch {
		case errors.Is(err, kv.ErrCASFailed):
			c.staticLine("ABORTED cas-guard")
		case err != nil:
			c.errLine(err)
		default:
			c.w.WriteString("RESULTS ")
			c.writeUint(uint64(len(res)))
			c.w.WriteByte('\n')
			for i := range res {
				c.writeResult(c.multi[i], res[i])
			}
		}
		c.multi = c.multi[:0]
	case vDiscard:
		c.inMulti = false
		c.multi = c.multi[:0]
		c.staticLine("OK")
	default:
		op, err := parseOp(c.sess, v, c.toks[0], c.toks[1:])
		switch {
		case err != nil:
			c.errLine(err)
		case len(c.multi) >= c.srv.cfg.MaxMultiOps:
			fmt.Fprintf(c.w, "ERR multi batch exceeds %d ops\n", c.srv.cfg.MaxMultiOps)
		default:
			c.multi = append(c.multi, op)
			c.staticLine("QUEUED")
		}
	}
}

// flushBatch executes the pending unconditional ops as one transaction
// and writes their responses in order.
func (c *conn) flushBatch() {
	if len(c.batch) == 0 {
		return
	}
	res, err := c.sess.Txn(nil, c.batch)
	for i := range c.batch {
		if err != nil {
			c.errLine(err)
			continue
		}
		c.writeResult(c.batch[i], res[i])
	}
	c.batch = c.batch[:0]
}

// writeResult renders one op outcome as its response line.
func (c *conn) writeResult(op kv.Op, res kv.OpResult) {
	renderResult(c.w, &c.num, op, res)
}

func (c *conn) staticLine(s string) {
	c.w.WriteString(s)
	c.w.WriteByte('\n')
}

func (c *conn) errLine(err error) { renderErr(c.w, err) }

func (c *conn) writeUint(v uint64) { renderUint(c.w, &c.num, v) }

// The render helpers below are shared by both runtimes (the goroutine
// path above and worker.go), so the two produce byte-identical replies
// by construction — the property the runtime equivalence suite pins.

// renderResult renders one op outcome as its response line, using num
// as reusable numeric scratch.
func renderResult(w *bufio.Writer, num *[]byte, op kv.Op, res kv.OpResult) {
	switch op.Kind {
	case kv.OpGet:
		if res.Found {
			w.WriteString("VALUE ")
			renderUint(w, num, res.Val)
			w.WriteByte('\n')
		} else {
			renderStatic(w, "NOTFOUND")
		}
	case kv.OpPut:
		if res.Found {
			renderStatic(w, "OK NEW")
		} else {
			renderStatic(w, "OK")
		}
	case kv.OpDelete:
		if res.Found {
			renderStatic(w, "DELETED")
		} else {
			renderStatic(w, "NOTFOUND")
		}
	case kv.OpCAS:
		switch {
		case res.Swapped:
			renderStatic(w, "SWAPPED")
		case res.Found:
			renderStatic(w, "CASFAIL")
		default:
			renderStatic(w, "NOTFOUND")
		}
	default:
		renderStatic(w, "ERR unrenderable result")
	}
}

func renderStatic(w *bufio.Writer, s string) {
	w.WriteString(s)
	w.WriteByte('\n')
}

// batchHasWrites reports whether any queued op mutates the store — the
// replica write gate for EXEC (a read-only MULTI block still runs).
func batchHasWrites(ops []kv.Op) bool {
	for i := range ops {
		if ops[i].Kind != kv.OpGet {
			return true
		}
	}
	return false
}

func renderErr(w *bufio.Writer, err error) {
	if errors.Is(err, wal.ErrFailStop) || errors.Is(err, errReplicaReadonly) {
		// The durability layer latched a failure: the server no longer
		// acknowledges writes (reads still work). The cause rides along
		// in parentheses; clients key on the "readonly" token.
		w.WriteString("ERR readonly (")
		w.WriteString(err.Error())
		w.WriteString(")\n")
		return
	}
	w.WriteString("ERR ")
	w.WriteString(err.Error())
	w.WriteByte('\n')
}

func renderUint(w *bufio.Writer, num *[]byte, v uint64) {
	*num = strconv.AppendUint((*num)[:0], v, 10)
	w.Write(*num)
}

// renderStats renders the store-counter STATS line.
func renderStats(w *bufio.Writer, st kv.Stats) {
	fmt.Fprintf(w, "STATS txns=%d cross=%d ratio=%.4f ops=%d aborts=%d shards=%d\n",
		st.Txns, st.CrossShard, st.CrossShardRatio(), st.Ops(), st.Aborts(), len(st.Shards))
}

// renderReplStats renders the STATS REPL line: a single line on both
// roles, so clients parse it with the same one-line reader as STATS.
func renderReplStats(w *bufio.Writer, s *Server) {
	st := s.ReplStats()
	fmt.Fprintf(w, "REPL role=%s peers=%d last_shipped=%d last_applied=%d lag=%d\n",
		st.Role, st.Peers, st.LastShipped, st.LastApplied, st.Lag)
}

// renderWorkerStats renders the STATS WORKERS block: a WORKERS <n>
// header and one per-worker counter line. The goroutine runtime has no
// workers and answers `WORKERS 0`.
func renderWorkerStats(w *bufio.Writer, s *Server) {
	ws := s.WorkerStats()
	fmt.Fprintf(w, "WORKERS %d\n", len(ws))
	for i, st := range ws {
		fmt.Fprintf(w, "WORKER %d conns=%d reqs=%d rounds=%d escalations=%d dispatches=%d inline=%d\n",
			i, st.Conns, st.Requests, st.FlushRounds, st.Escalations, st.Dispatches, st.InlineRounds)
	}
}

// renderFlushStats renders the STATS FLUSH block: a FLUSH header with
// the async reply path's runtime-wide totals, then one FLUSHWORKER line
// per worker. conn is the asking connection's own pending reply bytes —
// the figure a client uses to watch its own backpressure. The goroutine
// runtime writes replies synchronously on each handler, so it answers
// `FLUSH workers=0 ...` with all-zero fields and no body lines.
func renderFlushStats(w *bufio.Writer, s *Server, connPending int64) {
	fs := s.FlushStats()
	fmt.Fprintf(w, "FLUSH workers=%d conn=%d pending=%d sealed=%d queue=%d pauses=%d kills=%d\n",
		len(fs.Workers), connPending, fs.PendingBytes, fs.SealedBytes, fs.Queue, fs.Pauses, fs.Kills)
	for i, st := range fs.Workers {
		fmt.Fprintf(w, "FLUSHWORKER %d pending=%d sealed=%d pauses=%d kills=%d\n",
			i, st.PendingBytes, st.SealedBytes, st.Pauses, st.Kills)
	}
}
