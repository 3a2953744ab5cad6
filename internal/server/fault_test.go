package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultfs"
)

// TestMaxLineTooLong: a request line over Config.MaxLine answers `ERR
// line too long` and the server closes the connection instead of
// buffering the line without bound.
func TestMaxLineTooLong(t *testing.T) {
	s := startServer(t, Config{Engine: "nztm", Shards: 2, MaxLine: 1024})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	r := bufio.NewReader(nc)

	// A pipelined good request before the oversized one must still be
	// answered, in order, before the error.
	if _, err := nc.Write([]byte("SET pre 1\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	huge := strings.Repeat("x", 4096)
	if _, err := fmt.Fprintf(nc, "SET %s 1\n", huge); err != nil {
		t.Fatalf("write: %v", err)
	}
	line, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "OK NEW" {
		t.Fatalf("preceding request: got %q, %v", line, err)
	}
	line, err = r.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ERR line too long" {
		t.Fatalf("oversized request: got %q, %v; want ERR line too long", line, err)
	}
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection still open after oversized line")
	}
	// The server itself is fine: a fresh connection works.
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer cl.Close()
	if resp, err := cl.Do("GET pre"); err != nil || resp[0] != "VALUE 1" {
		t.Fatalf("after abuse: %v, %v", resp, err)
	}
}

// TestMaxLineLongButLegal: a line larger than the 16 KiB read buffer
// but under MaxLine goes through the assembly path and still parses.
func TestMaxLineLongButLegal(t *testing.T) {
	s := startServer(t, Config{Engine: "nztm", Shards: 2, MaxLine: 64 << 10})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	key := strings.Repeat("k", 20<<10) // > bufio buffer, < MaxLine
	resp, err := cl.Do("SET "+key+" 7", "GET "+key)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if resp[0] != "OK NEW" || resp[1] != "VALUE 7" {
		t.Fatalf("long-line session: %v", resp)
	}
}

// TestReadonlyAfterWALFault is the acceptance check for fail-stop
// durability end to end: with fsync=always and an injected fsync
// failure, no write is ever acknowledged and then lost — the failing
// write and everything after it answer `ERR readonly`, reads keep
// working, and a restart over the same directory serves every write
// that was acknowledged. It runs at one and at two request/response
// connections (one per worker): the occupancy where every round runs
// inline on a reader, and at two the WAL sees concurrent committers.
func TestReadonlyAfterWALFault(t *testing.T) {
	for _, conns := range []int{1, 2} {
		t.Run(fmt.Sprintf("c%d", conns), func(t *testing.T) { testReadonlyAfterWALFault(t, conns) })
	}
}

func testReadonlyAfterWALFault(t *testing.T, conns int) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Plan{
		Kind: faultfs.ErrIO, Target: faultfs.FileSync, After: 3,
	})
	s := startServer(t, Config{
		Engine: "nztm", Shards: 2, Runtime: "worker", Workers: 2,
		WALDir: dir, Fsync: "always", WALFS: inj,
	})
	inj.Arm()

	cls := make([]*Client, conns)
	for ci := range cls {
		cl, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer cl.Close()
		cls[ci] = cl
	}

	// Each connection writes its own keys, one request per round trip.
	acked := make([]map[string]uint64, conns)
	sawReadonly := make([]bool, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for ci, cl := range cls {
		ci, cl := ci, cl
		acked[ci] = map[string]uint64{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				key, val := fmt.Sprintf("c%dk%02d", ci, i), uint64(i+1)
				resp, err := cl.Do(fmt.Sprintf("SET %s %d", key, val))
				switch {
				case err != nil:
					errs[ci] = fmt.Errorf("SET %s: transport error %w", key, err)
					return
				case strings.HasPrefix(resp[0], "OK"):
					if sawReadonly[ci] {
						errs[ci] = fmt.Errorf("SET %s acked after the connection saw ERR readonly", key)
						return
					}
					acked[ci][key] = val
				case strings.HasPrefix(resp[0], "ERR readonly"):
					sawReadonly[ci] = true
				default:
					errs[ci] = fmt.Errorf("SET %s: unexpected reply %q", key, resp[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	all := map[string]uint64{}
	for ci := range cls {
		if errs[ci] != nil {
			t.Fatal(errs[ci])
		}
		if !sawReadonly[ci] {
			t.Fatalf("conn %d: injected fsync failure never surfaced as ERR readonly", ci)
		}
		for k, v := range acked[ci] {
			all[k] = v
		}
	}
	if len(all) == 0 {
		t.Fatal("no write acked before the fault (After=3 should allow some)")
	}
	cl := cls[0]
	// Reads still serve.
	var someKey string
	var someVal uint64
	for someKey, someVal = range all {
		break
	}
	if resp, err := cl.Do("GET "+someKey, "PING", "LEN"); err != nil ||
		resp[0] != fmt.Sprintf("VALUE %d", someVal) || resp[1] != "PONG" {
		t.Fatalf("reads after readonly: %v, %v", resp, err)
	}
	// A MULTI..EXEC with writes must also refuse.
	resp, err := cl.Do("MULTI", "SET m 1", "EXEC")
	if err != nil {
		t.Fatalf("multi: %v", err)
	}
	if !strings.HasPrefix(resp[2], "ERR readonly") {
		t.Fatalf("EXEC with writes while readonly: %q", resp[2])
	}

	// All of the above ran on request/response connections over idle
	// workers, i.e. as inline rounds: the ack boundary holds there.
	wantInline(t, s)

	// Restart over the same directory with a healthy disk: every
	// acknowledged write must be there.
	if err := s.Close(); err == nil {
		t.Fatal("Close of a failed log should surface the latched error")
	}
	s2 := startServerNoCloseCheck(t, Config{
		Engine: "nztm", Shards: 2, WALDir: dir, Fsync: "always",
	})
	cl2, err := Dial(s2.Addr().String())
	if err != nil {
		t.Fatalf("dial recovered: %v", err)
	}
	defer cl2.Close()
	for key, val := range all {
		got, found, err := cl2.Get(key)
		if err != nil || !found || got != val {
			t.Fatalf("acked write %s=%d lost: got %d found=%v err=%v", key, val, got, found, err)
		}
	}
}

// startServerNoCloseCheck is startServer without failing the test on
// Close errors — recovery tests close servers whose logs latched.
func startServerNoCloseCheck(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := s.Listen(); err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		s.Close()
		<-done
	})
	return s
}
