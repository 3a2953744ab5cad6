package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
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
// that was acknowledged.
func TestReadonlyAfterWALFault(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Plan{
		Kind: faultfs.ErrIO, Target: faultfs.FileSync, After: 3,
	})
	s := startServer(t, Config{
		Engine: "nztm", Shards: 2,
		WALDir: dir, Fsync: "always", WALFS: inj,
	})
	inj.Arm()

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	acked := map[string]uint64{}
	sawReadonly := false
	for i := 0; i < 10; i++ {
		key, val := fmt.Sprintf("k%02d", i), uint64(i+1)
		resp, err := cl.Do(fmt.Sprintf("SET %s %d", key, val))
		if err != nil {
			t.Fatalf("SET %d: transport error %v", i, err)
		}
		switch {
		case strings.HasPrefix(resp[0], "OK"):
			if sawReadonly {
				t.Fatalf("SET %s acked after the server went readonly", key)
			}
			acked[key] = val
		case strings.HasPrefix(resp[0], "ERR readonly"):
			sawReadonly = true
		default:
			t.Fatalf("SET %s: unexpected reply %q", key, resp[0])
		}
	}
	if !sawReadonly {
		t.Fatal("injected fsync failure never surfaced as ERR readonly")
	}
	if len(acked) == 0 {
		t.Fatal("no write acked before the fault (After=3 should allow some)")
	}
	// Reads still serve.
	if resp, err := cl.Do("GET k00", "PING", "LEN"); err != nil ||
		resp[0] != "VALUE 1" || resp[1] != "PONG" {
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
	for key, val := range acked {
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
