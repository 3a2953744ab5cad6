package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is the oftm-server child: the program as shipped, started
// with the engine, shard count, WAL directory and fsync policy and no
// other tuning flag. -addr :0 only keeps runs from colliding on a port.
type serverProc struct {
	cmd   *exec.Cmd
	addr  string
	start time.Time
	done  chan struct{} // closed when stdout is drained (process gone)
}

func startServer(bin, walDir string) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-engine", "nztm", "-shards", "8",
		"-wal-dir", walDir, "-fsync", "interval")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, start: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrC := make(chan string, 1) // one send: the serving line
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on "); ok && !sent {
				addr, _, _ := strings.Cut(rest, " ")
				addrC <- addr
				sent = true
			}
		}
	}()
	select {
	case p.addr = <-addrC:
		return p, nil
	case <-p.done:
		cmd.Wait()
		return nil, fmt.Errorf("oftm-server exited before serving: %v", cmd.ProcessState)
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("oftm-server did not start serving within 60 s")
	}
}

// kill sends SIGKILL and waits until the process has ended.
func (p *serverProc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
	p.cmd.Wait()
}

// cpuTicks reads the child's user and system CPU time, in clock ticks
// (USER_HZ = 100 on Linux), from /proc/<pid>/stat.
func (p *serverProc) cpuTicks() (utime, stime int64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14, stime 15.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line")
	}
	utime, _ = strconv.ParseInt(f[11], 10, 64)
	stime, _ = strconv.ParseInt(f[12], 10, 64)
	return utime, stime, nil
}

const ticksPerSecond = 100

// hwmKiB reads the child's peak resident set size from /proc/<pid>/status.
func (p *serverProc) hwmKiB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
