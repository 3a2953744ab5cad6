package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// envBlock records where numbers were taken. Two results are comparable
// only if the fields that describe the machine agree (sameMachine).
type envBlock struct {
	NProc            int     `json:"nproc"`
	LoadgenProcs     int     `json:"loadgen_gomaxprocs"`
	ServerProcs      int     `json:"server_gomaxprocs"`
	CPU              string  `json:"cpu"`
	Kernel           string  `json:"kernel"`
	Go               string  `json:"go"`
	Commit           string  `json:"commit"`
	WALFS            string  `json:"wal_fs"`
	ServerBuildSecs  float64 `json:"server_build_s"`
	LoadgenConns     int     `json:"loadgen_conns"`
	ServerFlags      string  `json:"server_flags"`
	BenchmarkVersion int     `json:"benchmark_version"`
}

// benchmarkVersion changes when the benchmark itself changes what it
// measures; numbers from different versions are not comparable.
const benchmarkVersion = 1

func readEnv(walParent string, buildSecs float64, conns int) envBlock {
	e := envBlock{
		NProc:        runtime.NumCPU(),
		LoadgenProcs: conns + 1,
		// The child sets nothing: the Go runtime gives it one P per CPU.
		ServerProcs:      runtime.NumCPU(),
		CPU:              "unknown",
		Kernel:           "unknown",
		Go:               runtime.Version(),
		Commit:           "unknown",
		WALFS:            fsType(walParent),
		ServerBuildSecs:  buildSecs,
		LoadgenConns:     conns,
		ServerFlags:      "-engine nztm -shards 8 -wal-dir <dir> -fsync interval",
		BenchmarkVersion: benchmarkVersion,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// Only a repository rooted at the checkout itself counts: git must
	// not climb out of it looking for one.
	git := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{0xEF53: "ext4", 0x794c7630: "overlayfs", 0x01021994: "tmpfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs"}
	if n, ok := known[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sameMachine reports whether two results may be compared.
func (e *envBlock) sameMachine(o *envBlock) bool {
	return e.NProc == o.NProc && e.CPU == o.CPU && e.Kernel == o.Kernel && e.Go == o.Go &&
		e.WALFS == o.WALFS && e.LoadgenConns == o.LoadgenConns && e.BenchmarkVersion == o.BenchmarkVersion
}

// baseline is benchmark/baseline.json: the seed commit's medians, with
// the environment they were taken in. It is shown next to every result
// and never gates one.
type baseline struct {
	Seconds   float64                       `json:"seconds"`
	Env       *envBlock                     `json:"env"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

func loadBaseline() *baseline {
	var b baseline
	if raw, err := os.ReadFile(filepath.Join("benchmark", "baseline.json")); err == nil {
		json.Unmarshal(raw, &b) // an unreadable baseline only means no comparison column
	}
	return &b
}

func (b *baseline) value(workload, metric string) (float64, bool) {
	v, ok := b.Workloads[workload][metric]
	return v, ok
}

// warn prints the warning lines that keep results from different
// environments or run lengths from being compared silently.
func (b *baseline) warn(e *envBlock, seconds float64) {
	if b.Env != nil && !b.Env.sameMachine(e) {
		fmt.Println("# WARNING: the seed-commit column was measured in a different environment; do not compare it with this run")
	}
	if b.Env != nil && b.Seconds != seconds {
		fmt.Printf("# WARNING: the seed-commit column was measured at --seconds %g; set-up, recovery and memory depend on the run's length\n", b.Seconds)
	}
}
