package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("title", "a", "bee", "c")
	tb.Add("x", 12, 3.5)
	tb.Add("longer", "y", "z")
	out := tb.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "bee") {
		t.Fatalf("missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	if len(lines[3]) != len(lines[4]) && !strings.HasPrefix(lines[1], "a") {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestEnginesRegistry(t *testing.T) {
	es := Engines()
	if len(es) != 6 {
		t.Fatalf("want 6 engines, got %d", len(es))
	}
	names := map[string]bool{}
	for _, e := range es {
		if names[e.Name] {
			t.Fatalf("duplicate engine %s", e.Name)
		}
		names[e.Name] = true
		if e.Raw == nil || e.Sim == nil {
			t.Fatalf("engine %s missing factory", e.Name)
		}
		tm := e.Raw()
		if tm.Name() == "" {
			t.Fatalf("engine %s has empty TM name", e.Name)
		}
		if tm.ObstructionFree() != e.OF {
			t.Fatalf("engine %s OF flag mismatch", e.Name)
		}
	}
	if EngineByName("dstm").Name != "dstm" {
		t.Fatal("EngineByName lookup failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown engine must panic")
		}
	}()
	EngineByName("nope")
}

func TestRunThroughputCountsOps(t *testing.T) {
	e := EngineByName("dstm")
	r := RunThroughput(e.Raw, BankTransfer(4), 2, 50)
	if r.Ops != 100 {
		t.Fatalf("ops = %d, want 100", r.Ops)
	}
	if r.Attempts < int64(r.Ops) {
		t.Fatalf("attempts %d < ops %d", r.Attempts, r.Ops)
	}
	if r.OpsPerSec() <= 0 {
		t.Fatalf("ops/s = %f", r.OpsPerSec())
	}
}

func TestWorkloadsRunOnEveryEngine(t *testing.T) {
	for _, e := range Engines() {
		ops := 30
		if e.Name == "alg2" {
			ops = 10
		}
		for _, w := range []Workload{BankTransfer(4), ReadMix("mix50", 8, 50), Disjoint(2)} {
			r := RunThroughput(e.Raw, w, 2, ops)
			if r.Ops != 2*ops {
				t.Fatalf("%s/%s: ops %d", e.Name, w.Name, r.Ops)
			}
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("want 16 experiments, got %d", len(all))
	}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
	}
	if _, ok := ByID("E5"); !ok {
		t.Fatal("E5 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 must not exist")
	}
}

// The experiment smoke tests run the fast experiments end to end and
// sanity-check their output text. E8 (minutes of wall time) is covered
// by the cmd tool and bench_test.go at the repo root instead.
func TestExperimentE1Output(t *testing.T) {
	var buf bytes.Buffer
	E1(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 1", "p1", "tryC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E1 output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentE2Output(t *testing.T) {
	var buf bytes.Buffer
	E2(&buf)
	out := buf.String()
	if strings.Contains(out, "FAIL") {
		t.Fatalf("E2 reports failure:\n%s", out)
	}
	if !strings.Contains(out, "alg1 over dstm") || !strings.Contains(out, "alg1 over alg2") {
		t.Fatalf("E2 output incomplete:\n%s", out)
	}
}

func TestExperimentE4Output(t *testing.T) {
	var buf bytes.Buffer
	E4(&buf)
	out := buf.String()
	if !strings.Contains(out, "violations: 0") {
		t.Fatalf("E4 2-process safety must be clean:\n%s", out)
	}
	if !strings.Contains(out, "Claim 10") {
		t.Fatalf("E4 bivalence must sustain the budget:\n%s", out)
	}
}

func TestExperimentE6Output(t *testing.T) {
	var buf bytes.Buffer
	E6(&buf)
	out := buf.String()
	if strings.Contains(out, "FAIL") {
		t.Fatalf("E6 failed:\n%s", out)
	}
	if !strings.Contains(out, "Theorem 6") {
		t.Fatalf("E6 output incomplete:\n%s", out)
	}
}

func TestExperimentE7Output(t *testing.T) {
	var buf bytes.Buffer
	E7(&buf)
	out := buf.String()
	if !strings.Contains(out, "2pl") {
		t.Fatalf("E7 output incomplete:\n%s", out)
	}
	// 2pl's table row must report zero violations in both columns.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[0] == "2pl" {
			if fields[1] != "0" || fields[2] != "0" {
				t.Fatalf("2pl must have zero DAP violations: %q", line)
			}
		}
	}
}
