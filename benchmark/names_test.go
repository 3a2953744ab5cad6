package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func specByName(name string) (*spec, bool) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], true
		}
	}
	return nil, false
}

// BENCHMARK.json and the benchmark must name the same workloads and
// metrics, with the same units, and the file must stay inside the limits
// its reader enforces before a single run.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	decl, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	gated := 0
	for i := range specs {
		if specs[i].ungated == "" {
			gated++
		}
	}
	if len(decl.Workloads) != gated {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d gated ones", len(decl.Workloads), gated)
	}
	for _, w := range decl.Workloads {
		name(w.Name)
		sp, ok := specByName(w.Name)
		if !ok || sp.ungated != "" {
			t.Errorf("workload %q is in BENCHMARK.json but is not a gated workload of the benchmark", w.Name)
			continue
		}
		if w.Why != sp.why {
			t.Errorf("workload %q: BENCHMARK.json and the benchmark give different reasons", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}

	match := func(kind string, decl []declaredMetric, defs []metricDef, bounded bool) {
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		if len(decl) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(decl), len(defs))
		}
		for _, m := range decl {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %q: unit %q is outside the allowed alphabet or length", kind, m.Name, m.Unit)
			}
			if u, ok := units[m.Name]; !ok {
				t.Errorf("%s %q is in BENCHMARK.json but the benchmark does not emit it", kind, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s %q: unit %q in BENCHMARK.json, %q in the benchmark", kind, m.Name, m.Unit, u)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %q: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %q: bound %g is outside (0, 0.25]", kind, m.Name, m.Bound)
			}
			delete(units, m.Name)
		}
		for n := range units {
			t.Errorf("%s %q is emitted by the benchmark but missing from BENCHMARK.json", kind, n)
		}
	}
	match("end-to-end metric", decl.EndToEnd, endToEnd, true)
	match("per-layer metric", decl.PerLayer, perLayer, false)

	var setup *declaredMetric
	for i := range decl.EndToEnd {
		if decl.EndToEnd[i].Name == "setup_s" {
			setup = &decl.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, better lower: %+v", setup)
	}

	// Exactly the contract's keys at the top level.
	raw, _ := os.ReadFile("../BENCHMARK.json")
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(top, k)
	}
	for k := range top {
		t.Errorf("BENCHMARK.json has the extra key %q", k)
	}
}

// BENCH_SMOKE=1 go test runs every workload for about two seconds,
// traced, with all checks on: the same as -smoke.
func TestSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 to run every workload briefly against the real server")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := findRoot(); err != nil {
		t.Fatal(err)
	}
	b, err := newBench()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(b.workDir)
	for i := range specs {
		if !b.runOne(&specs[i], 1, 2, 1) {
			t.Errorf("%s: smoke run failed", specs[i].name)
		}
	}
}
