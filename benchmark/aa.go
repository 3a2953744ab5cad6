package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

// declared is BENCHMARK.json as far as the benchmark reads it.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclared(path string) (*declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// exactCounts are the per-layer metrics that must repeat exactly for one
// seed: they count what a single-threaded pass does.
var exactCounts = []string{"core.reads_per_req", "core.writes_per_req", "core.attempts_per_txn"}

// runAA runs the selected workloads n times each on the same seed and
// prints, per metric, minimum, median, maximum and the quartile spread
// as a share of the median. An end-to-end metric whose spread exceeds
// its declared bound fails the run, unless the workload is ungated, as
// does an exact count that differs between two runs.
func (b *bench) runAA(selected []*spec, seed int64, seconds float64, trace, n int) bool {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -aa needs at least 2 runs")
		return false
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	bounds := map[string]float64{}
	for _, m := range decl.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	defs := endToEnd
	if trace != 0 {
		defs = perLayer
	}
	ok := true
	for _, sp := range selected {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			rep, err := b.measure(sp, seed, seconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", sp.name, i+1, err)
				return false
			}
			if !rep.res.Correct {
				b.print(rep)
				return false
			}
			for name, m := range rep.res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		envJSON, _ := json.Marshal(b.env)
		fmt.Printf("# A/A: workload %s, %d runs, seed %d, %g s\n# env %s\n", sp.name, n, seed, seconds, envJSON)
		fmt.Printf("%-32s %-8s %14s %14s %14s %8s %8s\n", "metric", "unit", "min", "median", "max", "spread", "bound")
		for _, d := range defs {
			v := vals[d.name]
			q1, q3 := quartiles(v)
			med := median(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			line := fmt.Sprintf("%-32s %-8s %14.4f %14.4f %14.4f %7.2f%%", d.name, d.unit, slices.Min(v), med, slices.Max(v), 100*spread)
			if bound, gated := bounds[d.name]; gated {
				line += fmt.Sprintf(" %7.0f%%", 100*bound)
				if spread > bound {
					line += "  SPREAD EXCEEDS BOUND"
					ok = ok && sp.ungated != ""
				}
			}
			fmt.Println(line)
		}
		if trace != 0 {
			for _, name := range exactCounts {
				if v := vals[name]; len(v) > 0 && slices.Min(v) != slices.Max(v) {
					fmt.Printf("%s differs between runs of one seed: %v\n", name, v)
					ok = false
				}
			}
		}
	}
	return ok
}
