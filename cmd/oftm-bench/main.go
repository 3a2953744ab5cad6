// Command oftm-bench regenerates the experiment tables of the
// reproduction (DESIGN.md §4 / EXPERIMENTS.md).
//
// Usage:
//
//	oftm-bench                 # run every experiment E1..E19
//	oftm-bench -exp E5         # run one experiment
//	oftm-bench -list           # list experiments
//	oftm-bench -kvsmoke        # brief run of every kv-* workload (CI)
//	oftm-bench -servebench     # end-to-end loopback server load
//	                           # (E11 durability +
//	                           # E13 runtime scaling grid +
//	                           # E14 replication follower reads +
//	                           # E15 async reply path + soak);
//	                           # with -json, write the serving records
//	oftm-bench -servebench -procs 4
//	                           # ...driving the E13 grid from 4 loadgen
//	                           # processes so the client never
//	                           # bottlenecks the measurement (default 2;
//	                           # -procs 1 falls back to in-process load)
//	oftm-bench -json out.json  # write the perf-tracking grid as JSON
//	oftm-bench -json out.json -baseline BENCH_PR15.json
//	                           # ...and diff ns/op + allocs/op against
//	                           # a previous grid, exiting 1 on
//	                           # regressions beyond tolerance
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	// A re-exec'd loadgen child (E13 -procs) never comes back from this.
	bench.MaybeLoadgenChild()
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.String("json", "", "measure the perf-tracking grid and write JSON to this file ('-' for stdout)")
	baseline := flag.String("baseline", "", "previous perf-tracking JSON to diff against (requires -json); exits 1 when any record's ns/op regresses by more than -tolerance")
	tolerance := flag.Float64("tolerance", 25, "regression tolerance for -baseline, in percent")
	kvsmoke := flag.Bool("kvsmoke", false, "run every kv-* workload briefly and exit (CI smoke)")
	servebench := flag.Bool("servebench", false, "run the end-to-end loopback server load (experiments E11, E13, E14 and E15); with -json, write the serving records to that file")
	procs := flag.Int("procs", 2, "E13: number of loadgen processes driving the scaling grid (1 = in-process; >1 keeps the measured process serving-only, so its req/s-per-core is clean)")
	scaleConns := flag.String("scale-conns", "", "E13: comma-separated connection grid override (e.g. 8,64 for the CI smoke)")
	scaleWorkers := flag.Int("scale-workers", 0, "E13: worker count for worker-runtime grid points (0 = server default)")
	flag.Parse()

	opts := bench.ScaleOptions{Procs: *procs, Workers: *scaleWorkers}
	if *scaleConns != "" {
		for _, f := range strings.Split(*scaleConns, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "oftm-bench: bad -scale-conns entry %q\n", f)
				os.Exit(2)
			}
			opts.Conns = append(opts.Conns, n)
		}
	}
	bench.SetScaleOptions(opts)

	if *servebench {
		bench.E11(os.Stdout)
		fmt.Println()
		bench.E13(os.Stdout)
		fmt.Println()
		bench.E14(os.Stdout)
		fmt.Println()
		bench.E15(os.Stdout)
		if *jsonOut != "" {
			if err := writeFile(*jsonOut, bench.WriteServerJSON); err != nil {
				fmt.Fprintf(os.Stderr, "oftm-bench: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}
	if *kvsmoke {
		if err := bench.KVSmoke(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "oftm-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	if *baseline != "" && *jsonOut == "" {
		fmt.Fprintln(os.Stderr, "oftm-bench: -baseline requires -json (the comparison needs fresh measurements)")
		os.Exit(2)
	}
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "oftm-bench: %v\n", err)
			os.Exit(1)
		}
		if *baseline != "" {
			if err := diffBaseline(*jsonOut, *baseline, *tolerance); err != nil {
				fmt.Fprintf(os.Stderr, "oftm-bench: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}
	if *exp != "" {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "oftm-bench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		run(e)
		return
	}
	for _, e := range bench.All() {
		run(e)
		fmt.Println()
	}
}

// writeJSONFile measures the perf grid into path ("-" = stdout).
func writeJSONFile(path string) error {
	return writeFile(path, bench.WriteJSON)
}

// writeFile streams write's output into path ("-" = stdout). A failed
// close is reported: a truncated perf-tracking file must not exit 0.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// diffBaseline compares the freshly written grid against a previous
// one, printing per-record ns/op deltas. A regression beyond tolPct on
// any record is an error: the perf trajectory is enforced, not just
// recorded. ('-' as the json output streams to stdout and leaves
// nothing to compare.)
func diffBaseline(curPath, basePath string, tolPct float64) error {
	if curPath == "-" {
		return fmt.Errorf("-baseline needs -json to write to a file, not '-'")
	}
	cur, err := bench.LoadReport(curPath)
	if err != nil {
		return err
	}
	base, err := bench.LoadReport(basePath)
	if err != nil {
		return err
	}
	fmt.Printf("perf diff: %s (current) vs %s (baseline), tolerance %.0f%%:\n", curPath, basePath, tolPct)
	if n := bench.Compare(os.Stdout, base, cur, tolPct); n > 0 {
		return fmt.Errorf("%d record(s) regressed beyond %.0f%% vs %s", n, tolPct, basePath)
	}
	return nil
}

func run(e bench.Experiment) {
	fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
	start := time.Now()
	e.Run(os.Stdout)
	fmt.Printf("(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
}
