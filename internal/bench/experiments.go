package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/adversary"
	"repro/internal/alg2"
	"repro/internal/base"
	"repro/internal/checker"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/dstm"
	"repro/internal/focons"
	"repro/internal/model"
	"repro/internal/nztm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Experiment is a runnable entry of the per-experiment index in
// DESIGN.md.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer)
}

// All returns the full experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figure 1: two-level execution model", E1},
		{"E2", "Lemma 7 / Algorithm 1: fo-consensus from an OFTM", E2},
		{"E3", "Lemma 8 / Algorithm 2: OFTM from fo-consensus (opacity + OF campaign)", E3},
		{"E4", "Theorem 9 / Corollary 11: consensus number 2", E4},
		{"E5", "Theorem 13 / Figure 2: strict DAP impossibility", E5},
		{"E6", "Theorems 5-6 / Algorithm 3: eventual ic-OFTM equivalence", E6},
		{"E7", "Strict DAP under random schedules, per engine", E7},
		{"E8", "Throughput and ablations (raw mode)", E8},
		{"E9", "Serving stack: kv throughput vs shards x engine", E9},
		{"E10", "Wire path rewrite: loopback req/s + allocs/req, byte vs PR 3 path", E10},
		{"E11", "Durability: WAL group commit under load, wal-off vs interval vs always", E11},
		{"E13", "Serving runtime scaling: worker loops vs goroutine-per-conn, conns x shards x fsync", E13},
		{"E14", "Follower-read scaling: 1 primary + N replicas, aggregate read capacity", E14},
		{"E15", "Async reply path: serving grid re-run + slow-reader soak", E15},
		{"E16", "Recovery at scale: incremental chain vs full snapshot", E16},
		{"E19", "Restart after wal.Open: loading the recovered keys into the store", E19},
	}
}

// ByID returns one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// E1 regenerates Figure 1: a process's high-level operations and the
// base-object steps implementing them, on one timeline.
func E1(w io.Writer) {
	h, names := adversary.RunFig1(func(env *sim.Env) core.TM {
		return dstm.New(dstm.WithEnv(env))
	})
	fmt.Fprintln(w, "Figure 1 — two-level execution: p1 runs a transactional move(x->y), p2 then reads x.")
	fmt.Fprintln(w, "High-level events (inv/ret) are local; indented '.' lines are steps on base objects.")
	fmt.Fprintln(w)
	fmt.Fprint(w, trace.Render(h, names))
}

// E2 checks the fo-consensus properties of Algorithm 1 over both OFTMs
// across random schedules, reporting abort counts (allowed only under
// contention) and any property violation.
func E2(w io.Writer) {
	type construction struct {
		name    string
		factory func(env *sim.Env) base.Proposer
	}
	cons := []construction{
		{"alg1 over dstm", func(env *sim.Env) base.Proposer {
			return focons.NewFromOFTM(dstm.New(dstm.WithEnv(env)))
		}},
		{"alg1 over alg2", func(env *sim.Env) base.Proposer {
			return focons.NewFromOFTM(alg2.New(alg2.WithEnv(env)))
		}},
	}
	t := NewTable("Experiment E2 — Algorithm 1 property campaign (3 procs, 40 seeds)",
		"construction", "decided runs", "aborted proposes", "agreement", "fo-validity", "solo never aborts")
	for _, c := range cons {
		decidedRuns, aborts := 0, 0
		agreement, validity := true, true
		for seed := int64(0); seed < 40; seed++ {
			env := sim.New()
			f := c.factory(env)
			results := make([]uint64, 3)
			for i := 0; i < 3; i++ {
				i := i
				env.Spawn(func(p *sim.Proc) { results[i] = f.Propose(p, uint64(i+10)) })
			}
			env.Run(sim.Random(seed))
			decided := map[uint64]bool{}
			for _, r := range results {
				if r == base.Bottom {
					aborts++
				} else {
					decided[r] = true
				}
			}
			if len(decided) > 1 {
				agreement = false
			}
			if len(decided) == 1 {
				decidedRuns++
				for v := range decided {
					if i := int(v) - 10; i < 0 || i > 2 || results[i] == base.Bottom {
						validity = false
					}
				}
			}
		}
		// Solo check: a contention-free propose must not abort.
		env := sim.New()
		f := c.factory(env)
		var solo uint64
		env.Spawn(func(p *sim.Proc) { solo = f.Propose(p, 42) })
		env.Run(sim.Solo(1))
		t.Add(c.name, decidedRuns, aborts, pass(agreement), pass(validity), pass(solo == 42))
	}
	fmt.Fprint(w, t.String())
}

// E3 runs the Algorithm 2 safety campaign: random 3-process workloads
// under random schedules; every history must be opaque and
// obstruction-free.
func E3(w io.Writer) {
	t := NewTable("Experiment E3 — Algorithm 2 campaign (3 procs x 2 txs, random schedules)",
		"fo-consensus policy", "seeds", "histories opaque", "obstruction-free", "total steps")
	for _, pol := range []struct {
		name   string
		policy base.AbortPolicy
	}{{"never-abort", base.NeverAbort}, {"abort-on-contention", base.AbortOnContention}} {
		seeds := 25
		opaque, of := true, true
		var steps int64
		for seed := 0; seed < seeds; seed++ {
			env := sim.New()
			tm := core.Recorded(alg2.New(alg2.WithEnv(env), alg2.WithFoConsPolicy(pol.policy)), env.Recorder())
			vars := make([]core.Var, 3)
			init := map[model.VarID]uint64{}
			for i := range vars {
				vars[i] = tm.NewVar(fmt.Sprintf("x%d", i), 0)
				init[vars[i].ID()] = 0
			}
			for pi := 0; pi < 3; pi++ {
				pi := pi
				env.Spawn(func(p *sim.Proc) {
					rng := rand.New(rand.NewSource(int64(seed)*100 + int64(pi)))
					for k := 0; k < 2; k++ {
						_ = core.Run(tm, p, func(tx core.Tx) error {
							for j := 0; j < 3; j++ {
								v := vars[rng.Intn(len(vars))]
								if rng.Intn(2) == 0 {
									if _, err := tx.Read(v); err != nil {
										return err
									}
								} else if err := tx.Write(v, uint64(rng.Intn(9)+1)); err != nil {
									return err
								}
							}
							return nil
						}, core.MaxAttempts(40))
					}
				})
			}
			h := env.Run(sim.Random(int64(seed)))
			steps += env.TotalSteps()
			txs := model.Transactions(h)
			if len(txs) <= checker.ExactLimit && !checker.CheckOpacity(txs, init).OK {
				opaque = false
			}
			if len(checker.CheckObstructionFree(h)) > 0 {
				of = false
			}
		}
		t.Add(pol.name, seeds, pass(opaque), pass(of), steps)
	}
	fmt.Fprint(w, t.String())
}

// E4 runs the consensus-number experiments: exhaustive 2-process safety
// and the 3-process bivalence search.
func E4(w io.Writer) {
	fmt.Fprintln(w, "Experiment E4 — consensus number of an OFTM is 2 (Corollary 11)")
	fmt.Fprintln(w)
	rep2 := adversary.ExhaustiveTwoCons(10)
	fmt.Fprintf(w, "(a) 2-process consensus from fo-consensus: %d schedules (depth %d) exhaustively checked; violations: %d\n",
		rep2.Schedules, rep2.Depth, len(rep2.Violations))
	for _, v := range rep2.Violations {
		fmt.Fprintln(w, "    "+v)
	}
	fmt.Fprintln(w)
	rep3 := adversary.ExploreValency([]uint64{0, 1, 1}, 16)
	fmt.Fprintln(w, "(b) 3-process candidate algorithm (racing consensus from fo-consensus + registers):")
	fmt.Fprint(w, indent(rep3.Format(), "    "))
}

// E5 sweeps the Figure 2 scenario over every engine and prints the full
// per-suspension-point table for the reference OFTM.
func E5(w io.Writer) {
	t := NewTable("Experiment E5 — Theorem 13 / Figure 2 per engine",
		"engine", "OF claim", "solo steps", "critical step", "blocked", "DAP-violating points", "conflict objects")
	var dstmRep adversary.Fig2Report
	for _, e := range Engines() {
		rep := adversary.RunFig2(e.Sim, 6)
		objs := map[string]bool{}
		for _, row := range rep.Rows {
			for _, o := range row.ConflictObjs {
				objs[o] = true
			}
		}
		var names []string
		for o := range objs {
			names = append(names, o)
		}
		t.Add(e.Name, e.OF, rep.SoloSteps, rep.CriticalStep, rep.Blocked,
			len(rep.DAPViolationPoints), strings.Join(names, " "))
		if e.Name == "dstm" {
			dstmRep = rep
		}
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w)
	fmt.Fprint(w, dstmRep.Format())
}

// E6 exercises the Theorem 6 chain: Algorithm 3 over DSTM as the
// fo-consensus supply for Algorithm 2, running a shared-counter
// workload whose history must be opaque.
func E6(w io.Writer) {
	env := sim.New()
	env.MaxSteps = 500_000
	inner := dstm.New(dstm.WithEnv(env))
	outer := alg2.New(alg2.WithEnv(env), alg2.WithFoConsFactory(func(string) base.Proposer {
		return focons.NewFromEventual(inner, env, 2)
	}))
	rtm := core.Recorded(outer, env.Recorder())
	x := rtm.NewVar("x", 0)
	for i := 0; i < 2; i++ {
		env.Spawn(func(p *sim.Proc) {
			for k := 0; k < 2; k++ {
				_ = core.Run(rtm, p, func(tx core.Tx) error {
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					return tx.Write(x, v+1)
				}, core.MaxAttempts(60))
			}
		})
	}
	h := env.Run(sim.Random(7))
	txs := model.Transactions(h)
	var opaque string
	if len(txs) <= checker.ExactLimit {
		opaque = pass(checker.CheckOpacity(txs, map[model.VarID]uint64{x.ID(): 0}).OK)
	} else {
		opaque = pass(checker.CheckSerializableWitness(txs, map[model.VarID]uint64{x.ID(): 0}).OK) + " (witness)"
	}
	final, _ := core.ReadVar(outer, nil, x)
	fmt.Fprintln(w, "Experiment E6 — Theorem 6 composition: Alg2( fo-consensus = Alg3( DSTM ) )")
	fmt.Fprintf(w, "  2 procs x 2 increments; committed counter value: %d\n", final)
	fmt.Fprintf(w, "  steps executed: %d (the paper predicts gross inefficiency; correctness is the claim)\n", env.TotalSteps())
	fmt.Fprintf(w, "  history well-formed: %s;  safety: %s;  truncated: %v\n",
		pass(h.WellFormed() == nil), opaque, env.Truncated)
}

// E7 measures strict-DAP violations under random schedules for two
// workload shapes: fully disjoint transactions, and the indirectly
// connected shape of Figure 2 (T2, T3 disjoint from each other but both
// overlapping a third transaction).
func E7(w io.Writer) {
	t := NewTable("Experiment E7 — strict-DAP violations across 20 random schedules",
		"engine", "fully disjoint", "indirectly connected", "sample conflict object")
	for _, e := range Engines() {
		disjoint := dapCampaign(e, false)
		indirect := dapCampaign(e, true)
		sample := ""
		if len(indirect.objs) > 0 {
			sample = indirect.objs[0]
		} else if len(disjoint.objs) > 0 {
			sample = disjoint.objs[0]
		}
		t.Add(e.Name, disjoint.count, indirect.count, sample)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "The 2pl baseline is strictly disjoint-access-parallel (zero everywhere); Theorem 13")
	fmt.Fprintln(w, "shows the OFTMs cannot be: their violations appear under indirect connection.")
}

type dapResult struct {
	count int
	objs  []string
}

func dapCampaign(e Engine, indirect bool) dapResult {
	var out dapResult
	seen := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		env := sim.New()
		tm := core.Recorded(e.Sim(env), env.Recorder())
		a := tm.NewVar("a", 0)
		b := tm.NewVar("b", 0)
		wv := tm.NewVar("w", 0)
		zv := tm.NewVar("z", 0)
		inc := func(v core.Var) func(tx core.Tx) error {
			return func(tx core.Tx) error {
				x, err := tx.Read(v)
				if err != nil {
					return err
				}
				return tx.Write(v, x+1)
			}
		}
		if indirect {
			// p1 spans a and b; p2 uses {a,w}; p3 uses {b,z}. p2 and p3
			// are t-variable-disjoint but indirectly connected via p1.
			env.Spawn(func(p *sim.Proc) {
				_ = core.Run(tm, p, func(tx core.Tx) error {
					if err := inc(a)(tx); err != nil {
						return err
					}
					return inc(b)(tx)
				}, core.MaxAttempts(20))
			})
			env.Spawn(func(p *sim.Proc) {
				_ = core.Run(tm, p, func(tx core.Tx) error {
					if _, err := tx.Read(a); err != nil {
						return err
					}
					return inc(wv)(tx)
				}, core.MaxAttempts(20))
			})
			env.Spawn(func(p *sim.Proc) {
				_ = core.Run(tm, p, func(tx core.Tx) error {
					if _, err := tx.Read(b); err != nil {
						return err
					}
					return inc(zv)(tx)
				}, core.MaxAttempts(20))
			})
		} else {
			for _, v := range []core.Var{a, b, wv} {
				v := v
				env.Spawn(func(p *sim.Proc) {
					_ = core.Run(tm, p, inc(v), core.MaxAttempts(20))
				})
			}
		}
		h := env.Run(sim.Random(seed))
		for _, v := range checker.CheckStrictDAP(h, env.ObjName) {
			out.count++
			if !seen[v.ObjName] {
				seen[v.ObjName] = true
				out.objs = append(out.objs, v.ObjName)
			}
		}
	}
	return out
}

// E8 is the raw-mode performance suite: engine scaling, read-mix
// sensitivity, the disjoint "hot spot" microbenchmark, and the
// contention-manager and validation ablations.
func E8(w io.Writer) {
	threads := []int{1, 2, 4, 8}
	ops := map[string]int{"dstm": 50000, "nztm": 50000, "2pl": 50000, "tl2": 50000, "coarse": 50000, "alg2": 2000}

	t1 := NewTable("Experiment E8a — bank transfers (8 accounts), ops/s by threads",
		"engine", "1", "2", "4", "8", "eff@8", "retries@8")
	for _, e := range Engines() {
		row := []any{e.Name}
		var first, last Result
		for _, th := range threads {
			last = RunThroughput(e.Raw, BankTransfer(8), th, ops[e.Name])
			if th == 1 {
				first = last
			}
			row = append(row, fmt.Sprintf("%.0f", last.OpsPerSec()))
		}
		// Scaling efficiency: throughput at 8 threads relative to 1
		// thread (1.00x = flat, >1 = scaling, <1 = interference).
		row = append(row, fmt.Sprintf("%.2fx", last.OpsPerSec()/first.OpsPerSec()))
		row = append(row, fmt.Sprint(last.Attempts-int64(last.Ops)))
		t1.Add(row...)
	}
	fmt.Fprint(w, t1.String())
	fmt.Fprintln(w)

	t2 := NewTable("Experiment E8b — read mix sensitivity (64 vars, 4 threads), ops/s",
		"engine", "0% reads", "50% reads", "90% reads")
	for _, e := range Engines() {
		row := []any{e.Name}
		for _, pct := range []int{0, 50, 90} {
			r := RunThroughput(e.Raw, ReadMix(fmt.Sprintf("mix%d", pct), 64, pct), 4, ops[e.Name])
			row = append(row, fmt.Sprintf("%.0f", r.OpsPerSec()))
		}
		t2.Add(row...)
	}
	fmt.Fprint(w, t2.String())
	fmt.Fprintln(w)

	t3 := NewTable("Experiment E8c — disjoint private counters (perfect DAP workload), ops/s",
		"engine", "1", "2", "4", "8")
	for _, e := range Engines() {
		row := []any{e.Name}
		for _, th := range threads {
			r := RunThroughput(e.Raw, Disjoint(8), th, ops[e.Name])
			row = append(row, fmt.Sprintf("%.0f", r.OpsPerSec()))
		}
		t3.Add(row...)
	}
	fmt.Fprint(w, t3.String())
	fmt.Fprintln(w)

	t4 := NewTable("Experiment E8d — contention manager ablation (dstm, bank-4 hot, 8 threads)",
		"manager", "ops/s", "retries")
	for _, m := range cm.All() {
		m := m
		r := RunThroughput(func() core.TM { return dstm.New(dstm.WithManager(m)) },
			BankTransfer(4), 8, 50000)
		t4.Add(m.Name(), fmt.Sprintf("%.0f", r.OpsPerSec()), r.Attempts-int64(r.Ops))
	}
	fmt.Fprint(w, t4.String())
	fmt.Fprintln(w)

	t5 := NewTable("Experiment E8e — DSTM validation ablation (90% reads, 64 vars, 4 threads)",
		"variant", "ops/s", "opacity")
	rv := RunThroughput(func() core.TM { return dstm.New() }, ReadMix("mix90", 64, 90), 4, 50000)
	t5.Add("validate-on-read", fmt.Sprintf("%.0f", rv.OpsPerSec()), "yes (paper-faithful)")
	rc := RunThroughput(func() core.TM { return dstm.New(dstm.ValidateAtCommitOnly()) },
		ReadMix("mix90", 64, 90), 4, 50000)
	t5.Add("validate-at-commit", fmt.Sprintf("%.0f", rc.OpsPerSec()), "no (serializable only)")
	fmt.Fprint(w, t5.String())
	fmt.Fprintln(w)

	t6 := NewTable("Experiment E8f — commit-epoch validation ablation (256-read transactions, 1 thread)",
		"engine", "epoch ops/s", "full-scan ops/s", "speedup")
	epochVariants := []struct {
		name    string
		with    func() core.TM
		without func() core.TM
	}{
		{"dstm",
			func() core.TM { return dstm.New() },
			func() core.TM { return dstm.New(dstm.WithoutEpochValidation()) }},
		{"nztm",
			func() core.TM { return nztm.New() },
			func() core.TM { return nztm.New(nztm.WithoutEpochValidation()) }},
	}
	for _, v := range epochVariants {
		withR := RunThroughput(v.with, ReadHeavy(256), 1, 2000)
		withoutR := RunThroughput(v.without, ReadHeavy(256), 1, 2000)
		t6.Add(v.name, fmt.Sprintf("%.0f", withR.OpsPerSec()),
			fmt.Sprintf("%.0f", withoutR.OpsPerSec()),
			fmt.Sprintf("%.1fx", withR.OpsPerSec()/withoutR.OpsPerSec()))
	}
	fmt.Fprint(w, t6.String())
	fmt.Fprintln(w)

	// E8g — the contended-read ablation grid: 256-read transactions
	// with a background writer committing to a disjoint variable, per
	// validation strategy. Per-variable versioned validation should
	// keep the contended cost near the quiescent one; the PR 1 global
	// epoch collapses (every commit anywhere forces a full rescan), and
	// the full-scan reference is quadratic either way.
	t7 := NewTable("Experiment E8g — contended-read ablation (readheavy-256 + disjoint background writer, 1 thread)",
		"engine", "validation", "quiescent ops/s", "contended ops/s", "contended/quiescent")
	type gVariant struct {
		engine, validation string
		mk                 func() core.TM
	}
	gVariants := []gVariant{
		{"dstm", "versioned", func() core.TM { return dstm.New() }},
		{"dstm", "global-epoch", func() core.TM { return dstm.New(dstm.GlobalEpochOnly()) }},
		{"dstm", "full-scan", func() core.TM { return dstm.New(dstm.WithoutEpochValidation()) }},
		{"nztm", "versioned", func() core.TM { return nztm.New() }},
		{"nztm", "global-epoch", func() core.TM { return nztm.New(nztm.GlobalEpochOnly()) }},
		{"nztm", "full-scan", func() core.TM { return nztm.New(nztm.WithoutEpochValidation()) }},
	}
	for _, v := range gVariants {
		quiet := RunThroughput(v.mk, ReadHeavy(256), 1, 2000)
		contended := RunThroughput(v.mk, ContendedReadHeavy(256), 1, 2000)
		t7.Add(v.engine, v.validation,
			fmt.Sprintf("%.0f", quiet.OpsPerSec()),
			fmt.Sprintf("%.0f", contended.OpsPerSec()),
			fmt.Sprintf("%.2fx", contended.OpsPerSec()/quiet.OpsPerSec()))
	}
	fmt.Fprint(w, t7.String())
}

func pass(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pre + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
