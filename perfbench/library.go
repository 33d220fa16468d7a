package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/atpg"
	"repro/internal/bmc"
	"repro/internal/cec"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/portfolio"
	"repro/internal/solver"
)

// The two library workloads run a closed loop on one goroutine: the
// next call starts when the previous one returns. A pass runs every
// instance once; passes repeat while a whole pass still fits in the
// measured seconds (at least two passes always run).
//
// Set-up is timed before every pass: the whole instance set is loaded
// setupReps times back to back (the public parsers plus solver
// construction), and setup_s is the median over all passes' loads. The
// passes spread the loads over the run, so they sample the shared host's
// speed swings, which last about a second, and the median discards a
// load that a stall hit.

// setupReps is how many times each pass loads the instance set first.
const setupReps = 5

// timeLoads appends setupReps timings (s) of load to setups.
func timeLoads(setups []float64, load func() error) ([]float64, error) {
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		if err := load(); err != nil {
			return setups, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	return setups, nil
}

// loop runs passes until the budget is spent. pass(i) returns the
// pass's wall time. At least two passes run, so that a traced run has an
// untraced and a traced pass and a slow host does not drop an untraced
// run to a single pass.
func loop(cfg *config, pass func(i int) time.Duration) []time.Duration {
	budget := time.Duration(cfg.seconds * float64(time.Second))
	const minPasses = 2
	start := time.Now()
	var walls []time.Duration
	for i := 0; ; i++ {
		walls = append(walls, pass(i))
		if len(walls) >= minPasses && time.Since(start)+walls[len(walls)-1] > budget {
			return walls
		}
	}
}

// drawOf is the input draw pass p runs. The library workloads draw
// fresh inputs (new shuffles, renamings and random formulas) every pass,
// so an op's median over the passes does not hang on the luck of one
// shuffle; a traced run runs each draw twice, untraced and then traced,
// so that the two passes, whose walls give the tracing overhead, do the
// same work.
func drawOf(cfg *config, p int) int {
	if cfg.trace {
		return p / 2
	}
	return p
}

// opLatencies keeps each op's latency (ms) per pass. Percentiles are
// taken over the ops' median latencies, so a pass the host stalled moves
// no percentile: on a shared VM, steal time alone has stretched one
// 0.5 s solve by 40%.
type opLatencies map[int][]float64

func (o opLatencies) add(op int, v float64) { o[op] = append(o[op], v) }

func (o opLatencies) medians() []float64 {
	var out []float64
	for _, v := range o {
		out = append(out, median(v))
	}
	return out
}

func (o opLatencies) total() float64 {
	t := 0.0
	for _, v := range o {
		t += sum(v)
	}
	return t
}

// loadStats accumulates the solver-construction layer over calls.
type loadStats struct {
	load        time.Duration
	bytes, vars uint64
}

// fromFormula constructs a solver and, when measuring, the heap bytes
// the construction allocated.
func fromFormula(f *cnf.Formula, ls *loadStats) *solver.Solver {
	if ls == nil {
		return solver.FromFormula(f, solver.Options{})
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	s := solver.FromFormula(f, solver.Options{})
	ls.load += time.Since(t)
	runtime.ReadMemStats(&m1)
	ls.bytes += m1.TotalAlloc - m0.TotalAlloc
	ls.vars += uint64(f.NumVars())
	return s
}

// ---- solver-deep ---------------------------------------------------------

type deepAnswer struct {
	status    solver.Status
	conflicts int64
}

func runSolverDeep(cfg *config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}

	// In a traced run the two passes of a draw must agree on every
	// verdict and conflict count.
	draws := map[int][]cnfInstance{}
	setOf := func(p int) []cnfInstance {
		d := drawOf(cfg, p)
		if draws[d] == nil {
			draws[d] = solverDeepSet(cfg.seed, d)
		}
		return draws[d]
	}
	loadDeep := func(set []cnfInstance) func() error {
		return func() error {
			for _, in := range set {
				f, err := cnf.ParseDIMACSString(in.text)
				if err != nil {
					return fmt.Errorf("%s: %v", in.family, err)
				}
				solver.FromFormula(f, solver.Options{})
			}
			return nil
		}
	}
	first := map[int][]deepAnswer{} // draw -> answers of its first pass
	type proofCase struct{ draw, slot int }
	famMS := map[string]float64{} // first pass, per family: a spread diagnostic
	lats := opLatencies{}
	var unsatToProve []proofCase
	tr := newTracer(cfg.trace)
	var traced, untraced, setups []float64
	var layer struct {
		ls                              loadStats
		phase                           [solver.PhaseCount]int64
		search                          time.Duration
		props, confl, dec, learnt, dels int64
		mallocs                         uint64
	}
	// char feeds the workload-character check on every run: PhaseNS is
	// kept by the program anyway, and Solve is timed here regardless.
	var char struct {
		phase  [solver.PhaseCount]int64
		search time.Duration
	}
	cpu0 := selfCPU()
	passes := 0
	walls := loop(cfg, func(p int) time.Duration {
		passes++
		// A traced run alternates untraced and traced passes; the
		// ratio of their walls is the tracing overhead.
		t := tr
		if cfg.trace && p%2 == 0 {
			t = nil
		}
		set := setOf(p)
		d := drawOf(cfg, p)
		seen := first[d] != nil
		if !seen {
			first[d] = make([]deepAnswer, len(set))
		}
		var err error
		if setups, err = timeLoads(setups, loadDeep(set)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: solver-deep load:", err)
		}
		runtime.GC() // so one pass does not pay for the last one's garbage
		start := time.Now()
		for i, in := range set {
			op := int64(i + 1)
			t0 := time.Now()
			sp := t.begin("cnf.ParseDIMACS", 0, op)
			f, err := cnf.ParseDIMACSString(in.text)
			t.end(sp)
			if err != nil {
				out.failed++
				continue
			}
			var ls *loadStats
			if t != nil && p == 1 {
				ls = &layer.ls
			}
			sp = t.begin("solver.FromFormula", 0, op)
			s := fromFormula(f, ls)
			t.end(sp)
			var m0 runtime.MemStats
			if ls != nil {
				runtime.ReadMemStats(&m0)
			}
			sp = t.begin("solver.Solve", 0, op)
			ts := time.Now()
			st := s.Solve()
			searched := time.Since(ts)
			t.end(sp)
			lat := ms(time.Since(t0))
			lats.add(i, lat)
			if p == 0 {
				famMS[in.family] += lat
			}
			out.attempted++
			snap := s.Snapshot()
			for k := range char.phase {
				char.phase[k] += snap.PhaseNS[k]
			}
			char.search += searched
			if ls != nil {
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				layer.mallocs += m1.Mallocs - m0.Mallocs
				for k := range layer.phase {
					layer.phase[k] += snap.PhaseNS[k]
				}
				layer.search += searched
				layer.props += s.Stats.Propagations
				layer.confl += s.Stats.Conflicts
				layer.dec += s.Stats.Decisions
				layer.learnt += s.Stats.Learned
				layer.dels += s.Stats.Deleted
			}
			// Checks. A model is verified every time; an UNSAT answer
			// on a formula that is not UNSAT by construction is proved
			// once, after the timed passes.
			switch {
			case st == solver.Sat && (in.want == expectUnsat || solver.VerifyModel(f, s.Model()) != nil):
				out.wrong++
				out.failed++
			case st == solver.Unsat && in.want == expectSat:
				out.wrong++
				out.failed++
			case st == solver.Unknown:
				out.failed++
			}
			if !seen {
				first[d][i] = deepAnswer{st, s.Stats.Conflicts}
				if st == solver.Unsat && in.want == expectAny {
					unsatToProve = append(unsatToProve, proofCase{d, i})
				}
			} else if a := first[d][i]; a != (deepAnswer{st, s.Stats.Conflicts}) {
				fmt.Fprintf(os.Stderr, "perfbench: %s draw %d slot %d: pass %d gave %v/%d conflicts, the draw's first pass %v/%d\n",
					in.family, d, i, p+1, st, s.Stats.Conflicts, a.status, a.conflicts)
				out.wrong++
			}
		}
		wall := time.Since(start)
		if t != nil {
			traced = append(traced, wall.Seconds())
		} else {
			untraced = append(untraced, wall.Seconds())
		}
		return wall
	})
	cpu := selfCPU() - cpu0
	peakRSS := selfPeakRSSMiB() // before the proof checks below

	// Untimed proof of every UNSAT answer that is not UNSAT by
	// construction: re-solve with DRAT logging and check the proof.
	proofStart := time.Now()
	for _, c := range unsatToProve {
		in := draws[c.draw][c.slot]
		f, _ := cnf.ParseDIMACSString(in.text)
		var drat bytes.Buffer
		w := solver.NewDRATWriter(&drat)
		s := solver.FromFormula(f, solver.Options{Proof: w})
		st := s.Solve()
		if err := w.Flush(); err != nil || st != solver.Unsat || solver.VerifyDRAT(f, &drat) != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s draw %d slot %d: UNSAT answer not certified\n", in.family, c.draw, c.slot)
			out.wrong++
		}
	}

	wallS := make([]float64, len(walls))
	for i, w := range walls {
		wallS[i] = w.Seconds()
	}
	busy := lats.total() / 1000
	per := lats.medians()
	m := out.metrics
	m["setup_s"] = median(setups)
	m["wall_s"] = median(wallS)
	m["latency_p50_ms"] = percentile(per, 0.50)
	m["latency_p95_ms"] = percentile(per, 0.95)
	m["latency_p99_ms"] = percentile(per, 0.99)
	m["goodput_ops_per_s"] = float64(out.attempted-out.failed) / sum(wallS)
	m["max_rate_rps"] = float64(out.attempted) / busy // a closed loop's rate is its capacity
	m["cpu_ms_per_op"] = ms(cpu) / float64(out.attempted)
	m["peak_rss_mb"] = peakRSS
	fmt.Fprintf(os.Stderr, "perfbench: solver-deep seed %d: %d instances x %d passes, pass walls %v, first-pass ms by family %v, %d UNSAT proofs checked in %v\n",
		cfg.seed, len(draws[0]), passes, wallS, famMS, len(unsatToProve), time.Since(proofStart).Round(time.Millisecond))

	if cfg.trace {
		var texts []string
		for _, in := range draws[0] {
			texts = append(texts, in.text)
		}
		byName := tr.durByName()
		phaseSum := int64(0)
		for _, ns := range layer.phase {
			phaseSum += ns
		}
		m["cnf.parse_ms"] = sum(byName["cnf.ParseDIMACS"]) / float64(len(traced))
		m["cnf.fingerprint_ms"] = fingerprintMS(tr, texts)
		m["solver.load_ms"] = ms(layer.ls.load)
		m["solver.bytes_per_var"] = ratio(float64(layer.ls.bytes), float64(layer.ls.vars))
		m["solver.allocs_per_conflict"] = ratio(float64(layer.mallocs), float64(layer.confl))
		phaseMetrics(m, layer.phase[:])
		m["solver.decide_ms"] = ms(layer.search) - float64(phaseSum)/1e6
		m["solver.props_per_s"] = ratio(float64(layer.props), layer.search.Seconds())
		m["solver.conflicts_per_s"] = ratio(float64(layer.confl), layer.search.Seconds())
		m["solver.conflicts"] = float64(layer.confl)
		m["solver.decisions"] = float64(layer.dec)
		m["solver.learnt_deleted_ratio"] = ratio(float64(layer.dels), float64(layer.learnt))
		m["bench.trace_overhead_ratio"] = median(traced)/median(untraced) - 1
		m["bench.search_share"] = ratio(float64(layer.phase[solver.PhasePropagate]+layer.phase[solver.PhaseAnalyze]+layer.phase[solver.PhaseReduce])/1e6, ms(layer.search))
		m["bench.decide_load_share"] = ratio(m["solver.decide_ms"]+m["solver.load_ms"], ms(layer.search+layer.ls.load))
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	share := ratio(float64(char.phase[solver.PhasePropagate]+char.phase[solver.PhaseAnalyze]+char.phase[solver.PhaseReduce])/1e6, ms(char.search))
	out.checks = append(out.checks, selfCheck{"search_share", "propagate+analyze+reduce > 0.5 of search time", share, share > 0.5})
	m["failed_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	return out, nil
}

// phaseMetrics stores solver.<phase>_ms from PhaseNS totals.
func phaseMetrics(m map[string]float64, ns []int64) {
	m["solver.propagate_ms"] = float64(ns[solver.PhasePropagate]) / 1e6
	m["solver.analyze_ms"] = float64(ns[solver.PhaseAnalyze]) / 1e6
	m["solver.reduce_ms"] = float64(ns[solver.PhaseReduce]) / 1e6
	m["solver.inprocess_ms"] = float64(ns[solver.PhaseInprocess]) / 1e6
	m["solver.gc_ms"] = float64(ns[solver.PhaseGC]) / 1e6
}

// fingerprintMS times cnf.FormulaFingerprint on each of the workload's
// DIMACS texts (parsing them is not timed) and returns the total ms.
func fingerprintMS(tr *tracer, texts []string) float64 {
	var total time.Duration
	for i, text := range texts {
		f, err := cnf.ParseDIMACSString(text)
		if err != nil {
			continue
		}
		t := time.Now()
		cnf.FormulaFingerprint(f)
		d := time.Since(t)
		tr.add("cnf.FormulaFingerprint", 0, -int64(i+1), t, t.Add(d))
		total += d
	}
	return ms(total)
}

// ---- eda-flows -----------------------------------------------------------

// edaInputs is one seed's eda-flows instance text.
type edaInputs struct {
	mult8, alu16, adderA, adderB, counter string
}

const (
	counterBits   = 13
	counterTarget = 4000
)

// atpgExpect is the fault bookkeeping each ATPG circuit must reproduce
// on every seed: renaming and line shuffling leave the structure, and
// so the collapsed fault list and its outcome, unchanged.
type atpgExpect struct{ total, detected, redundant int }

var (
	mult8Expect = atpgExpect{1456, 1456, 0}
	// The ALU's constant becomes XOR(x, x) in .bench, which adds the
	// faults of that gate to the list.
	alu16Expect = atpgExpect{894, 879, 15}
)

func edaSet(seed int64, draw int) edaInputs {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(draw)))
	return edaInputs{
		mult8:   benchText(circuit.ArrayMultiplier(8), nil, rng),
		alu16:   benchText(circuit.ALU(16), nil, rng),
		adderA:  benchText(circuit.RippleCarryAdder(512), nil, rng),
		adderB:  benchText(circuit.RippleCarryAdderNAND(512), nil, rng),
		counter: counterBench(counterBits, counterTarget, rng),
	}
}

func parseBench(t *tracer, op int64, text string) (*circuit.Circuit, error) {
	sp := t.begin("circuit.ParseBench", 0, op)
	c, _, err := circuit.ParseBench(strings.NewReader(text))
	t.end(sp)
	return c, err
}

func runEDAFlows(cfg *config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}

	loadEDA := func(in edaInputs) func() error {
		return func() error {
			for _, text := range []string{in.mult8, in.alu16, in.adderA, in.adderB} {
				if _, _, err := circuit.ParseBench(strings.NewReader(text)); err != nil {
					return err
				}
			}
			_, err := bmc.FromBench(strings.NewReader(in.counter))
			return err
		}
	}
	tr := newTracer(cfg.trace)
	lats := opLatencies{}
	var traced, untraced, setups []float64
	var layer struct {
		atpgTime, cecTime, bmcTime time.Duration
		faults, satCalls, bySim    int
		bmcCalls                   int
		cecConfl, confl, dec       int64
		mon                        *portfolio.Monitor
		monitored                  time.Duration // cec+bmc call time
		mallocs                    uint64
	}
	// char feeds the workload-character check on every run: a Monitor
	// only collects the PhaseNS the program keeps anyway.
	var char struct {
		phaseNS   int64
		monitored time.Duration
	}
	var lastATPG []*atpg.Report
	var lastCircuits []*circuit.Circuit
	fail := func(what string, wrong bool) {
		fmt.Fprintf(os.Stderr, "perfbench: eda-flows: %s\n", what)
		out.failed++
		if wrong {
			out.wrong++
		}
	}
	cpu0 := selfCPU()
	walls := loop(cfg, func(p int) time.Duration {
		t := tr
		if cfg.trace && p%2 == 0 {
			t = nil
		}
		measure := t != nil && p == 1
		mon := portfolio.NewMonitor()
		if measure {
			layer.mon = mon
		}
		var monitored time.Duration
		var m0 runtime.MemStats
		if measure {
			runtime.ReadMemStats(&m0)
		}
		in := edaSet(cfg.seed, drawOf(cfg, p))
		var err error
		if setups, err = timeLoads(setups, loadEDA(in)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: eda-flows load:", err)
		}
		runtime.GC() // so one pass does not pay for the last one's garbage
		start := time.Now()
		lastATPG, lastCircuits = nil, nil

		// ATPG: a fresh solver per fault on the multiplier; fault
		// simulation plus one incremental solver on the ALU.
		for k, job := range []struct {
			text string
			opts atpg.Options
			want atpgExpect
		}{
			{in.mult8, atpg.Options{}, mult8Expect},
			{in.alu16, atpg.Options{FaultSim: true, Incremental: true}, alu16Expect},
		} {
			op := int64(k + 1)
			t0 := time.Now()
			out.attempted++
			c, err := parseBench(t, op, job.text)
			if err != nil {
				fail(err.Error(), false)
				continue
			}
			sp := t.begin("atpg.GenerateTests", 0, op)
			ta := time.Now()
			r := atpg.GenerateTests(c, job.opts)
			da := time.Since(ta)
			t.end(sp)
			lats.add(k, ms(time.Since(t0)))
			lastATPG, lastCircuits = append(lastATPG, r), append(lastCircuits, c)
			got := atpgExpect{r.Total, r.Detected, r.Redundant}
			if got != job.want || r.Aborted > 0 {
				fail(fmt.Sprintf("atpg op %d: %+v aborted %d, want %+v", op, got, r.Aborted, job.want), true)
			}
			if measure {
				layer.atpgTime += da
				layer.faults += r.Total
				layer.satCalls += r.SATCalls
				layer.bySim += r.BySimulation
				layer.confl += r.Conflicts
				layer.dec += r.Decisions
			}
		}

		// CEC: a wide adder against its NAND-only re-implementation.
		{
			op := int64(3)
			t0 := time.Now()
			out.attempted++
			a, errA := parseBench(t, op, in.adderA)
			b, errB := parseBench(t, op, in.adderB)
			if errA != nil || errB != nil {
				fail("cec parse", false)
			} else {
				sp := t.begin("cec.Check", 0, op)
				tc := time.Now()
				res, err := cec.Check(a, b, cec.Options{Monitor: mon})
				dc := time.Since(tc)
				t.end(sp)
				lats.add(2, ms(time.Since(t0)))
				switch {
				case err != nil || !res.Decided:
					fail(fmt.Sprintf("cec undecided: %v", err), false)
				case !res.Equivalent:
					fail("cec: adders reported not equivalent", true)
				}
				monitored += dc
				if measure && res != nil {
					layer.cecTime += dc
					layer.cecConfl += res.Conflicts
					layer.confl += res.Conflicts
					layer.monitored += dc
				}
			}
		}

		// BMC: a deep counter, one incremental frame per depth.
		{
			op := int64(4)
			t0 := time.Now()
			out.attempted++
			sp := t.begin("bmc.FromBench", 0, op)
			q, err := bmc.FromBench(strings.NewReader(in.counter))
			t.end(sp)
			if err != nil {
				fail(err.Error(), false)
			} else {
				sp = t.begin("bmc.Check", 0, op)
				tb := time.Now()
				res := bmc.Check(q, counterTarget, bmc.Options{Monitor: mon})
				db := time.Since(tb)
				t.end(sp)
				lats.add(3, ms(time.Since(t0)))
				switch {
				case !res.Decided:
					fail("bmc undecided", false)
				case !res.Violated || res.Depth != counterTarget || !bmc.ReplayTrace(q, res.Trace):
					fail(fmt.Sprintf("bmc: violated=%v depth=%d, want depth %d with a replayable trace", res.Violated, res.Depth, counterTarget), true)
				}
				monitored += db
				if measure {
					layer.bmcTime += db
					layer.bmcCalls += res.SATCalls
					layer.confl += res.Conflicts
					layer.monitored += db
				}
			}
		}
		d := time.Since(start)
		snap := mon.Snapshot()
		for _, ns := range snap.PhaseTotals() {
			char.phaseNS += ns
		}
		char.monitored += monitored
		if measure {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			layer.mallocs = m1.Mallocs - m0.Mallocs
		}
		if t != nil {
			traced = append(traced, d.Seconds())
		} else {
			untraced = append(untraced, d.Seconds())
		}
		return d
	})
	cpu := selfCPU() - cpu0
	peakRSS := selfPeakRSSMiB() // before the fault-simulation checks below

	// Untimed: every fault ATPG reports detected must be detected by
	// the reported test set under fault simulation.
	for k, r := range lastATPG {
		if n := simDetected(lastCircuits[k], r); n != r.Detected {
			fmt.Fprintf(os.Stderr, "perfbench: eda-flows: atpg op %d: tests detect %d faults, report says %d\n", k+1, n, r.Detected)
			out.wrong++
		}
	}

	wallS := make([]float64, len(walls))
	for i, w := range walls {
		wallS[i] = w.Seconds()
	}
	m := out.metrics
	m["setup_s"] = median(setups)
	m["wall_s"] = median(wallS)
	per := lats.medians()
	m["latency_p50_ms"] = percentile(per, 0.50)
	m["latency_p95_ms"] = percentile(per, 0.95)
	m["latency_p99_ms"] = percentile(per, 0.99)
	m["goodput_ops_per_s"] = float64(out.attempted-out.failed) / sum(wallS)
	m["max_rate_rps"] = float64(out.attempted) / (lats.total() / 1000)
	m["cpu_ms_per_op"] = ms(cpu) / float64(out.attempted)
	m["peak_rss_mb"] = peakRSS
	fmt.Fprintf(os.Stderr, "perfbench: eda-flows seed %d: %d passes, pass walls %v, per-op median ms %v\n", cfg.seed, len(walls), wallS, per)
	for k, r := range lastATPG {
		fmt.Fprintf(os.Stderr, "perfbench: eda-flows atpg op %d: total %d detected %d redundant %d aborted %d, %d SAT calls, %d by simulation\n",
			k+1, r.Total, r.Detected, r.Redundant, r.Aborted, r.SATCalls, r.BySimulation)
	}

	if cfg.trace {
		byName := tr.durByName()
		snap := layer.mon.Snapshot()
		totals := snap.PhaseTotals()
		ns := make([]int64, solver.PhaseCount)
		phaseSum := int64(0)
		for i, name := range solver.PhaseNames {
			ns[i] = totals[name]
			phaseSum += ns[i]
		}
		phaseMetrics(m, ns)
		m["circuit.parse_ms"] = (sum(byName["circuit.ParseBench"]) + sum(byName["bmc.FromBench"])) / float64(len(traced))
		loadMS, bpv := edaLoadProbe(edaSet(cfg.seed, 0)) // the draw of the measured pass
		m["solver.load_ms"] = loadMS
		m["solver.bytes_per_var"] = bpv
		m["solver.allocs_per_conflict"] = ratio(float64(layer.mallocs), float64(layer.confl))
		// Call time of the monitored engines minus their PhaseNS: the
		// solver's heap, branching and backjump time plus encoding.
		m["solver.decide_ms"] = ms(layer.monitored) - float64(phaseSum)/1e6
		m["solver.conflicts"] = float64(layer.confl)
		m["solver.decisions"] = float64(layer.dec)
		m["solver.conflicts_per_s"] = ratio(float64(layer.confl), (layer.atpgTime + layer.monitored).Seconds())
		m["atpg.ms_per_fault"] = ratio(ms(layer.atpgTime), float64(layer.faults))
		m["atpg.sat_calls"] = float64(layer.satCalls)
		m["atpg.sim_drop_ratio"] = ratio(float64(layer.bySim), float64(layer.faults))
		m["cec.check_ms"] = ms(layer.cecTime)
		m["cec.conflicts"] = float64(layer.cecConfl)
		m["bmc.ms_per_call"] = ratio(ms(layer.bmcTime), float64(layer.bmcCalls))
		m["portfolio.workers_per_job"] = 1
		m["bench.trace_overhead_ratio"] = median(traced)/median(untraced) - 1
		m["bench.decide_load_share"] = ratio(m["solver.decide_ms"]+loadMS, ms(layer.monitored))
		m["bench.search_share"] = ratio(float64(ns[solver.PhasePropagate]+ns[solver.PhaseAnalyze]+ns[solver.PhaseReduce])/1e6, ms(layer.monitored))
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	decide := 1 - ratio(float64(char.phaseNS)/1e6, ms(char.monitored))
	out.checks = append(out.checks, selfCheck{"decide_share", "CEC+BMC call time outside PhaseNS > 0.3 of it (solver-deep: < 0.1)", decide, decide > 0.3})
	m["failed_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	return out, nil
}

// simDetected fault-simulates the report's test set against every fault
// the report lists as detected and counts those some test detects.
func simDetected(c *circuit.Circuit, r *atpg.Report) int {
	var words [][]uint64 // per 64-test block, one word per input
	for b := 0; b < len(r.Tests); b += 64 {
		w := make([]uint64, len(c.Inputs))
		for k := b; k < len(r.Tests) && k < b+64; k++ {
			for i, v := range r.Tests[k] {
				if v == cnf.True {
					w[i] |= 1 << uint(k-b)
				}
			}
		}
		words = append(words, w)
	}
	n := 0
	for _, fr := range r.Results {
		if fr.Status != atpg.Detected {
			continue
		}
		for _, w := range words {
			if atpg.Detects(c, fr.Fault, w) != 0 {
				n++
				break
			}
		}
	}
	return n
}

// edaLoadProbe constructs a solver on the CNF of each combinational
// eda-flows circuit (the CEC miter and both ATPG circuits) and returns
// the construction ms and heap bytes per declared variable.
func edaLoadProbe(in edaInputs) (float64, float64) {
	var ls loadStats
	var cs []*circuit.Circuit
	for _, text := range []string{in.mult8, in.alu16} {
		c, _, err := circuit.ParseBenchString(text)
		if err == nil {
			cs = append(cs, c)
		}
	}
	a, _, errA := circuit.ParseBenchString(in.adderA)
	b, _, errB := circuit.ParseBenchString(in.adderB)
	if errA == nil && errB == nil {
		if m, _, err := cec.BuildMiter(a, b); err == nil {
			cs = append(cs, m)
		}
	}
	for _, c := range cs {
		fromFormula(circuit.Encode(c).F, &ls)
	}
	return ms(ls.load), ratio(float64(ls.bytes), float64(ls.vars))
}
