// Command perfbench is the repository benchmark. It runs one seeded
// workload against the program's public surface — the library
// packages for solver-deep and eda-flows, a satserved child process for
// serve-heavy — checks every answer, and prints one
// JSON line with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). See README.md for the metric map.
//
// Usage:
//
//	perfbench -workload solver-deep -seed 1 -seconds 20 -trace 0 [-satserved path] [-work dir]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json
// order. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"goodput_ops_per_s", "ops/s"},
	{"max_rate_rps", "req/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports. A layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"failed_ratio", "ratio"},
	{"cnf.parse_ms", "ms"},
	{"cnf.fingerprint_ms", "ms"},
	{"circuit.parse_ms", "ms"},
	{"solver.load_ms", "ms"},
	{"solver.propagate_ms", "ms"},
	{"solver.analyze_ms", "ms"},
	{"solver.reduce_ms", "ms"},
	{"solver.inprocess_ms", "ms"},
	{"solver.gc_ms", "ms"},
	{"solver.decide_ms", "ms"},
	{"solver.props_per_s", "1/s"},
	{"solver.conflicts_per_s", "1/s"},
	{"solver.bytes_per_var", "B"},
	{"solver.allocs_per_conflict", "count"},
	{"solver.conflicts", "count"},
	{"solver.decisions", "count"},
	{"solver.learnt_deleted_ratio", "ratio"},
	{"atpg.ms_per_fault", "ms"},
	{"atpg.sat_calls", "count"},
	{"atpg.sim_drop_ratio", "ratio"},
	{"cec.check_ms", "ms"},
	{"cec.conflicts", "count"},
	{"bmc.ms_per_call", "ms"},
	{"portfolio.workers_per_job", "count"},
	{"portfolio.cpu_per_solve", "ratio"},
	{"serve.queue_ms", "ms"},
	{"serve.queue_ms.p95", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.solve_ms.p95", "ms"},
	{"serve.certify_ms", "ms"},
	{"serve.certify_ms.p95", "ms"},
	{"serve.parse_ms", "ms"},
	{"serve.parse_ms.p95", "ms"},
	{"serve.admit_ms", "ms"},
	{"serve.persist_ms", "ms"},
	{"serve.persist_ms.p95", "ms"},
	{"serve.respond_ms", "ms"},
	{"serve.respond_ms.p95", "ms"},
	{"serve.coalesce_wait_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.http_ms.p95", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.shed_ratio", "ratio"},
	{"session.query_ms", "ms"},
	{"session.query_ms.p95", "ms"},
	{"session.revivals", "count"},
	{"session.checkpoint_bytes", "B"},
	{"store.replay_ms", "ms"},
	{"store.wal_bytes_per_op", "B"},
	{"store.compactions", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.search_share", "ratio"},
	{"bench.decide_load_share", "ratio"},
	{"bench.solve_share_p95", "ratio"},
	{"bench.repeat_share", "ratio"},
	{"bench.generator_late_ms", "ms"},
}

// config is what every workload receives.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	satserved string // path of the satserved binary (serve-heavy only)
	work      string // scratch directory inside the checkout
}

// outcome is what a workload returns.
type outcome struct {
	attempted, failed int64
	wrong             int64 // answers that failed their check
	metrics           map[string]float64
	checks            []selfCheck
}

// selfCheck is one workload-character check, printed on every run.
type selfCheck struct {
	name, rule string
	value      float64
	ok         bool
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(*config) (*outcome, error){
	"solver-deep": runSolverDeep,
	"eda-flows":   runEDAFlows,
	"serve-heavy": runServeHeavy,
}

func main() {
	cfg := &config{}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "solver-deep | eda-flows | serve-heavy")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.satserved, "satserved", "", "satserved binary (serve-heavy)")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for stores and traces")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, c := range out.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "NOT MET"
		}
		fmt.Fprintf(os.Stderr, "perfbench: character %s = %.4g (%s): %s\n", c.name, c.value, c.rule, verdict)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultLine{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", cfg.workload, d.name)
			os.Exit(1)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between order statistics; xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMiB is this process's high-water resident set size.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func tracePath(cfg *config) string {
	return filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
}
