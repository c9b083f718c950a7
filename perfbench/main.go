// Command perfbench is the repository's steady benchmark: one named
// workload per invocation, end-to-end metrics from an untraced run or
// per-layer metrics from a traced one, and correctness checks that
// compare the program's outputs against values computed apart from it.
//
//	perfbench --workload read-seq --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// Lines before it name the workload's figures (read_mb_s, meta_p50_us,
// sim_wall_s, ...) and each check's verdict. Live workloads run the
// nfsd service in-process over loopback TCP; sim-busy-client runs the
// simulated testbed. See README.md for the layer map and the inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors setup_s: package initialisation runs before
// main, so this is as close to the process's start as Go code gets.
var processStart = time.Now()

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// processes is how many fresh processes an untraced run splits its
// measured time over; the reference figures and bounds in README.md and
// BENCHMARK.json are medians over this many.
const processes = 8

// childEnv marks a process that runProcesses started: it measures once
// and reports its own figures instead of starting processes of its own.
const childEnv = "PERFBENCH_CHILD"

// metric is one named value in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one correctness verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

func pass(name string, ok bool, format string, args ...any) check {
	return check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)}
}

// phase is what one measured interval of a workload produced.
type phase struct {
	// ops counts the workload's primary operations (READs, committed
	// WRITEs, namespace RPCs, simulated block reads).
	ops int64
	// attempted and failed count every operation the phase issued.
	attempted, failed int64
	elapsed           time.Duration
	// lat holds one latency sample (µs) per primary latency unit.
	lat []float64
	// rates holds the throughput (ops/s) of each round of the phase;
	// ops_s is their median, so a burst of noise from elsewhere on the
	// host moves a few rounds, not the figure.
	rates []float64
	// figures are the workload's named end-to-end figures.
	figures []figure
}

// figure is a named end-to-end figure printed before the result line.
type figure struct {
	name  string
	value float64
	unit  string
}

func (p *phase) opsPerSec() float64 {
	return quantile(p.rates, 0.5)
}

// scenario is one benchmark workload. setup builds the inputs, starts
// what it needs and warms up; measure runs the load for d; layers
// snapshots the per-layer counters (traced runs diff two snapshots);
// finish runs the end-of-run checks and releases everything.
type scenario interface {
	setup(cfg config, tr *tracer) error
	measure(d time.Duration) (phase, error)
	layers() map[string]float64
	finish() []check
}

// workloads maps each name to its scenario and the number of Ps it
// runs on. read-seq drives two connections, one per CPU. The others
// are one closed loop: on a 2-vCPU virtual machine, a loop whose client
// and server goroutines hop between CPUs pays a cross-CPU wakeup on
// every call, and that cost swung metadata's window p50 between 30 and
// 43 µs within one run; on one P the same loop held within ±5%.
var workloads = map[string]struct {
	mk    func() scenario
	procs int
}{
	"read-seq":        {func() scenario { return &readSeq{} }, 2},
	"write-commit":    {func() scenario { return &writeCommit{} }, 1},
	"metadata":        {func() scenario { return &metadata{} }, 1},
	"sim-busy-client": {func() scenario { return &simBusy{} }, 1},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: read-seq, write-commit, metadata, sim-busy-client")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_out", "directory for span dumps and CPU profiles")
	flag.Parse()
	cfg.trace = trace == 1

	wl, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(wl.procs)
	var res *result
	var err error
	if !cfg.trace && os.Getenv(childEnv) == "" {
		res, err = runProcesses(cfg)
	} else {
		res, err = run(cfg, wl.mk())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one invocation: setup, then either one untraced measured
// interval or an untraced and a traced half, then the checks.
func run(cfg config, w scenario) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := w.setup(cfg, tr); err != nil {
		return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
	}
	setup := time.Since(processStart)
	d := time.Duration(cfg.seconds * float64(time.Second))

	res := &result{Metrics: map[string]metric{}}
	var measured []phase
	if !cfg.trace {
		p, err := w.measure(d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		measured = append(measured, p)
		values := map[string]float64{
			"setup_s":     setup.Seconds(),
			"peak_rss_mb": peakRSSMB(),
			"ops_s":       p.opsPerSec(),
			"op_p50_us":   quantile(p.lat, 0.5),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		printFigures(cfg.workload, p)
	} else {
		layers, a, b, err := traced(cfg, w, tr, d)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", cfg.workload, err)
		}
		measured = append(measured, a, b)
		layers["trace.setup_s"] = setup.Seconds()
		layers["trace.peak_rss_mb"] = peakRSSMB()
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		printFigures(cfg.workload+" (untraced half)", a)
		printFigures(cfg.workload+" (traced half)", b)
	}
	for _, p := range measured {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	checks := w.finish()
	res.Correct = true
	for _, c := range checks {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
			res.Correct = false
		}
		fmt.Printf("check [%s] %s: %s\n", verdict, c.name, c.detail)
	}
	return res, nil
}

// traced runs the load twice for d/2: first with the tracer installed
// but idle (the reference the overhead is stated against), then with
// spans recorded and the CPU profiled. Per-layer metrics come from the
// second half's spans, counter deltas and profile.
func traced(cfg config, w scenario, tr *tracer, d time.Duration) (map[string]float64, phase, phase, error) {
	half := d / 2
	a, err := w.measure(half)
	if err != nil {
		return nil, a, phase{}, err
	}
	before := w.layers()
	rt0 := readRuntime()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, a, phase{}, err
	}
	prof, err := startProfile(filepath.Join(cfg.outDir, cfg.workload+".cpu.pprof"))
	if err != nil {
		return nil, a, phase{}, err
	}
	tr.start()
	b, err := w.measure(half)
	tr.stop()
	cpu, perr := prof.stop()
	if err != nil {
		return nil, a, b, err
	}
	if perr != nil {
		return nil, a, b, perr
	}
	rt1 := readRuntime()
	after := w.layers()

	layers := map[string]float64{}
	for k, v := range after {
		if isGauge(k) {
			layers[k] = v
		} else {
			layers[k] = v - before[k]
		}
	}
	if c := layers["wgather.commits"]; c > 0 {
		layers["wgather.flushes_per_commit"] = layers["wgather.flushes"] / c
	}
	if b.ops > 0 {
		layers["runtime.alloc_bytes_per_op"] = float64(rt1.allocBytes-rt0.allocBytes) / float64(b.ops)
		layers["runtime.allocs_per_op"] = float64(rt1.allocs-rt0.allocs) / float64(b.ops)
	}
	if cpuSec := rt1.cpuTotal - rt0.cpuTotal; cpuSec > 0 {
		layers["runtime.gc_cpu_share"] = (rt1.cpuGC - rt0.cpuGC) / cpuSec
	}
	for pkg, share := range cpu {
		layers["cpu."+pkg] = share
	}
	tr.aggregate(layers)
	if a.opsPerSec() > 0 {
		layers["trace.overhead_ops_s_pct"] = 100 * (b.opsPerSec() - a.opsPerSec()) / a.opsPerSec()
	}
	if pa := quantile(a.lat, 0.5); pa > 0 {
		layers["trace.overhead_op_p50_pct"] = 100 * (quantile(b.lat, 0.5) - pa) / pa
	}
	if n := len(tr.recorded()); n > 0 {
		path := filepath.Join(cfg.outDir, cfg.workload+".spans.csv.gz")
		if err := tr.dump(path); err != nil {
			return nil, a, b, err
		}
		fmt.Printf("spans: %d written to %s (%d dropped)\n", n, path, tr.dropped.Load())
	}
	return layers, a, b, nil
}

// runProcesses runs an untraced measurement as processes fresh
// processes in turn, each setting up from cold and measuring for its
// share of the time, and reports each end-to-end metric's median over
// them. On this host a process's speed is fixed for its life but
// differs from process to process: the same simulated grid took 478 to
// 675 ms a pass in six processes in a row, and within each process
// held within ±3%. One process per run would carry that draw whole.
func runProcesses(cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	share := strconv.FormatFloat(cfg.seconds/processes, 'g', -1, 64)
	agg := &result{Correct: true, Metrics: map[string]metric{}}
	values := map[string][]float64{}
	for i := 0; i < processes; i++ {
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", share, "--trace", "0", "--out", cfg.outDir)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("process %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Printf("[process %d] %s\n", i, l)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("process %d result: %w", i, err)
		}
		agg.Correct = agg.Correct && r.Correct
		agg.Attempted += r.Attempted
		agg.Failed += r.Failed
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	for _, m := range endToEnd {
		agg.Metrics[m.name] = metric{quantile(values[m.name], 0.5), m.unit}
	}
	return agg, nil
}

// printFigures prints the workload's named figures, one per line.
func printFigures(label string, p phase) {
	fmt.Printf("%s: %d ops in %.3fs, %d attempted, %d failed, %d latency samples\n",
		label, p.ops, p.elapsed.Seconds(), p.attempted, p.failed, len(p.lat))
	figs := append([]figure(nil), p.figures...)
	sort.SliceStable(figs, func(i, j int) bool { return figs[i].name < figs[j].name })
	for _, f := range figs {
		fmt.Printf("  %-22s %14.4f %s\n", f.name, f.value, f.unit)
	}
}
