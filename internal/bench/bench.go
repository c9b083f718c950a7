// Package bench reproduces every table and figure in the paper's
// evaluation: the ZCAV and tagged-queue effects on local reads
// (Figures 1-2), scheduler fairness distributions (Figure 3), NFS over
// UDP and TCP (Figures 4-5), the read-ahead heuristics and nfsheur
// table (Figures 6-7), and the stride/cursor results (Figure 8,
// Table 1) — plus ablations for the design choices DESIGN.md calls out.
//
// Each experiment declares its cells and a measure function; one sweep
// (sweep.go) runs them repeatedly (the paper averages at least ten
// runs), interleaving the cells within each run, discarding a warm-up
// call and profiling on request, on a fresh seeded testbed or live
// server per measurement, and reports mean/stddev per cell.
package bench

import (
	"fmt"
	"strings"

	"nfstricks/internal/stats"
)

// Params controls experiment execution.
type Params struct {
	// Runs is the number of repetitions per cell (default 10, the
	// paper's minimum).
	Runs int
	// Scale divides the paper's file sizes to trade fidelity for time:
	// 1 reproduces the full 256 MB per iteration; tests use 16-64.
	Scale int
	// Seed is the base random seed; run i of a cell uses Seed+i.
	Seed int64
	// ProfileDir, when set, makes every experiment capture a CPU
	// profile of run 0 of each cell at each X, written as
	// <ProfileDir>/<experiment>_<cell>_x<x>.cpu.pprof.
	ProfileDir string
}

func (p *Params) fill() {
	if p.Runs <= 0 {
		p.Runs = 10
	}
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Series is one line on a figure: a label and a sample per X value.
// Samples retain their raw per-run values (stats.Sample.Values), so a
// saved artifact can be re-tested against another run with rank
// statistics — the compare verb needs the runs, not just their summary.
type Series struct {
	Label   string
	Samples []stats.Sample
	// Better declares which direction is an improvement for this
	// series: "higher" (throughput-like, the default) or "lower"
	// (latency-like). compare falls back to a label heuristic when the
	// field is absent (artifacts written before it existed).
	Better string `json:",omitempty"`
}

// BetterLower and BetterHigher are the Series.Better values.
const (
	BetterLower  = "lower"
	BetterHigher = "higher"
)

// LowerIsBetter reports whether a decrease in this series is an
// improvement, trusting the explicit Better field and falling back to
// recognizing latency-flavored labels for artifacts that predate it.
func (s *Series) LowerIsBetter() bool {
	switch s.Better {
	case BetterLower:
		return true
	case BetterHigher:
		return false
	}
	label := strings.ToLower(s.Label)
	for _, tok := range []string{"latency", "p50", "p99", "time", "allocs", "kb/op", "b/op", "error", "flushes"} {
		if strings.Contains(label, tok) {
			return true
		}
	}
	return false
}

// Result is a reproduced table or figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []int
	Series []Series
	Notes  []string
}

// Format renders the result as an aligned text table, one row per X
// value and one column per series — the same rows/lines the paper
// plots. Each cell prints the median first (the statistic compare
// actually tests) and then mean (stddev), so the table and the gate
// read the same number.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "%s (y = %s, median then mean (stddev) over runs)\n", r.XLabel, r.YLabel)

	w := 28
	fmt.Fprintf(&b, "%-8s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%*s", w, s.Label)
	}
	b.WriteByte('\n')
	for i, x := range r.X {
		fmt.Fprintf(&b, "%-8d", x)
		for _, s := range r.Series {
			if i < len(s.Samples) {
				sm := s.Samples[i]
				fmt.Fprintf(&b, "%*s", w,
					fmt.Sprintf("%.2f  %s", sm.Median, sm.String()))
			} else {
				fmt.Fprintf(&b, "%*s", w, "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the result as comma-separated values with a header row.
func (r *Result) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", r.XLabel)
	for _, s := range r.Series {
		label := strings.ReplaceAll(s.Label, ",", ";")
		fmt.Fprintf(&b, ",%s mean,%s stddev,%s median", label, label, label)
	}
	b.WriteByte('\n')
	for i, x := range r.X {
		fmt.Fprintf(&b, "%d", x)
		for _, s := range r.Series {
			if i < len(s.Samples) {
				sm := s.Samples[i]
				fmt.Fprintf(&b, ",%.4f,%.4f,%.4f", sm.Mean, sm.StdDev, sm.Median)
			} else {
				fmt.Fprintf(&b, ",,,")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SeriesByLabel finds a series by its label.
func (r *Result) SeriesByLabel(label string) (*Series, bool) {
	for i := range r.Series {
		if r.Series[i].Label == label {
			return &r.Series[i], true
		}
	}
	return nil, false
}

// Experiment is a named, runnable reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) (*Result, error)
}

// Experiments returns the registry of all reproductions, in paper
// order followed by ablations.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "The ZCAV effect on local drives", Fig1},
		{"fig2", "Tagged queues and ZCAV - local SCSI drive", Fig2},
		{"fig3", "Scheduler fairness: time to complete k of 8 processes", Fig3},
		{"fig4", "NFS over UDP throughput", Fig4},
		{"fig5", "NFS over TCP throughput", Fig5},
		{"fig6", "Read-ahead heuristics, idle vs busy client (ide1/UDP)", Fig6},
		{"fig7", "SlowDown and the new nfsheur table (ide1/UDP, busy client)", Fig7},
		{"fig8", "Stride reader throughput: cursor vs default", Fig8},
		{"table1", "Stride reader throughput table (mean/stddev)", Table1},
		{"ablate-aging", "Ablation: file-system aging vs heuristic gains", AblationAging},
		{"ablate-cursors", "Ablation: cursors per file vs stride throughput", AblationCursors},
		{"ablate-nfsheur", "Ablation: nfsheur table size vs concurrent readers", AblationNfsheur},
		{"ablate-window", "Ablation: server read-ahead window size", AblationWindow},
		{"live-scale", "Live server saturation: nfsheur sharding vs concurrent clients", LiveScale},
		{"alloc-profile", "Allocator traffic per live RPC: allocs/op and B/op by transfer size", AllocProfile},
		{"trace-replay", "Trace capture & replay: achieved load vs replay schedule", TraceReplay},
		{"write-path", "Asynchronous write pipeline: gather window vs synchronous writes", WritePath},
		{"zcav-live", "Live ZCAV trap: zone placement x cache size over real RPC", ZCAVLive},
		{"metadata-path", "Metadata path: create/stat/rename/readdir over live TCP", MetadataPath},
		{"fault-path", "Fault-tolerant RPC path: loss x transport x DRC over live sockets", FaultPath},
		{"cluster-scale", "Scale-out: sharded nfsd cluster vs amplified open-loop replay", ClusterScale},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
