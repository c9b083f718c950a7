// Command nfsbench reproduces the tables and figures of "NFS Tricks and
// Benchmarking Traps" (Ellard & Seltzer, FREENIX 2003) on the simulated
// testbed.
//
// Usage:
//
//	nfsbench -exp fig1            # one experiment at full scale
//	nfsbench -exp all -scale 4    # everything, 64 MB per iteration
//	nfsbench -list                # show available experiments
//	nfsbench -exp table1 -csv out.csv
//	nfsbench -exp live-scale      # real-socket saturation: clients vs nfsheur shards
//	nfsbench -exp alloc-profile   # allocator cost per live RPC (B/op, allocs/op)
//	nfsbench -exp trace-replay    # capture a live run, replay it at several schedules
//	nfsbench -exp trace-replay -json BENCH.json
//	nfsbench compare -gate OLD.json NEW.json   # flag regressions beyond run-to-run noise
//	nfsbench compare -exp fig1 -bin-a ./old-nfsbench -bin-b ./new-nfsbench
//
// Scale divides the paper's file sizes (scale 1 = the full 256 MB per
// reader-count iteration); runs is the repetition count per cell.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nfstricks/internal/bench"
)

// printExperiments writes the experiment table, one "id  title" row
// per registered experiment plus the "all" pseudo-id.
func printExperiments(w io.Writer) {
	for _, e := range bench.Experiments() {
		fmt.Fprintf(w, "  %-16s %s\n", e.ID, e.Title)
	}
	fmt.Fprintf(w, "  %-16s %s\n", "all", "run every experiment")
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	var (
		exp     = flag.String("exp", "", "experiment id (or 'all')")
		list    = flag.Bool("list", false, "list experiments and exit")
		runs    = flag.Int("runs", 10, "runs per cell")
		scale   = flag.Int("scale", 1, "divide the paper's file sizes by this factor")
		seed    = flag.Int64("seed", 1, "base random seed")
		csv     = flag.String("csv", "", "also write results as CSV to this file")
		jsonOut = flag.String("json", "", "also write results as JSON to this file")
		verify  = flag.Bool("verify", false, "check the paper's shape claims against the results")
		profile = flag.String("profile", "", "write pprof profiles into this directory: one CPU profile per experiment cell and X (run 0), one heap profile per experiment")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		printExperiments(os.Stdout)
		if *exp == "" {
			os.Exit(2)
		}
		return
	}

	params := bench.Params{Runs: *runs, Scale: *scale, Seed: *seed}
	if *profile != "" {
		if err := os.MkdirAll(*profile, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "nfsbench: %v\n", err)
			os.Exit(1)
		}
		params.ProfileDir = *profile
	}
	var todo []bench.Experiment
	if *exp == "all" {
		todo = bench.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "nfsbench: unknown experiment %q\n", id)
				fmt.Fprintln(os.Stderr, "available experiments:")
				printExperiments(os.Stderr)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	var csvOut strings.Builder
	var results []*bench.Result
	for _, e := range todo {
		start := time.Now()
		r, err := e.Run(params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfsbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n(%s in %.1fs, runs=%d scale=%d)\n\n",
			r.Format(), e.ID, time.Since(start).Seconds(), params.Runs, params.Scale)
		if *verify {
			if checks := bench.Verify(r); len(checks) > 0 {
				fmt.Printf("shape checks for %s:\n%s\n", r.ID, bench.FormatChecks(checks))
				for _, c := range checks {
					if !c.OK {
						defer os.Exit(1)
					}
				}
			}
		}
		if *csv != "" {
			csvOut.WriteString("# " + r.ID + "\n")
			csvOut.WriteString(r.CSV())
		}
		if *profile != "" {
			writeHeapProfile(*profile, e.ID)
		}
		results = append(results, r)
	}
	if *csv != "" {
		if err := os.WriteFile(*csv, []byte(csvOut.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "nfsbench: writing %s: %v\n", *csv, err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		ids := make([]string, len(todo))
		for i, e := range todo {
			ids[i] = e.ID
		}
		artifact := bench.Artifact{Meta: bench.CollectMeta(params, ids), Results: results}
		blob, err := json.MarshalIndent(artifact, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfsbench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
	}
}

// writeHeapProfile snapshots the heap after one experiment finishes;
// profiling is best-effort and never fails the run.
func writeHeapProfile(dir, expID string) {
	f, err := os.Create(filepath.Join(dir, expID+".heap.pprof"))
	if err != nil {
		return
	}
	defer f.Close()
	runtime.GC() // get up-to-date allocation statistics
	pprof.WriteHeapProfile(f)
}
