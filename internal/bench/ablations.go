package bench

import (
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsserver"
	"nfstricks/internal/readahead"
	"nfstricks/internal/testbed"
)

// AblationAging tests the paper's §3 claim that read-ahead heuristics
// matter more on aged file systems: the cursor-vs-default stride gap is
// measured at increasing fragmentation levels (X is the maximum aging
// skip in blocks).
func AblationAging(p Params) (*Result, error) {
	r := &Result{
		ID: "ablate-aging", Title: "Stride (s=4, ide1) throughput vs file-system aging",
		XLabel: "aging-skip", YLabel: "throughput (MB/s)",
		X: []int{0, 128, 512},
	}
	return simSweep(p, r, []simCell{
		{"cursor", "cursor", strideOptions(testbed.IDE)},
		{"default", "default", strideOptions(testbed.IDE)},
	}, func(c simCell, aging int) (testbed.Options, simWork) {
		opts := c.options()
		opts.FS.AgingSkipBlocks = aging
		return opts, simWork{stride: 4}
	})
}

// AblationCursors sweeps the per-file cursor limit against an 8-stride
// reader: the paper's §8 notes that workloads can want "an arbitrary
// number of cursors"; below 8 cursors the 8-stride pattern thrashes the
// cursor set.
func AblationCursors(p Params) (*Result, error) {
	r := &Result{
		ID: "ablate-cursors", Title: "8-stride (ide1) throughput vs cursors per file",
		XLabel: "cursors", YLabel: "throughput (MB/s)",
		X: []int{1, 2, 4, 8, 16},
	}
	r, err := simSweep(p, r, []simCell{{label: "cursor heuristic", opts: strideOptions(testbed.IDE)}},
		func(c simCell, cursors int) (testbed.Options, simWork) {
			opts := c.options()
			opts.Server.Heuristic = &readahead.CursorHeuristic{MaxCursors: cursors}
			return opts, simWork{stride: 8}
		})
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes, "below 8 cursors the 8 sub-streams evict each other (LRU) and read-ahead never builds")
	return r, nil
}

// AblationNfsheur sweeps nfsheur table geometries under 32 concurrent UDP
// readers with the default heuristic — isolating the paper's §6.3
// finding that table capacity, not heuristic accuracy, dominates.
func AblationNfsheur(p Params) (*Result, error) {
	mk := func(table nfsheur.Params) testbed.Options {
		return testbed.Options{Disk: testbed.IDE, Partition: 1, Server: nfsserver.Config{Table: table}}
	}
	return readersSweep(p, "ablate-nfsheur", "Throughput vs nfsheur geometry (UDP, default heuristic)", true, []simCell{
		{"15 slots/1 probe (4.x)", "default", mk(nfsheur.DefaultParams())},
		{"64 slots/4 probes (paper)", "default", mk(nfsheur.ImprovedParams())},
		{"1024 slots/8 probes", "default", mk(nfsheur.LargeParams())},
	})
}

// AblationWindow sweeps the server's maximum read-ahead window with the
// Always heuristic at 8 readers: too little read-ahead leaves the disk
// waiting on round trips; the returns diminish once the window covers
// the pipeline.
func AblationWindow(p Params) (*Result, error) {
	r := &Result{
		ID: "ablate-window", Title: "8-reader UDP throughput vs server read-ahead window",
		XLabel: "window-blocks", YLabel: "throughput (MB/s)",
		X: []int{0, 8, 16, 32, 64},
	}
	cell := simCell{"always heuristic, ide1", "always", strideOptions(testbed.IDE)}
	return simSweep(p, r, []simCell{cell}, func(c simCell, w int) (testbed.Options, simWork) {
		opts := c.options()
		// MaxReadAhead==0 means "default" to the config; emulate a
		// no-read-ahead server with a window of 1 block.
		opts.Server.MaxReadAhead = max(w, 1)
		return opts, simWork{nfs: true, readers: 8}
	})
}
