package bench

import (
	"sort"

	"nfstricks/internal/nfsclient"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsserver"
	"nfstricks/internal/readahead"
	"nfstricks/internal/testbed"
	"nfstricks/internal/workload"
)

// heuristicByName builds a fresh heuristic (cursor heuristics carry
// state and must not be shared between testbeds).
func heuristicByName(name string) readahead.Heuristic {
	switch name {
	case "always":
		return readahead.Always{}
	case "slowdown":
		return readahead.SlowDown{}
	case "cursor":
		return &readahead.CursorHeuristic{}
	default:
		return readahead.Default{}
	}
}

// readersSweep is the reader-count sweep of Figures 1-2 and 4-7: every
// cell's throughput for n concurrent readers, locally or over NFS.
func readersSweep(p Params, id, title string, nfs bool, cells []simCell) (*Result, error) {
	r := &Result{
		ID: id, Title: title,
		XLabel: "readers", YLabel: "throughput (MB/s)",
		X: workload.ReaderCounts,
	}
	return simSweep(p, r, cells, func(c simCell, n int) (testbed.Options, simWork) {
		return c.options(), simWork{nfs: nfs, readers: n}
	})
}

// Fig1 reproduces Figure 1: the ZCAV effect. The same local benchmark
// on the outermost (1) and innermost (4) quarter partitions of both
// drives; outer partitions transfer faster.
func Fig1(p Params) (*Result, error) {
	return readersSweep(p, "fig1", "The ZCAV Effect on Local Drives", false, []simCell{
		{label: "ide1", opts: testbed.Options{Disk: testbed.IDE, Partition: 1}},
		{label: "ide4", opts: testbed.Options{Disk: testbed.IDE, Partition: 4}},
		{label: "scsi1", opts: testbed.Options{Disk: testbed.SCSI, Partition: 1}},
		{label: "scsi4", opts: testbed.Options{Disk: testbed.SCSI, Partition: 4}},
	})
}

// Fig2 reproduces Figure 2: tagged command queues on the SCSI drive.
// Disabling TCQ hands scheduling back to the host elevator, which
// serves long sequential runs and wins for this workload.
func Fig2(p Params) (*Result, error) {
	return readersSweep(p, "fig2", "Tagged Queues and ZCAV - Local SCSI Drive", false, []simCell{
		{label: "scsi1/no tags", opts: testbed.Options{Disk: testbed.SCSI, Partition: 1, DisableTCQ: true}},
		{label: "scsi4/no tags", opts: testbed.Options{Disk: testbed.SCSI, Partition: 4, DisableTCQ: true}},
		{label: "scsi1/tags", opts: testbed.Options{Disk: testbed.SCSI, Partition: 1}},
		{label: "scsi4/tags", opts: testbed.Options{Disk: testbed.SCSI, Partition: 4}},
	})
}

// Fig3 reproduces Figure 3: the completion-time distribution of eight
// concurrent readers of 32 MB files under the Elevator and N-CSCAN
// schedulers, with and without tagged queues. X is "processes
// completed" (1..8); Y is the mean time by which k processes finished.
func Fig3(p Params) (*Result, error) {
	p.fill()
	cells := []simCell{
		{label: "scsi1/elev/no tags", opts: testbed.Options{Disk: testbed.SCSI, Scheduler: "elevator", DisableTCQ: true}},
		{label: "ide1/elev", opts: testbed.Options{Disk: testbed.IDE, Scheduler: "elevator"}},
		{label: "scsi1/elev/tags", opts: testbed.Options{Disk: testbed.SCSI, Scheduler: "elevator"}},
		{label: "scsi1/ncscan/tags", opts: testbed.Options{Disk: testbed.SCSI, Scheduler: "ncscan"}},
		{label: "scsi1/ncscan/no tags", opts: testbed.Options{Disk: testbed.SCSI, Scheduler: "ncscan", DisableTCQ: true}},
		{label: "ide1/ncscan", opts: testbed.Options{Disk: testbed.IDE, Scheduler: "ncscan"}},
	}
	const readers = 8
	r := &Result{
		ID: "fig3", Title: "Scheduler fairness: 8 concurrent 32 MB readers",
		XLabel: "completed", YLabel: "time to completion (s)",
		X: []int{1, 2, 3, 4, 5, 6, 7, 8},
	}
	g := newGrid(r)
	for _, c := range cells {
		g.series(BetterLower, c.label) // completion time
	}
	// One run yields every X: the k-th fastest reader's finish time.
	err := sweep(p, g, []int{readers}, cells, simCell.name, func(c simCell, pt point) error {
		res, err := simRun(c.opts, pt.run, p, simWork{readers: readers})
		if err != nil {
			return err
		}
		times := make([]float64, len(res.PerReader))
		for i, d := range res.PerReader {
			times[i] = d.Seconds()
		}
		sort.Float64s(times)
		for k, t := range times {
			pt.putAt(c.label, k, t)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"elevator: staircase distribution (last reader ~6-7x the first); ncscan: flat but slow")
	return g.result(), nil
}

// Fig4 reproduces Figure 4: NFS over UDP with the stock server (default
// heuristic, FreeBSD 4.x nfsheur table), on all four partitions, plus
// the no-tagged-queue SCSI variant.
func Fig4(p Params) (*Result, error) {
	r, err := readersSweep(p, "fig4", "NFS over UDP", true, []simCell{
		{label: "ide1", opts: testbed.Options{Disk: testbed.IDE, Partition: 1}},
		{label: "ide4", opts: testbed.Options{Disk: testbed.IDE, Partition: 4}},
		{label: "scsi1", opts: testbed.Options{Disk: testbed.SCSI, Partition: 1}},
		{label: "scsi4", opts: testbed.Options{Disk: testbed.SCSI, Partition: 4}},
		{label: "scsi1/no tags", opts: testbed.Options{Disk: testbed.SCSI, Partition: 1, DisableTCQ: true}},
	})
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes, "ide1/no tags equals ide1: the IDE drive has no tagged queue")
	return r, nil
}

// Fig5 reproduces Figure 5: the same sweep over TCP. Throughput is
// flatter across reader counts but starts lower than UDP.
func Fig5(p Params) (*Result, error) {
	tcp := nfsclient.Config{UseTCP: true}
	return readersSweep(p, "fig5", "NFS over TCP", true, []simCell{
		{label: "ide1", opts: testbed.Options{Disk: testbed.IDE, Partition: 1, Client: tcp}},
		{label: "ide4", opts: testbed.Options{Disk: testbed.IDE, Partition: 4, Client: tcp}},
		{label: "scsi1", opts: testbed.Options{Disk: testbed.SCSI, Partition: 1, Client: tcp}},
		{label: "scsi4", opts: testbed.Options{Disk: testbed.SCSI, Partition: 4, Client: tcp}},
		{label: "scsi1/no tags", opts: testbed.Options{Disk: testbed.SCSI, Partition: 1, Client: tcp, DisableTCQ: true}},
	})
}

// Fig6 reproduces Figure 6: the potential of read-ahead. Default vs
// hard-wired Always Read-ahead on ide1 over UDP, with an idle client
// and with a client running four infinite-loop processes.
func Fig6(p Params) (*Result, error) {
	idle := testbed.Options{Disk: testbed.IDE, Partition: 1}
	busy := testbed.Options{Disk: testbed.IDE, Partition: 1, BusyProcs: 4}
	return readersSweep(p, "fig6", "ide1 via NFS over UDP: idle vs busy client", true, []simCell{
		{"idle/always", "always", idle},
		{"idle/default", "default", idle},
		{"busy/always", "always", busy},
		{"busy/default", "default", busy},
	})
}

// Fig7 reproduces Figure 7: SlowDown and the enlarged nfsheur table on
// the busy client. With the new table, both SlowDown and the default
// heuristic match Always Read-ahead; with the 4.x table, state is
// ejected and read-ahead collapses as readers grow.
func Fig7(p Params) (*Result, error) {
	mk := func(table nfsheur.Params) testbed.Options {
		return testbed.Options{
			Disk: testbed.IDE, Partition: 1, BusyProcs: 4,
			Server: nfsserver.Config{Table: table},
		}
	}
	return readersSweep(p, "fig7", "ide1 via NFS over UDP, busy client: heuristics and nfsheur", true, []simCell{
		{"always", "always", mk(nfsheur.ImprovedParams())},
		{"slowdown/new nfsheur", "slowdown", mk(nfsheur.ImprovedParams())},
		{"default/new nfsheur", "default", mk(nfsheur.ImprovedParams())},
		{"default/default nfsheur", "default", mk(nfsheur.DefaultParams())},
	})
}

// strideOptions is the stride experiments' testbed: the disk's outer
// partition served with the paper's enlarged nfsheur table.
func strideOptions(disk testbed.DiskKind) testbed.Options {
	return testbed.Options{Disk: disk, Partition: 1,
		Server: nfsserver.Config{Table: nfsheur.ImprovedParams()}}
}

// Fig8 reproduces Figure 8: throughput reading a 256 MB file in 2, 4,
// and 8-stride patterns with the cursor heuristic vs the default.
func Fig8(p Params) (*Result, error) {
	return strideSweep(p, "fig8", "Throughput for Stride Readers using UDP")
}

// Table1 reproduces Table 1: the same cells as Figure 8 presented as
// mean (stddev) throughput, ten reads of a single 256 MB file.
func Table1(p Params) (*Result, error) {
	r, err := strideSweep(p, "table1", "Mean throughput (MB/s) of stride reads of a 256 MB file")
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"paper (ide1): default 7.66/7.83/5.26, cursor 11.49/14.15/12.66",
		"paper (scsi1): default 9.49/8.52/8.21, cursor 15.39/15.38/14.12")
	return r, nil
}

// strideSweep is Figure 8 and Table 1: one stride reader with the
// cursor heuristic vs the default on both drives.
func strideSweep(p Params, id, title string) (*Result, error) {
	r := &Result{
		ID: id, Title: title,
		XLabel: "strides", YLabel: "throughput (MB/s)",
		X: []int{2, 4, 8},
	}
	return simSweep(p, r, []simCell{
		{"scsi1/cursor", "cursor", strideOptions(testbed.SCSI)},
		{"ide1/cursor", "cursor", strideOptions(testbed.IDE)},
		{"scsi1/default", "default", strideOptions(testbed.SCSI)},
		{"ide1/default", "default", strideOptions(testbed.IDE)},
	}, func(c simCell, s int) (testbed.Options, simWork) {
		return c.options(), simWork{stride: s}
	})
}
