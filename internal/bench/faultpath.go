package bench

import (
	"errors"
	"fmt"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/stats"
	"nfstricks/internal/vfs"
)

// faultLossPcts is the injected loss sweep, in percent of messages per
// wire direction.
var faultLossPcts = []int{0, 1, 5}

// faultTCPStall is the injected mid-record stall standing in for "loss"
// on TCP: the kernel retransmits lost segments itself, so at the RPC
// layer a lossy TCP path shows up as records arriving late (and, past
// the client's RTO, as retransmitted calls into the DRC), not as
// records vanishing.
const faultTCPStall = 30 * time.Millisecond

// faultFileBytes keeps created files small: this experiment measures
// the fault path, not data transfer.
const faultFileBytes = 64

// faultRetryPolicy is the client policy every cell runs: aggressive
// enough that a loopback retransmission costs tens of milliseconds,
// bounded enough that a cell cannot hang.
func faultRetryPolicy(run int, p Params) rpcnet.RetryPolicy {
	return rpcnet.RetryPolicy{
		MaxTransmits: 8,
		InitialRTO:   60 * time.Millisecond,
		MinRTO:       20 * time.Millisecond,
		MaxRTO:       time.Second,
		Jitter:       0.2,
		Seed:         p.Seed + int64(run),
	}
}

// faultCellResult is one cell's measurements and integrity counters.
type faultCellResult struct {
	goodput float64 // completed triplet ops per second
	p99ms   float64 // per-op p99 latency, milliseconds
	// spurious counts NOENT/EXIST errors the client observed on
	// operations that should have succeeded — the DRC-off wrong answers.
	spurious int
	// dupExec counts executions beyond one per issued non-idempotent
	// call (ProcCounts measures executed procedures; cache hits and
	// busy-drops don't execute).
	dupExec int
	// leftover counts entries the triplets left in their directory —
	// duplicated side effects (see leftoverEntries).
	leftover int

	faultsIn, faultsOut rpcnet.FaultStats
	retry               rpcnet.RetryStats
	rtoMS               float64 // final smoothed RTO (gauge), milliseconds
	drcHits, drcBusy    int64
}

// faultCell runs the create/rename/remove workload against a fresh
// live server with the given injected loss and DRC setting.
func faultCell(network string, lossPct int, drcOn bool, triplets, run int, p Params) (faultCellResult, error) {
	var r faultCellResult
	var inj *rpcnet.FaultInjector
	if lossPct > 0 {
		cfg := rpcnet.FaultConfig{Seed: p.Seed + int64(run)}
		if network == "udp" {
			cfg.DropProb = float64(lossPct) / 100
		} else {
			cfg.StallProb = float64(lossPct) / 100
			cfg.Stall = faultTCPStall
		}
		inj = rpcnet.NewFaultInjector(cfg)
	}
	dial := func(addr string) (*memfs.Client, error) {
		return memfs.DialClientRetry(network, addr, faultRetryPolicy(run, p), nil)
	}
	cfg := nfsd.Config{DRC: nfsd.DRCConfig{Enabled: drcOn}}
	err := withLive(memfs.NewFS(), cfg, rpcnet.ServerOptions{Faults: inj}, dial, func(l *live) error {
		c, svc := l.c, l.svc
		// The retrier's counters go through the metrics registry and are
		// read back from a snapshot at the end of the cell — the cell
		// consumes the same rpcnet_retry_* series a production /metrics
		// scrape would see, so the export path is exercised on every
		// fault-path run.
		reg := obs.NewRegistry()
		c.Retrier().RegisterObs(reg)

		dir, err := c.Mkdir(vfs.RootFH, "d")
		if err != nil {
			return fmt.Errorf("mkdir: %w", err)
		}
		// The triplet loop: each iteration creates, renames and removes
		// one file. Every operation should succeed — on a perfect network
		// and, with the DRC shielding retransmissions, on a lossy one too.
		// A NOENT or EXIST here is a duplicated execution's wrong answer
		// (the retransmission re-ran against post-execution state),
		// counted, not fatal: with the DRC off it is the pinned failure
		// under test.
		lats := make([]float64, 0, 3*triplets)
		op := func(f func() error) error {
			start := time.Now()
			err := f()
			lats = append(lats, float64(time.Since(start).Microseconds())/1000)
			if errors.Is(err, vfs.ErrNoEnt) || errors.Is(err, vfs.ErrExist) {
				r.spurious++
				return nil
			}
			return err
		}
		start := time.Now()
		for i := 0; i < triplets; i++ {
			name, renamed := fmt.Sprintf("f%04d", i), fmt.Sprintf("f%04dr", i)
			if err := op(func() error {
				_, err := c.Create(dir, name, faultFileBytes)
				return err
			}); err != nil {
				return fmt.Errorf("create %s: %w", name, err)
			}
			if err := op(func() error { return c.Rename(dir, name, dir, renamed) }); err != nil {
				return fmt.Errorf("rename %s: %w", name, err)
			}
			if err := op(func() error { return c.Remove(dir, renamed) }); err != nil {
				return fmt.Errorf("remove %s: %w", renamed, err)
			}
		}
		elapsed := time.Since(start).Seconds()

		left, err := c.ReaddirAll(dir, 8192)
		if err != nil {
			return fmt.Errorf("final readdir: %w", err)
		}
		if r.leftover, err = leftoverEntries(drcOn, len(left), triplets); err != nil {
			return err
		}
		// Executed-procedure counts: ProcCounts only increments when a
		// call actually dispatches (DRC hits and busy-drops do not), so
		// any excess over the issued count is a duplicated execution.
		counts := svc.ProcCounts()
		for _, proc := range []uint32{nfsproto.ProcCreate, nfsproto.ProcRename, nfsproto.ProcRemove} {
			if extra := int(counts[proc]) - triplets; extra > 0 {
				r.dupExec += extra
			}
		}

		r.goodput = float64(3*triplets) / elapsed
		r.p99ms = stats.Percentile(lats, 99)
		r.faultsIn = inj.Stats(rpcnet.DirIn)
		r.faultsOut = inj.Stats(rpcnet.DirOut)
		snap := reg.Dump()
		r.retry = rpcnet.RetryStats{
			Calls:         snap.Counters["rpcnet_retry_calls_total"],
			Retransmits:   snap.Counters["rpcnet_retry_retransmits_total"],
			MajorTimeouts: snap.Counters["rpcnet_retry_major_timeouts_total"],
			SendFailures:  snap.Counters["rpcnet_retry_send_failures_total"],
		}
		r.rtoMS = snap.Gauges["rpcnet_retry_rto_seconds"] * 1000
		drcStats := svc.DRCStats()
		r.drcHits, r.drcBusy = drcStats.Hits, drcStats.Busy
		return nil
	})
	return r, err
}

// leftoverEntries judges the entries a cell's triplets left in their
// directory. Every triplet removes what it created, so the directory
// should be empty. With the DRC off a leftover is a duplicated side
// effect — a retransmitted CREATE that re-ran after its RENAME — and is
// counted; with the DRC on it fails the cell.
func leftoverEntries(drcOn bool, left, triplets int) (int, error) {
	if left != 0 && drcOn {
		return 0, fmt.Errorf("directory not empty after %d triplets: %d entries left", triplets, left)
	}
	return left, nil
}

// faultTriplets scales the per-cell workload.
func faultTriplets(p Params) int {
	n := 150 / p.Scale
	if n < 12 {
		n = 12
	}
	return n
}

// FaultPath is the fault-path experiment: goodput and p99 latency of a
// metadata-heavy workload (create/rename/remove triplets) over live
// sockets, swept over injected loss × transport × DRC on/off.
//
// The shape under test: on a perfect network the DRC costs nothing
// measurable; under loss, the UDP client's retransmissions hit
// non-idempotent procedures, and without the DRC the re-executions
// return wrong answers (NOENT from a REMOVE that already removed,
// EXIST from a replayed MKDIR-style create path) — the experiment
// counts them and pins that behavior. With the DRC on, the same loss
// rate completes with zero spurious errors and zero duplicated
// executions (asserted, not just reported), paying only the
// retransmission latency: the degradation curve, measured honestly,
// with the injected fault counters in the output.
func FaultPath(p Params) (*Result, error) {
	p.fill()
	r := &Result{
		ID: "fault-path", Title: "Fault-tolerant RPC path: loss x transport x DRC over live sockets",
		XLabel: "loss%", YLabel: "triplet ops/s (p99: ms)",
		X: faultLossPcts,
	}
	triplets := faultTriplets(p)
	type cell struct {
		network string
		drcOn   bool
	}
	cells := []cell{
		{"udp", true}, {"udp", false},
		{"tcp", true}, {"tcp", false},
	}
	label := func(c cell) string {
		if c.drcOn {
			return c.network + "/drc=on"
		}
		return c.network + "/drc=off"
	}
	g := newGrid(r)
	for _, c := range cells {
		g.series(BetterHigher, label(c)+"/goodput")
	}
	for _, c := range cells {
		g.series(BetterLower, label(c)+"/p99ms")
	}
	var totals struct {
		spuriousOff, dupOff int
		leftoverOff         int
		drcHits, drcBusy    int64
		retrans             int64
		drops, stalls       int64
		maxRTOms            float64
	}
	err := sweep(p, g, r.X, cells, label, func(c cell, pt point) error {
		m, err := faultCell(c.network, pt.x, c.drcOn, triplets, pt.run, p)
		if err != nil {
			return err
		}
		if c.drcOn && (m.spurious > 0 || m.dupExec > 0) {
			return fmt.Errorf("DRC on but %d spurious errors, %d duplicated executions", m.spurious, m.dupExec)
		}
		pt.put(label(c)+"/goodput", m.goodput)
		pt.put(label(c)+"/p99ms", m.p99ms)
		if pt.warm() {
			return nil
		}
		if !c.drcOn {
			totals.spuriousOff += m.spurious
			totals.dupOff += m.dupExec
			totals.leftoverOff += m.leftover
		}
		totals.drcHits += m.drcHits
		totals.drcBusy += m.drcBusy
		totals.retrans += m.retry.Retransmits
		totals.drops += m.faultsIn.Drops + m.faultsOut.Drops
		totals.stalls += m.faultsIn.Stalls + m.faultsOut.Stalls
		totals.maxRTOms = max(totals.maxRTOms, m.rtoMS)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("each cell: fresh live server, %d create/rename/remove triplets; loss%% = per-direction message fault probability", triplets),
		fmt.Sprintf("udp loss = dropped datagrams; tcp loss = %v mid-record stalls (the kernel retransmits, so RPC-level loss shows up as delay)", faultTCPStall),
		fmt.Sprintf("injected faults: %d drops, %d stalls; client retransmissions: %d", totals.drops, totals.stalls, totals.retrans),
		fmt.Sprintf("drc: %d hits, %d busy-drops; drc=on cells asserted zero spurious errors, zero duplicated executions and an empty directory", totals.drcHits, totals.drcBusy),
		fmt.Sprintf("drc=off cells observed %d spurious NOENT/EXIST, %d duplicated executions and %d leftover directory entries (duplicated side effects) — the wrong answers the DRC exists to prevent",
			totals.spuriousOff, totals.dupOff, totals.leftoverOff),
		fmt.Sprintf("client retry policy: %d transmits max, RTO in [20ms, 1s], Jacobson-estimated, 20%% jitter", 8),
		fmt.Sprintf("retry counters read via obs registry (rpcnet_retry_*); max end-of-cell smoothed RTO %.1fms", totals.maxRTOms))
	return g.result(), nil
}
