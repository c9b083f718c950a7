package bench

import (
	"fmt"
	"time"

	"nfstricks/internal/disk"
	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/obs"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/zonefs"
)

// zcavXferKB is the transfer-size sweep (the client's rsize).
var zcavXferKB = []int{8, 32}

// zcavFileMB is the working-set size at Scale 1.
const zcavFileMB = 16

// zcavColdCacheMB starves the buffer cache: the working set never
// fits, so every pass over the file pays the disk (an LRU cache
// scanned sequentially evicts each block just before its next use).
const zcavColdCacheMB = 1

// zcavWarmCacheMB holds the whole working set after one priming pass.
const zcavWarmCacheMB = 64

// zcavWarmMeasureBytes is the minimum bytes a warm measurement covers;
// warm reads run at memory speed, so one small file pass would be too
// short a window to time honestly.
const zcavWarmMeasureBytes = 64 << 20

// zcavCell runs one live READ throughput measurement: a zonefs store
// with the given placement and cache size, served over real TCP
// loopback through the nfsd dispatch layer, primed with one full
// sequential pass, then timed over at least one further pass. With reg
// non-nil the server records per-request stage spans — in particular
// the simulated disk service time zonefs sleeps out, which the cold
// cells' attribution note reports.
func zcavCell(placement zonefs.Placement, cacheMB, xferKB int, run int, p Params, reg *obs.Registry) (float64, error) {
	fileBytes := max(int64(zcavFileMB<<20)/int64(p.Scale), 2<<20)
	backend := zonefs.New(zonefs.Config{
		Placement: placement,
		CacheMB:   cacheMB,
		Seed:      p.Seed + int64(run),
	})
	payload := make([]byte, fileBytes)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if _, err := backend.Create(memfs.RootFH, "data", payload); err != nil {
		return 0, fmt.Errorf("zcav-live: create failed (region full?)")
	}
	var mbps float64
	err := withLive(backend, nfsd.Config{Obs: reg}, rpcnet.ServerOptions{}, nil, func(l *live) error {
		fh, size, err := l.c.Lookup(memfs.RootFH, "data")
		if err != nil {
			return err
		}
		xfer := uint32(xferKB << 10)
		pass := func() error {
			for off := uint64(0); off < uint64(size); off += uint64(xfer) {
				if _, _, err := l.c.Read(fh, off, xfer); err != nil {
					return err
				}
			}
			return nil
		}
		// Priming pass: warms the cache when it fits, and brings the
		// heuristic/drive state to steady state either way.
		if err := pass(); err != nil {
			return err
		}
		passes := 1
		if cacheMB >= zcavWarmCacheMB {
			passes = max(passes, int(zcavWarmMeasureBytes/fileBytes))
		}
		start := time.Now()
		for i := 0; i < passes; i++ {
			if err := pass(); err != nil {
				return err
			}
		}
		mbps = float64(fileBytes) * float64(passes) / 1e6 / time.Since(start).Seconds()
		return nil
	})
	return mbps, err
}

// ZCAVLive is the paper's ZCAV and cache-warmth traps measured on the
// live server: files on a simulated zoned drive behind real RPC, zone
// placement (outer vs inner quarter) crossed with buffer cache size
// (a 1 MB cache the working set thrashes vs a 64 MB cache it fits
// in), swept over client transfer sizes.
//
// The shape under test: with a cold cache, outer-zone files read
// measurably faster than inner-zone ones — benchmarking two servers
// whose data merely sits at different disk positions "measures" a
// difference no code change made. With a warm cache both placements
// collapse to memory speed and the gap disappears — and a benchmark
// that does not control cache warmth can report either result.
func ZCAVLive(p Params) (*Result, error) {
	p.fill()
	r := &Result{
		ID: "zcav-live", Title: "Live ZCAV trap: zone placement x cache size over real RPC",
		XLabel: "xferKB", YLabel: "READ throughput (MB/s)",
		X: zcavXferKB,
	}
	type cell struct {
		label   string
		place   zonefs.Placement
		cacheMB int
	}
	cells := []cell{
		{"outer/cold", zonefs.Outer, zcavColdCacheMB},
		{"inner/cold", zonefs.Inner, zcavColdCacheMB},
		{"outer/warm", zonefs.Outer, zcavWarmCacheMB},
		{"inner/warm", zonefs.Inner, zcavWarmCacheMB},
	}
	g := newGrid(r)
	for _, c := range cells {
		g.series("", c.label)
	}
	// Per-cell stage spans of the cold cells: the experiment's
	// attribution claim made quantitative — the throughput gap is
	// simulated disk time, and the disk stage's share of the request
	// total says exactly how much. Warm cells' spans would be polluted by
	// their priming pass.
	var notes []string
	err := sweep(p, g, r.X, cells, func(c cell) string { return c.label }, func(c cell, pt point) error {
		reg := obs.NewRegistry()
		mbps, err := zcavCell(c.place, c.cacheMB, pt.x, pt.run, p, reg)
		if err != nil {
			return err
		}
		pt.put(c.label, mbps)
		if pt.run == 0 && pt.xi == 0 && !pt.warm() && c.cacheMB == zcavColdCacheMB {
			if ps, ok := reg.Spans("nfsd_op", nil).ProcSummary("READ"); ok && ps.Count > 0 {
				notes = append(notes, fmt.Sprintf("stage breakdown %s (x=%dK, run 0) READ: %s", c.label, pt.x, ps.Note()))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Notes = append(notes,
		fmt.Sprintf("zonefs on %s, file %d MB/scale; cold = %d MB cache (thrashes), warm = %d MB (fits)",
			disk.WD200BB().Name, zcavFileMB, zcavColdCacheMB, zcavWarmCacheMB),
		"simulated disk service time elapses for real on the RPC path; warm reads never touch it",
		"same protocol stack, same files, same client — only LBA placement and cache warmth differ")
	return g.result(), nil
}
