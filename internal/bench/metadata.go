package bench

import (
	"fmt"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/vfs"
	"nfstricks/internal/zonefs"
)

// metaDirSizes is the directory-size sweep: a small directory and the
// 1000-entry directory the readdir paging contract is sized for.
var metaDirSizes = []int{100, 1000}

// metaFileBytes is the size of each created file — small enough that
// the data path never dominates a metadata measurement.
const metaFileBytes = 512

// metaReaddirBudget is the per-READDIR reply budget in bytes (the
// client pages a large directory through multiple replies).
const metaReaddirBudget = 8192

// metaRates is one cell's measurements, all in operations per second
// (readdir rates count entries scanned per second).
type metaRates struct {
	create, stat, rename     float64
	readdirCold, readdirWarm float64
}

// metaCell measures the metadata path end to end on one live server:
// create entries files in a fresh directory, GETATTR each, RENAME
// each, then page through the directory twice with READDIR — for the
// zone backend the first scan runs against dropped caches (the
// directory's entry blocks pay the simulated disk) and the second runs
// warm; the in-memory backend has no disk to be cold on, so both scans
// measure the same path.
func metaCell(backendKind string, entries, run int, p Params) (metaRates, error) {
	var backend vfs.Backend = memfs.NewFS()
	var zfs *zonefs.FS
	if backendKind == "zone" {
		zfs = zonefs.New(zonefs.Config{
			Placement: zonefs.Outer,
			CacheMB:   64,
			Seed:      p.Seed + int64(run),
		})
		backend = zfs
	}
	var r metaRates
	err := withLive(backend, nfsd.Config{}, rpcnet.ServerOptions{}, nil, func(l *live) (err error) {
		r, err = metaRun(l.c, zfs, entries)
		return err
	})
	return r, err
}

// metaRun is one metadata cell's workload on client c.
func metaRun(c *memfs.Client, zfs *zonefs.FS, entries int) (metaRates, error) {
	var r metaRates
	dir, err := c.Mkdir(vfs.RootFH, "d")
	if err != nil {
		return r, err
	}
	names := make([]string, entries)
	for i := range names {
		names[i] = fmt.Sprintf("f%04d", i)
	}

	fhs := make([]nfsproto.FH, entries)
	start := time.Now()
	for i, name := range names {
		if fhs[i], err = c.Create(dir, name, metaFileBytes); err != nil {
			return r, fmt.Errorf("create %s: %w", name, err)
		}
	}
	r.create = float64(entries) / time.Since(start).Seconds()

	start = time.Now()
	for _, fh := range fhs {
		if _, err := c.Getattr(fh); err != nil {
			return r, err
		}
	}
	r.stat = float64(entries) / time.Since(start).Seconds()

	start = time.Now()
	for _, name := range names {
		if err := c.Rename(dir, name, dir, name+"r"); err != nil {
			return r, fmt.Errorf("rename %s: %w", name, err)
		}
	}
	r.rename = float64(entries) / time.Since(start).Seconds()

	scan := func() (float64, error) {
		start := time.Now()
		got, err := c.ReaddirAll(dir, metaReaddirBudget)
		if err != nil {
			return 0, err
		}
		if len(got) != entries {
			return 0, fmt.Errorf("readdir scanned %d entries, want %d", len(got), entries)
		}
		return float64(entries) / time.Since(start).Seconds(), nil
	}
	// Cold scan: for the zone backend the directory's entry blocks were
	// installed by the creates/renames, so they must be explicitly
	// evicted for the scan to pay the disk.
	if zfs != nil {
		zfs.DropCaches()
	}
	if r.readdirCold, err = scan(); err != nil {
		return r, err
	}
	if r.readdirWarm, err = scan(); err != nil {
		return r, err
	}
	return r, nil
}

// MetadataPath is the metadata-path experiment: create/stat/rename
// throughput and READDIR paging rate over live TCP, swept over
// directory size, on the in-memory backend and the ZCAV disk stack.
//
// The shape under test: namespace operations and warm directory scans
// run at memory speed on both backends — the disk model only charges
// for block fetches, and the creates themselves install the
// directory's entry blocks as resident pages — but a cold READDIR of a
// large directory on the zone backend pays a real (simulated) disk
// fetch for every entry block, so the cold/warm gap opens with
// directory size. A benchmark that measures directory scans without
// controlling cache warmth reports whichever number it happened to
// measure — the paper's cache-warmth trap, on the metadata path.
func MetadataPath(p Params) (*Result, error) {
	p.fill()
	r := &Result{
		ID: "metadata-path", Title: "Metadata path: create/stat/rename/readdir over live TCP",
		XLabel: "dirsize", YLabel: "ops/s (readdir: entries/s)",
		X: metaDirSizes,
	}
	type series struct {
		label string
		pick  func(metaRates) float64
	}
	byBackend := map[string][]series{
		"mem": {
			{"mem/create", func(m metaRates) float64 { return m.create }},
			{"mem/stat", func(m metaRates) float64 { return m.stat }},
			{"mem/rename", func(m metaRates) float64 { return m.rename }},
			{"mem/readdir", func(m metaRates) float64 { return m.readdirWarm }},
		},
		"zone": {
			{"zone/create", func(m metaRates) float64 { return m.create }},
			{"zone/stat", func(m metaRates) float64 { return m.stat }},
			{"zone/rename", func(m metaRates) float64 { return m.rename }},
			{"zone/readdir-cold", func(m metaRates) float64 { return m.readdirCold }},
			{"zone/readdir-warm", func(m metaRates) float64 { return m.readdirWarm }},
		},
	}
	backends := []string{"mem", "zone"}
	g := newGrid(r)
	for _, b := range backends {
		for _, s := range byBackend[b] {
			g.series("", s.label)
		}
	}
	err := sweep(p, g, r.X, backends, ident, func(b string, pt point) error {
		m, err := metaCell(b, max(pt.x/p.Scale, 20), pt.run, p)
		if err != nil {
			return err
		}
		for _, s := range byBackend[b] {
			pt.put(s.label, s.pick(m))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("each cell: fresh live server over TCP loopback; files are %d B; readdir pages %d-byte replies", metaFileBytes, metaReaddirBudget),
		"zone/readdir-cold runs after DropCaches: every directory entry block pays the simulated disk",
		"creates/renames install directory blocks as resident pages, so only the cold scan touches the disk model")
	return g.result(), nil
}
