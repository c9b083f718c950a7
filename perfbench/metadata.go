package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/vfs"
)

// metadata inputs: directories from one READDIR page up to 10^4
// entries; in each, a fixed cycle of namespace operations, then a full
// paged READDIR and READDIRPLUS scan. One connection, DRC on.
var mdDirSizes = []int{200, 2000, 10000}

const (
	mdCyclesPerDir  = 200
	mdReaddirCount  = 8 << 10
	mdReaddirplusMx = 32 << 10
	mdMaxSetattr    = 64 << 10
)

// mdDir is one directory and the benchmark's model of its namespace.
type mdDir struct {
	fh     nfsproto.FH
	names  map[string]nfsproto.FH
	static []string // entries made at setup, never removed
}

type metadata struct {
	srv  *liveServer
	tr   *tracer
	c    *rpcnet.Client
	rng  *rand.Rand
	dirs []*mdDir
	args []byte
	seq  int

	issued   [nfsproto.ProcCommit + 1]int64
	entries  int64 // directory entries delivered by READDIR/READDIRPLUS
	scanNS   int64 // time spent in READDIR/READDIRPLUS calls
	badStat  int64 // replies with a status other than the expected one
	noent    int64 // lookups of removed names that drew NOENT
	removed  int64 // lookups of removed names issued
	badAttr  int64 // handle or size differing from the model
	scanErrs []string
	firstErr string

	// per-phase tallies
	lat      []float64
	rates    []float64
	rpcs     int64
	nsOps    int64
	failedOp int64
}

func (w *metadata) setup(cfg config, tr *tracer) error {
	w.tr = tr
	w.rng = rand.New(rand.NewPCG(uint64(cfg.seed), 7))
	srv, err := startServer(liveConfig{drc: true}, tr)
	if err != nil {
		return err
	}
	w.srv = srv
	for i, n := range mdDirSizes {
		dfh, err := srv.fs.Mkdir(vfs.RootFH, fmt.Sprintf("d%d", i))
		if err != nil {
			return err
		}
		d := &mdDir{fh: dfh, names: map[string]nfsproto.FH{}}
		// Names are a seeded permutation, so the cookie order differs
		// from the name order.
		for _, k := range w.rng.Perm(n) {
			name := fmt.Sprintf("e%06d", k)
			fh, err := srv.fs.Create(dfh, name, nil)
			if err != nil {
				return err
			}
			d.names[name] = fh
			d.static = append(d.static, name)
		}
		w.dirs = append(w.dirs, d)
	}
	c, err := srv.dial()
	if err != nil {
		return err
	}
	w.issued[nfsproto.ProcNull]++
	w.c = c
	// Warm-up: one whole round.
	return w.round()
}

// mdNonIdempotent lists the calls this workload issues that are not
// idempotent in NFSv3's sense (RFC 1813): replaying CREATE, RENAME or
// REMOVE gives a different reply than the first execution, so a
// duplicate request cache must hold their replies. The list is the
// benchmark's own, kept apart from the classifier the server uses.
var mdNonIdempotent = []uint32{nfsproto.ProcCreate, nfsproto.ProcRename, nfsproto.ProcRemove}

// expectedDRCMisses is the number of DRC misses the issued calls should
// cause on a loss-free transport: one per non-idempotent call.
func expectedDRCMisses(issued []int64) int64 {
	var n int64
	for _, p := range mdNonIdempotent {
		n += issued[p]
	}
	return n
}

// appender is an nfsproto argument type.
type appender interface{ AppendTo([]byte) []byte }

// rpc issues one call, timing encode, round trip and decode; decode
// parses the reply body and returns its nfsstat3.
func (w *metadata) rpc(proc uint32, args appender, decode func([]byte) (uint32, error)) (float64, uint32, error) {
	t0 := nowNS()
	w.args = args.AppendTo(w.args[:0])
	t1 := nowNS()
	body, err := w.c.Call(proc, w.args)
	t2 := nowNS()
	w.issued[proc]++
	w.rpcs++
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", nfsproto.ProcName(proc), err)
	}
	st, err := decode(body)
	t3 := nowNS()
	if err != nil {
		return 0, 0, fmt.Errorf("%s reply: %w", nfsproto.ProcName(proc), err)
	}
	w.tr.client(proc, 0, t0, t1, t2, t3)
	return float64(t3-t0) / 1e3, st, nil
}

// op issues one namespace call that must return want, and records its
// latency.
func (w *metadata) op(proc uint32, args appender, want uint32, decode func([]byte) (uint32, error)) error {
	us, st, err := w.rpc(proc, args, decode)
	if err != nil {
		return err
	}
	w.lat = append(w.lat, us)
	w.nsOps++
	if st != want {
		w.badStat++
		w.failedOp++
		w.note("%s: status %d, want %d", nfsproto.ProcName(proc), st, want)
	}
	return nil
}

func (w *metadata) note(format string, args ...any) {
	if w.firstErr == "" {
		w.firstErr = fmt.Sprintf(format, args...)
	}
}

// cycle runs the fixed namespace mix once in d: CREATE, LOOKUP,
// GETATTR, SETATTR, GETATTR, LOOKUP of a seeded existing name, RENAME,
// LOOKUP of the old name (NOENT), REMOVE, LOOKUP of the removed name
// (NOENT). The directory ends the cycle as it began.
func (w *metadata) cycle(d *mdDir) error {
	w.seq++
	name := fmt.Sprintf("n%08d", w.seq)
	name2 := fmt.Sprintf("r%08d", w.seq)
	size := uint64(w.rng.IntN(mdMaxSetattr))
	other := d.static[w.rng.IntN(len(d.static))]

	var fh nfsproto.FH
	err := w.op(nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: d.fh, Name: name}, nfsproto.OK,
		func(b []byte) (uint32, error) {
			r, err := nfsproto.UnmarshalCreateRes(b)
			if err != nil {
				return 0, err
			}
			fh = r.FH
			return r.Status, nil
		})
	if err != nil {
		return err
	}
	d.names[name] = fh
	steps := []struct {
		proc uint32
		args appender
		want uint32
		dec  func([]byte) (uint32, error)
	}{
		{nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: d.fh, Name: name}, nfsproto.OK, w.expectFH(fh)},
		{nfsproto.ProcGetattr, &nfsproto.GetattrArgs{FH: fh}, nfsproto.OK, w.expectSize(0)},
		{nfsproto.ProcSetattr, &nfsproto.SetattrArgs{FH: fh, Size: size}, nfsproto.OK, decodeSetattr},
		{nfsproto.ProcGetattr, &nfsproto.GetattrArgs{FH: fh}, nfsproto.OK, w.expectSize(size)},
		{nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: d.fh, Name: other}, nfsproto.OK, w.expectFH(d.names[other])},
		{nfsproto.ProcRename, &nfsproto.RenameArgs{FromDir: d.fh, FromName: name, ToDir: d.fh, ToName: name2}, nfsproto.OK, decodeRename},
		{nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: d.fh, Name: name}, nfsproto.ErrNoEnt, w.expectNoEnt},
		{nfsproto.ProcRemove, &nfsproto.RemoveArgs{Dir: d.fh, Name: name2}, nfsproto.OK, decodeRemove},
		{nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: d.fh, Name: name2}, nfsproto.ErrNoEnt, w.expectNoEnt},
	}
	for _, s := range steps {
		if err := w.op(s.proc, s.args, s.want, s.dec); err != nil {
			return err
		}
		switch s.proc {
		case nfsproto.ProcRename:
			d.names[name2] = d.names[name]
			delete(d.names, name)
		case nfsproto.ProcRemove:
			delete(d.names, name2)
		}
	}
	return nil
}

func (w *metadata) expectFH(want nfsproto.FH) func([]byte) (uint32, error) {
	return func(b []byte) (uint32, error) {
		r, err := nfsproto.UnmarshalLookupRes(b)
		if err != nil {
			return 0, err
		}
		if r.Status == nfsproto.OK && r.FH != want {
			w.badAttr++
			w.note("LOOKUP: handle %d, model has %d", r.FH, want)
		}
		return r.Status, nil
	}
}

func (w *metadata) expectSize(want uint64) func([]byte) (uint32, error) {
	return func(b []byte) (uint32, error) {
		r, err := nfsproto.UnmarshalGetattrRes(b)
		if err != nil {
			return 0, err
		}
		if r.Status == nfsproto.OK && r.Attrs.Size != want {
			w.badAttr++
			w.note("GETATTR: size %d, want %d", r.Attrs.Size, want)
		}
		return r.Status, nil
	}
}

func (w *metadata) expectNoEnt(b []byte) (uint32, error) {
	r, err := nfsproto.UnmarshalLookupRes(b)
	if err != nil {
		return 0, err
	}
	w.removed++
	if r.Status == nfsproto.ErrNoEnt {
		w.noent++
	}
	return r.Status, nil
}

func decodeSetattr(b []byte) (uint32, error) {
	r, err := nfsproto.UnmarshalSetattrRes(b)
	if err != nil {
		return 0, err
	}
	return r.Status, nil
}

func decodeRename(b []byte) (uint32, error) {
	r, err := nfsproto.UnmarshalRenameRes(b)
	if err != nil {
		return 0, err
	}
	return r.Status, nil
}

func decodeRemove(b []byte) (uint32, error) {
	r, err := nfsproto.UnmarshalRemoveRes(b)
	if err != nil {
		return 0, err
	}
	return r.Status, nil
}

// scan reads d in full with paged READDIR (plus=false) or READDIRPLUS
// and checks the listing against the model.
func (w *metadata) scan(d *mdDir, plus bool) error {
	var got []scanEntry
	var cookie, verf uint64
	for {
		var page []scanEntry
		var eof bool
		var proc uint32
		var args appender
		var dec func([]byte) (uint32, error)
		if plus {
			proc = nfsproto.ProcReaddirplus
			args = &nfsproto.ReaddirplusArgs{Dir: d.fh, Cookie: cookie, Cookieverf: verf,
				DirCount: mdReaddirCount, MaxCount: mdReaddirplusMx}
			dec = func(b []byte) (uint32, error) {
				r, err := nfsproto.UnmarshalReaddirplusRes(b)
				if err != nil {
					return 0, err
				}
				for _, e := range r.Entries {
					page = append(page, scanEntry{name: e.Name, cookie: e.Cookie, fh: e.FH})
				}
				verf, eof = r.Cookieverf, r.EOF
				return r.Status, nil
			}
		} else {
			proc = nfsproto.ProcReaddir
			args = &nfsproto.ReaddirArgs{Dir: d.fh, Cookie: cookie, Cookieverf: verf, Count: mdReaddirCount}
			dec = func(b []byte) (uint32, error) {
				r, err := nfsproto.UnmarshalReaddirRes(b)
				if err != nil {
					return 0, err
				}
				for _, e := range r.Entries {
					page = append(page, scanEntry{name: e.Name, cookie: e.Cookie, fh: nfsproto.FH(e.FileID)})
				}
				verf, eof = r.Cookieverf, r.EOF
				return r.Status, nil
			}
		}
		us, st, err := w.rpc(proc, args, dec)
		if err != nil {
			return err
		}
		w.scanNS += int64(us * 1e3)
		if st != nfsproto.OK {
			w.badStat++
			w.failedOp++
			w.note("%s: status %d", nfsproto.ProcName(proc), st)
			return nil
		}
		if len(page) == 0 && !eof {
			w.scanErrs = append(w.scanErrs, fmt.Sprintf("%s: empty page before EOF", nfsproto.ProcName(proc)))
			return nil
		}
		w.entries += int64(len(page))
		if w.tr.recording() {
			w.tr.entries.Add(int64(len(page)))
		}
		got = append(got, page...)
		if eof {
			break
		}
		cookie = page[len(page)-1].cookie
	}
	if msg := checkScan(got, d.names, plus); msg != "" {
		w.scanErrs = append(w.scanErrs, msg)
	}
	return nil
}

// round runs mdCyclesPerDir cycles and both scans in every directory.
func (w *metadata) round() error {
	for _, d := range w.dirs {
		for i := 0; i < mdCyclesPerDir; i++ {
			if err := w.cycle(d); err != nil {
				return err
			}
		}
		if err := w.scan(d, false); err != nil {
			return err
		}
		if err := w.scan(d, true); err != nil {
			return err
		}
	}
	return nil
}

func (w *metadata) measure(d time.Duration) (phase, error) {
	w.lat, w.rates, w.rpcs, w.nsOps, w.failedOp = nil, nil, 0, 0, 0
	entries0, scan0 := w.entries, w.scanNS
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		r0, t0 := w.rpcs, time.Now()
		if err := w.round(); err != nil {
			return phase{}, err
		}
		w.rates = append(w.rates, float64(w.rpcs-r0)/time.Since(t0).Seconds())

	}
	p := phase{elapsed: time.Since(start), ops: w.rpcs, attempted: w.rpcs,
		failed: w.failedOp, lat: w.lat, rates: w.rates}
	entries, scanNS := w.entries-entries0, w.scanNS-scan0
	p.figures = append([]figure{
		{"meta_ops_s", float64(w.nsOps) / p.elapsed.Seconds(), "ops/s"},
		{"readdir_entries_s", float64(entries) / (float64(scanNS) / 1e9), "entries/s"},
	}, tails("meta", "us", p.lat, 1)...)
	return p, nil
}

func (w *metadata) layers() map[string]float64 { return serviceLayers(w.srv.svc) }

func (w *metadata) finish() []check {
	w.c.Close()
	counts := w.srv.svc.ProcCounts()
	drcStats := w.srv.svc.DRCStats()
	w.srv.close()
	return []check{
		pass("every namespace call returned its expected status", w.badStat == 0,
			"%d unexpected statuses %s", w.badStat, w.firstErr),
		pass("handles and sizes match the model", w.badAttr == 0, "%d mismatches %s", w.badAttr, w.firstErr),
		pass("removed names draw NOENT", w.removed > 0 && w.noent == w.removed,
			"%d of %d lookups of removed names drew NOENT", w.noent, w.removed),
		checkScans(w.scanErrs),
		checkProcCounts(w.issued[:], counts),
		checkDRC(expectedDRCMisses(w.issued[:]), drcStats.Misses, drcStats.Hits, drcStats.Busy),
	}
}
