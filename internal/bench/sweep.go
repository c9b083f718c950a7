package bench

import (
	"fmt"
	"strings"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/stats"
	"nfstricks/internal/testbed"
	"nfstricks/internal/vfs"
	"nfstricks/internal/workload"
)

// grid collects per-run values by series label and X index, then
// summarises them into r.Series in the declared order.
type grid struct {
	r      *Result
	labels []string
	better map[string]string
	vals   map[string][][]float64
}

func newGrid(r *Result) *grid {
	return &grid{r: r, better: map[string]string{}, vals: map[string][][]float64{}}
}

// series declares labels, in output order, with one Better direction.
func (g *grid) series(better string, labels ...string) *grid {
	for _, l := range labels {
		g.labels = append(g.labels, l)
		g.better[l] = better
		g.vals[l] = make([][]float64, len(g.r.X))
	}
	return g
}

// result appends every declared series, summarised per X, to r.Series.
func (g *grid) result() *Result {
	for _, l := range g.labels {
		s := Series{Label: l, Better: g.better[l]}
		for _, xs := range g.vals[l] {
			s.Samples = append(s.Samples, stats.Summarize(xs))
		}
		g.r.Series = append(g.r.Series, s)
	}
	return g.r
}

// point is one call of an experiment's measure function: a cell at X
// value x (index xi of the swept X) in run.
type point struct {
	x, xi, run int
	g          *grid // nil on the discarded warm-up call
}

// warm reports the discarded warm-up call; measures skip their note
// totals on it.
func (pt point) warm() bool { return pt.g == nil }

// put records v for label at this point's X index.
func (pt point) put(label string, v float64) { pt.putAt(label, pt.xi, v) }

// putAt records v for label at X index xi of the Result.
func (pt point) putAt(label string, xi int, v float64) {
	if pt.g == nil {
		return
	}
	vals, ok := pt.g.vals[label]
	if !ok {
		panic(fmt.Sprintf("bench: %s: undeclared series %q", pt.g.r.ID, label))
	}
	vals[xi] = append(vals[xi], v)
}

// sweep is the one measurement loop. It calls measure for every run,
// and within a run for every x of xs and every cell, so the cells at an
// x are measured back to back and slow machine drift lands on every
// series alike. One discarded warm-up call (the first cell at the first
// x) goes first: the first measurement in a process pays cold socket
// buffers, page faults and allocator growth, and would bias whichever
// series ran first. Run 0 of each (cell, x) is CPU-profiled as
// <ProfileDir>/<id>_<cell>_x<x>.cpu.pprof when p.ProfileDir is set.
func sweep[C any](p Params, g *grid, xs []int, cells []C, name func(C) string, measure func(C, point) error) error {
	id := g.r.ID
	if err := measure(cells[0], point{x: xs[0]}); err != nil {
		return fmt.Errorf("%s warm-up: %w", id, err)
	}
	for run := 0; run < p.Runs; run++ {
		for xi, x := range xs {
			for _, c := range cells {
				stop := func() {}
				if run == 0 {
					stop = p.startCellProfile(fmt.Sprintf("%s_%s_x%d", id, fileSafe(name(c)), x))
				}
				err := measure(c, point{x: x, xi: xi, run: run, g: g})
				stop()
				if err != nil {
					return fmt.Errorf("%s %s x=%d: %w", id, name(c), x, err)
				}
			}
		}
	}
	return nil
}

// ident names a cell that is its own label.
func ident(s string) string { return s }

// fileSafe turns a cell label into a file-name fragment.
func fileSafe(s string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '=' || r == '.' {
			return r
		}
		return '-'
	}, s)
}

// live is one cell's loopback server: the service, its server and one
// client.
type live struct {
	svc *nfsd.Service
	srv *rpcnet.Server
	c   *memfs.Client
}

// withLive is the one live bring-up: backend → nfsd.New → nfsd.NewServer
// on a loopback port → one client from dial (a TCP DialClient when nil).
// It runs body and always closes the client, the server and the service.
func withLive(b vfs.Backend, cfg nfsd.Config, opts rpcnet.ServerOptions, dial func(addr string) (*memfs.Client, error), body func(*live) error) error {
	l := &live{svc: nfsd.New(b, cfg)}
	defer l.svc.Close()
	var err error
	if l.srv, err = nfsd.NewServer("127.0.0.1:0", l.svc, opts); err != nil {
		return err
	}
	defer l.srv.Close()
	if dial == nil {
		dial = func(addr string) (*memfs.Client, error) { return memfs.DialClient("tcp", addr) }
	}
	if l.c, err = dial(l.srv.Addr()); err != nil {
		return err
	}
	defer l.c.Close()
	return body(l)
}

// simWork is one simulated workload: n concurrent readers of the
// paper's file set, locally or over NFS, or, when stride > 0, one
// stride-s NFS reader of a single 256 MB/scale file.
type simWork struct {
	nfs             bool
	readers, stride int
}

// simRun is the one simulated bring-up: a testbed from opts seeded for
// run, the workload's files, the NFS stack started for NFS workloads,
// the workload itself, and the kernel shut down.
func simRun(opts testbed.Options, run int, p Params, w simWork) (workload.Result, error) {
	opts.Seed = p.Seed + int64(run)
	tb, err := testbed.New(opts)
	if err != nil {
		return workload.Result{}, err
	}
	defer tb.K.Shutdown()
	if w.stride > 0 {
		w.nfs = true
		_, err = tb.FS.Create("stride", int64(256)*workload.MB/int64(p.Scale))
	} else {
		err = workload.CreateFileSet(tb.FS, p.Scale)
	}
	if err == nil && w.nfs {
		err = tb.Start()
	}
	switch {
	case err != nil:
		return workload.Result{}, err
	case w.stride > 0:
		return workload.RunNFSStrideReader(tb, "stride", w.stride)
	case w.nfs:
		return workload.RunNFSReaders(tb, workload.FilesFor(w.readers))
	}
	return workload.RunLocalReaders(tb, workload.FilesFor(w.readers))
}

// simCell is one simulated testbed configuration. heuristic names the
// server's read-ahead heuristic, built afresh per testbed because
// cursor heuristics carry state; "" keeps opts.Server.Heuristic.
type simCell struct {
	label     string
	heuristic string
	opts      testbed.Options
}

func (c simCell) name() string { return c.label }

// options returns the cell's testbed options with a fresh heuristic.
func (c simCell) options() testbed.Options {
	opts := c.opts
	if c.heuristic != "" {
		opts.Server.Heuristic = heuristicByName(c.heuristic)
	}
	return opts
}

// simSweep records every cell's throughput (MB/s) at every X of r, each
// measured on a fresh testbed; at gives the options and workload of
// cell c at x.
func simSweep(p Params, r *Result, cells []simCell, at func(c simCell, x int) (testbed.Options, simWork)) (*Result, error) {
	p.fill()
	g := newGrid(r)
	for _, c := range cells {
		g.series("", c.label)
	}
	err := sweep(p, g, r.X, cells, simCell.name, func(c simCell, pt point) error {
		opts, w := at(c, pt.x)
		res, err := simRun(opts, pt.run, p, w)
		if err != nil {
			return err
		}
		pt.put(c.label, res.ThroughputMBps())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g.result(), nil
}
