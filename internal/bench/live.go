package bench

import (
	"fmt"
	"sync"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/obs"
	"nfstricks/internal/readahead"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/workload"
)

// liveClientCounts is the concurrent-client sweep for the live-scale
// experiment.
var liveClientCounts = []int{1, 2, 4, 8, 16}

// liveBytesPerClient is how much each client reads per run at Scale 1.
const liveBytesPerClient = 16 * workload.MB

// liveScaleCell runs n concurrent clients against a live loopback
// server whose nfsheur table has the given shard count, and returns the
// aggregate READ throughput in MB/s. With reg non-nil the server runs
// fully instrumented — per-request stage spans, per-proc counters;
// reg nil is metrics off.
func liveScaleCell(shards, n int, p Params, reg *obs.Registry) (float64, error) {
	perClient := max(liveBytesPerClient/int64(p.Scale), 64*1024)
	fs := memfs.NewFS()
	payload := make([]byte, perClient)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
		fs.Create(memfs.RootFH, names[i], payload)
	}
	tp := nfsheur.ScaledParams()
	tp.Shards = shards
	cfg := nfsd.Config{Heuristic: readahead.SlowDown{}, Table: nfsheur.New(tp), Obs: reg}
	var mbps float64
	err := withLive(fs, cfg, rpcnet.ServerOptions{}, nil, func(l *live) error {
		clients := []*memfs.Client{l.c}
		for len(clients) < n {
			c, err := memfs.DialClient("tcp", l.srv.Addr())
			if err != nil {
				return err
			}
			defer c.Close()
			clients = append(clients, c)
		}
		var wg sync.WaitGroup
		errs := make(chan error, n)
		start := time.Now()
		for i, c := range clients {
			wg.Add(1)
			go func(c *memfs.Client, name string) {
				defer wg.Done()
				fh, size, err := c.Lookup(memfs.RootFH, name)
				if err != nil {
					errs <- err
					return
				}
				for off := uint64(0); off < uint64(size); off += 8192 {
					if _, _, err := c.Read(fh, off, 8192); err != nil {
						errs <- err
						return
					}
				}
			}(c, names[i])
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errs)
		for err := range errs {
			return err
		}
		mbps = float64(perClient) * float64(n) / 1e6 / elapsed.Seconds()
		return nil
	})
	return mbps, err
}

// liveShards is one live-scale series: a shard count, with metrics
// on or off.
type liveShards struct {
	shards int
	obs    bool
}

func (c liveShards) name() string {
	if !c.obs {
		return fmt.Sprintf("shards=%d obs=off", c.shards)
	}
	return fmt.Sprintf("shards=%d", c.shards)
}

// LiveScale is the live-server saturation benchmark: it sweeps
// concurrent clients against real loopback sockets and reports
// aggregate READ throughput per nfsheur shard count. With one shard
// every READ funnels through a single table mutex — the
// hidden-serialization benchmarking trap; striping the table lets
// concurrent clients proceed in parallel (visible on multi-core hosts;
// with GOMAXPROCS=1 the series coincide, which is itself the honest
// result).
//
// Every shards=N run is fully instrumented (a fresh obs registry per
// run: stage spans on each request, per-proc counters), so the numbers
// are the observable server's numbers, and a note reports the busiest
// cell's per-stage latency breakdown. The shards=8 obs=off series is
// the same server with metrics off, interleaved with it in every run:
// the instrumentation cost is the gap between the two series, a pair
// of cells nfsbench compare can test.
//
// Unlike the simulated experiments this one measures the real machine —
// wall-clock time over real sockets — so absolute numbers vary by host;
// the claim under test is the relative shape across shard counts.
func LiveScale(p Params) (*Result, error) {
	p.fill()
	r := &Result{
		ID: "live-scale", Title: "Live server saturation: nfsheur sharding vs concurrent clients",
		XLabel: "clients", YLabel: "throughput (MB/s)",
		X: liveClientCounts,
	}
	// 1 shard is the seed's effective configuration (every READ
	// serialized on one table lock), the others stripe the table.
	cells := []liveShards{{1, true}, {4, true}, {8, true}, {8, false}}
	g := newGrid(r)
	for _, c := range cells {
		g.series(BetterHigher, c.name())
	}
	var busiest obs.ProcStats
	maxClients := liveClientCounts[len(liveClientCounts)-1]
	err := sweep(p, g, r.X, cells, liveShards.name, func(c liveShards, pt point) error {
		var reg *obs.Registry
		if c.obs {
			reg = obs.NewRegistry()
		}
		mbps, err := liveScaleCell(c.shards, pt.x, p, reg)
		if err != nil {
			return err
		}
		pt.put(c.name(), mbps)
		if c == cells[2] && pt.x == maxClients {
			busiest, _ = reg.Spans("nfsd_op", nil).ProcSummary("READ")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if busiest.Count > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("stage breakdown (%s clients=%d, last run) READ: %s",
			cells[2].name(), maxClients, busiest.Note()))
	}
	r.Notes = append(r.Notes,
		"real wall-clock over loopback sockets; absolute MB/s is host-dependent",
		"shards=1 reproduces the seed's single-mutex READ path",
		"shards=8 obs=off is shards=8 with metrics off, measured beside it in every run")
	return g.result(), nil
}
