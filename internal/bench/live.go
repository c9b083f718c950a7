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
	"nfstricks/internal/stats"
	"nfstricks/internal/workload"
)

// liveClientCounts is the concurrent-client sweep for the live-scale
// experiment.
var liveClientCounts = []int{1, 2, 4, 8, 16}

// liveShardCounts are the nfsheur shard configurations compared: 1
// shard is the seed's effective configuration (every READ serialized on
// one table lock), the others stripe the table.
var liveShardCounts = []int{1, 4, 8}

// liveBytesPerClient is how much each client reads per run at Scale 1.
const liveBytesPerClient = 16 * workload.MB

// liveScaleCell runs n concurrent clients against a live loopback
// server whose nfsheur table has the given shard count, and returns the
// aggregate READ throughput in MB/s. With reg non-nil the server runs
// fully instrumented — per-request stage spans, per-proc counters —
// which is also how the observability cost bound is measured (reg nil =
// metrics off).
func liveScaleCell(shards, n int, p Params, reg *obs.Registry) (float64, error) {
	perClient := liveBytesPerClient / int64(p.Scale)
	if perClient < 64*1024 {
		perClient = 64 * 1024
	}
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
	svc := nfsd.New(fs, nfsd.Config{
		Heuristic: readahead.SlowDown{},
		Table:     nfsheur.New(tp),
		Obs:       reg,
	})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		return 0, err
	}
	defer srv.Close()

	clients := make([]*memfs.Client, n)
	for i := range clients {
		c, err := memfs.DialClient("tcp", srv.Addr())
		if err != nil {
			return 0, err
		}
		defer c.Close()
		clients[i] = c
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
		return 0, err
	}
	total := float64(perClient) * float64(n)
	return total / 1e6 / elapsed.Seconds(), nil
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
// Every measured run is fully instrumented (a fresh obs registry per
// run: stage spans on each request, per-proc counters), so the numbers
// are the observable server's numbers. Two extra notes report what the
// instrumentation shows and what it costs: the busiest cell's per-stage
// latency breakdown, and the throughput delta between metrics-on and
// metrics-off on that same cell (the issue's <3% bound).
//
// Unlike every other experiment this one measures the real machine —
// wall-clock time over real sockets — so absolute numbers vary by host;
// the claim under test is the relative shape across shard counts.
func LiveScale(p Params) (*Result, error) {
	p.fill()
	r := &Result{
		ID: "live-scale", Title: "Live server saturation: nfsheur sharding vs concurrent clients",
		XLabel: "clients", YLabel: "throughput (MB/s)",
		X: liveClientCounts,
	}
	var busiest obs.ProcStats
	maxShards := liveShardCounts[len(liveShardCounts)-1]
	maxClients := liveClientCounts[len(liveClientCounts)-1]
	for _, shards := range liveShardCounts {
		s := Series{Label: fmt.Sprintf("shards=%d", shards), Better: BetterHigher}
		for _, n := range liveClientCounts {
			stop := p.startCellProfile(fmt.Sprintf("live-scale_shards%d_c%d", shards, n))
			var xs []float64
			for run := 0; run < p.Runs; run++ {
				reg := obs.NewRegistry()
				mbps, err := liveScaleCell(shards, n, p, reg)
				if err != nil {
					stop()
					return nil, fmt.Errorf("live-scale shards=%d n=%d: %w", shards, n, err)
				}
				xs = append(xs, mbps)
				if shards == maxShards && n == maxClients {
					if ps, ok := reg.Spans("nfsd_op", nil).ProcSummary("READ"); ok {
						busiest = ps
					}
				}
			}
			stop()
			s.Samples = append(s.Samples, stats.Summarize(xs))
		}
		r.Series = append(r.Series, s)
	}
	if busiest.Count > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("stage breakdown (shards=%d clients=%d, last run) READ: %s",
			maxShards, maxClients, busiest.Note()))
	}

	// The observability cost probe: the busiest cell again, metrics on
	// vs off, paired runs. The issue's acceptance bound is 3%; loopback
	// throughput is noisy, so this is a report, not a gate — the gating
	// check is the allocation test in internal/nfsd.
	probes := p.Runs
	if probes > 3 {
		probes = 3
	}
	var on, off []float64
	for i := 0; i < probes; i++ {
		// Alternate which side runs first so per-pair warmup drift
		// (allocator growth, scheduler state) doesn't bias one side.
		for j := 0; j < 2; j++ {
			var reg *obs.Registry
			if (i+j)%2 == 0 {
				reg = obs.NewRegistry()
			}
			v, err := liveScaleCell(maxShards, maxClients, p, reg)
			if err != nil {
				return nil, err
			}
			if reg != nil {
				on = append(on, v)
			} else {
				off = append(off, v)
			}
		}
	}
	sOn, sOff := stats.Summarize(on), stats.Summarize(off)
	delta := 0.0
	if sOff.Mean > 0 {
		delta = (sOff.Mean - sOn.Mean) / sOff.Mean * 100
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("obs overhead probe (shards=%d clients=%d, %d paired runs): on=%.1f MB/s off=%.1f MB/s (%.1f%% cost)",
			maxShards, maxClients, probes, sOn.Mean, sOff.Mean, delta),
		"real wall-clock over loopback sockets; absolute MB/s is host-dependent",
		"shards=1 reproduces the seed's single-mutex READ path")
	return r, nil
}
