// Command nfsserve runs the live userspace NFS-like file service over
// real UDP and TCP sockets, with the paper's read-ahead heuristics
// running on its READ path and the write-gathering engine on its WRITE
// path. It is the zero-infrastructure way to poke at the protocol
// stack:
//
//	nfsserve -addr 127.0.0.1:12049 -file demo=4 -heuristic slowdown
//
// then read "demo" (4 MB of patterned data) with any client built on
// internal/memfs.DialClient, e.g. examples/liveserver.
//
// The storage backend is pluggable: -backend mem (the default
// in-memory store) or -backend zone, which places files at concrete
// LBAs on a simulated zoned drive (-disk ide|scsi) behind a block
// buffer cache (-cache-mb), so reads pay real elapsed time that
// depends on zone placement (-zone outer|inner) and cache warmth —
// the paper's ZCAV trap, live on the wire.
//
// The asynchronous write path is configured with -gather-window (0 =
// synchronous write-through), -gather-bytes (per-file dirty bound) and
// -sink (mem = immediate, throttled = a disk-like cost model shaped by
// -sink-latency and -sink-mbps); with -backend zone, commits
// additionally pay the simulated disk.
//
// The fault-tolerant RPC path is configured with -drc (the duplicate
// request cache: retransmitted non-idempotent calls get the original's
// reply replayed instead of re-executing, budgeted by -drc-bytes) and
// -fault, which injects seeded wire faults on the server's sockets,
// e.g. -fault drop=0.05,stall=0.02:20ms -fault-seed 7. Both print
// their counters in the final stats.
//
// Observability: -admin :7070 serves /metrics (Prometheus text),
// /statsz (JSON) and /debug/pprof/* from the process's single metrics
// registry, the same source the final stats lines print from, so no
// two views can disagree. -slow-ms N logs a structured JSON line to
// stderr (with the per-stage breakdown) for any request slower than N
// milliseconds.
//
// With -trace out.nft every served RPC is recorded to a .nft trace file
// (arrival time, stream, procedure, handle, offset, count, stability,
// status, latency) that `nfstrace analyze` and `nfstrace replay`
// consume. On SIGINT the server stops accepting, prints a final stats
// line — per-procedure counters, WRITEs split by stability, COMMITs,
// and the gather engine's flush/coalescing accounting — flushes the
// trace and exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"nfstricks/cmd/internal/filespec"
	"nfstricks/internal/bench"
	"nfstricks/internal/disk"
	"nfstricks/internal/drc"
	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/nfstrace"
	"nfstricks/internal/obs"
	"nfstricks/internal/readahead"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/tracefile"
	"nfstricks/internal/vfs"
	"nfstricks/internal/wgather"
	"nfstricks/internal/zonefs"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:0", "address to bind (UDP and TCP)")
		files        filespec.List
		backendKind  = flag.String("backend", "mem", "storage backend: mem (in-memory) or zone (ZCAV disk stack)")
		zone         = flag.String("zone", "outer", "zone backend: place files on the outer or inner quarter of the drive")
		cacheMB      = flag.Int("cache-mb", 64, "zone backend: buffer cache size in MB")
		diskKind     = flag.String("disk", "ide", "zone backend: drive model, ide (WD200BB) or scsi (IBM DDYS)")
		heuristic    = flag.String("heuristic", "slowdown", "read-ahead heuristic: default, slowdown, always, cursor")
		stats        = flag.Duration("stats", 10*time.Second, "stats reporting interval (0 = off)")
		trace        = flag.String("trace", "", "record every served RPC to this .nft trace file")
		gatherWindow = flag.Duration("gather-window", 0, "write gather window (0 = synchronous write-through)")
		gatherBytes  = flag.Int64("gather-bytes", 0, "per-file dirty byte bound before an early flush (0 = default)")
		sinkKind     = flag.String("sink", "mem", "stable-storage sink: mem (immediate) or throttled")
		sinkLatency  = flag.Duration("sink-latency", 300*time.Microsecond, "throttled sink: fixed cost per flush")
		sinkMBps     = flag.Float64("sink-mbps", 0, "throttled sink: bandwidth in MB/s (0 = infinite)")
		drcOn        = flag.Bool("drc", false, "enable the duplicate request cache (replay cached replies to retransmitted non-idempotent calls)")
		drcBytes     = flag.Int("drc-bytes", 0, "duplicate request cache reply byte budget (0 = 1 MB default)")
		faultSpec    = flag.String("fault", "", "inject wire faults, e.g. drop=0.05,dup=0.01,delay=0.02:1ms-5ms,trunc=0.01,stall=0.05:20ms,reset=0.001")
		faultSeed    = flag.Int64("fault-seed", 1, "seed for the fault injector's decision stream")
		admin        = flag.String("admin", "", "serve /metrics, /statsz and /debug/pprof on this address (empty = off)")
		slowMS       = flag.Int("slow-ms", 0, "log a structured line for any request slower than this many ms (0 = off)")
		clusterN     = flag.Int("cluster", 0, "run an in-process sharded cluster with this many nfsd shards (0 = single server)")
		ctrlAddr     = flag.String("ctrl-addr", "127.0.0.1:0", "cluster mode: control plane bind address")
	)
	flag.Var(&files, "file", "file to serve, as name=sizeMB (repeatable; default demo=4)")
	flag.Parse()

	if *clusterN > 0 {
		runCluster(*clusterN, *ctrlAddr, *admin, files, *stats)
		return
	}

	var h readahead.Heuristic
	switch *heuristic {
	case "default":
		h = readahead.Default{}
	case "slowdown":
		h = readahead.SlowDown{}
	case "always":
		h = readahead.Always{}
	case "cursor":
		h = &readahead.CursorHeuristic{}
	default:
		fmt.Fprintf(os.Stderr, "nfsserve: unknown heuristic %q\n", *heuristic)
		os.Exit(2)
	}

	var sink wgather.Sink
	switch *sinkKind {
	case "mem":
		sink = wgather.NullSink{}
	case "throttled":
		sink = &wgather.ThrottledSink{Latency: *sinkLatency, BytesPerSec: *sinkMBps * 1e6}
	default:
		fmt.Fprintf(os.Stderr, "nfsserve: unknown sink %q (want mem or throttled)\n", *sinkKind)
		os.Exit(2)
	}

	var backend vfs.Backend
	var zfs *zonefs.FS
	switch *backendKind {
	case "mem":
		backend = memfs.NewFS()
	case "zone":
		var model *disk.Model
		switch *diskKind {
		case "ide":
			model = disk.WD200BB()
		case "scsi":
			model = disk.IBMDDYS36950()
		default:
			fmt.Fprintf(os.Stderr, "nfsserve: unknown disk %q (want ide or scsi)\n", *diskKind)
			os.Exit(2)
		}
		placement := zonefs.Outer
		switch *zone {
		case "outer":
		case "inner":
			placement = zonefs.Inner
		default:
			fmt.Fprintf(os.Stderr, "nfsserve: unknown zone %q (want outer or inner)\n", *zone)
			os.Exit(2)
		}
		zfs = zonefs.New(zonefs.Config{Model: model, Placement: placement, CacheMB: *cacheMB})
		backend = zfs
	default:
		fmt.Fprintf(os.Stderr, "nfsserve: unknown backend %q (want mem or zone)\n", *backendKind)
		os.Exit(2)
	}

	built, err := filespec.BuildInto(backend, files)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nfsserve:", err)
		os.Exit(2)
	}
	for _, f := range built {
		fmt.Printf("serving %s (%d MB)\n", f.Path, f.Size>>20)
	}

	// Every stat the process reports flows through this one registry:
	// the periodic ticker line, the final text lines, /statsz JSON and
	// /metrics Prometheus text are all views of the same Dump, so they
	// cannot disagree.
	reg := obs.NewRegistry()
	reg.GaugeFunc("nfsserve_up", func() float64 { return 1 })
	reg.GaugeFunc("nfsserve_gomaxprocs", func() float64 { return float64(runtime.GOMAXPROCS(0)) })

	svc := nfsd.New(backend, nfsd.Config{
		Heuristic: h,
		Gather: wgather.Config{
			Window:       *gatherWindow,
			MaxFileBytes: *gatherBytes,
			Sink:         sink,
		},
		DRC: nfsd.DRCConfig{Enabled: *drcOn, MaxBytes: *drcBytes},
		Obs: reg,
	})
	if *slowMS > 0 {
		svc.SpanTable().EnableSlowLog(os.Stderr, time.Duration(*slowMS)*time.Millisecond)
	}
	if zfs != nil {
		registerZoneStats(reg, zfs)
	}

	// Optional fault injection: a seeded injector on the server's wire
	// path, so a lossy network is reproducible from the command line.
	var faults *rpcnet.FaultInjector
	if *faultSpec != "" {
		cfg, err := rpcnet.ParseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nfsserve:", err)
			os.Exit(2)
		}
		cfg.Seed = *faultSeed
		faults = rpcnet.NewFaultInjector(cfg)
		registerFaultStats(reg, faults)
	}

	// Optional trace capture: every served RPC is appended to the .nft
	// file and flushed on shutdown.
	var capt *nfstrace.Capture
	var tap rpcnet.Tap
	if *trace != "" {
		w, err := tracefile.Create(*trace, time.Now())
		if err != nil {
			fmt.Fprintln(os.Stderr, "nfsserve:", err)
			os.Exit(1)
		}
		capt = nfstrace.NewCapture(w)
		tap = capt.Tap
		reg.CounterFunc("nfstrace_records_total", capt.Total)
	}

	srv, err := nfsd.NewServer(*addr, svc, rpcnet.ServerOptions{Tap: tap, Faults: faults})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nfsserve:", err)
		os.Exit(1)
	}

	var adm *obs.AdminServer
	if *admin != "" {
		// /statsz carries the environment block so a scraped snapshot is
		// self-identifying the way a saved benchmark artifact is.
		adm, err = obs.ServeAdminMeta(*admin, reg, bench.CollectEnvMeta())
		if err != nil {
			fmt.Fprintln(os.Stderr, "nfsserve: admin:", err)
			os.Exit(1)
		}
		fmt.Printf("admin on http://%s (/metrics /statsz /debug/pprof/)\n", adm.Addr())
	}
	fmt.Printf("listening on %s (udp+tcp), program %d version %d, heuristic %s, backend %s\n",
		srv.Addr(), nfsproto.Program, nfsproto.Version3, *heuristic, *backendKind)
	if zfs != nil {
		fmt.Printf("zone backend: %s, %s placement, %d MB cache\n",
			zfs.Model().Name, zfs.Placement(), *cacheMB)
	}
	fmt.Printf("write path: gather-window=%v sink=%s (verifier %016x)\n",
		*gatherWindow, *sinkKind, svc.WriteVerifier())
	if *trace != "" {
		fmt.Printf("tracing to %s\n", *trace)
	}
	if svc.DRCEnabled() {
		fmt.Printf("duplicate request cache: on (%d byte budget)\n", drcBudget(*drcBytes))
	}
	if faults != nil {
		fmt.Printf("fault injection: %s (seed %d)\n", *faultSpec, *faultSeed)
	}
	if *slowMS > 0 {
		fmt.Printf("slow-op log: requests over %dms to stderr\n", *slowMS)
	}

	printStats := func(prefix string) {
		st := svc.Stats()
		fmt.Printf("%sreads=%d bytes=%d maxSeqCount=%d writes=%d bytesWritten=%d commits=%d\n",
			prefix, st.Reads, st.BytesRead, st.MaxSeqCount, st.Writes, st.BytesWritten, st.Commits)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	// A nil ticker channel never fires, so the loop shape is the same
	// with stats reporting off.
	var tick <-chan time.Time
	if *stats > 0 {
		ticker := time.NewTicker(*stats)
		defer ticker.Stop()
		tick = ticker.C
	}
loop:
	for {
		select {
		case <-tick:
			printStats("")
		case <-stop:
			break loop
		}
	}

	// Orderly shutdown: stop accepting and wait for in-flight requests
	// (so the final stats line and the trace cover every served RPC),
	// flush remaining dirty data through the sink, then flush and close
	// the trace file, and exit 0.
	srv.Close()
	if err := svc.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "nfsserve: flush:", err)
	}
	if adm != nil {
		adm.Close()
	}
	printStats("final: ")
	// Everything else comes from the registry — the same Dump that
	// backed /statsz and /metrics while the server was up.
	for _, line := range reg.Lines() {
		fmt.Printf("final: %s\n", line)
	}
	if capt != nil {
		if err := capt.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "nfsserve: trace:", err)
			capt.Close()
			os.Exit(1)
		}
		if err := capt.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "nfsserve: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d records written to %s\n", capt.Total(), *trace)
	}
}

// drcBudget echoes the effective cache budget for the startup banner.
func drcBudget(maxBytes int) int {
	if maxBytes <= 0 {
		return drc.DefaultMaxBytes
	}
	return maxBytes
}

// registerFaultStats publishes the injector's per-direction counters,
// one labeled series per fault kind, so a lossy run's accounting shows
// up in /metrics and the final lines without a second code path.
func registerFaultStats(reg *obs.Registry, faults *rpcnet.FaultInjector) {
	kinds := []struct {
		name string
		get  func(rpcnet.FaultStats) int64
	}{
		{"messages", func(s rpcnet.FaultStats) int64 { return s.Messages }},
		{"drops", func(s rpcnet.FaultStats) int64 { return s.Drops }},
		{"dups", func(s rpcnet.FaultStats) int64 { return s.Dups }},
		{"delays", func(s rpcnet.FaultStats) int64 { return s.Delays }},
		{"truncates", func(s rpcnet.FaultStats) int64 { return s.Truncates }},
		{"stalls", func(s rpcnet.FaultStats) int64 { return s.Stalls }},
		{"resets", func(s rpcnet.FaultStats) int64 { return s.Resets }},
	}
	for _, d := range []struct {
		dir   int
		label string
	}{{rpcnet.DirIn, "in"}, {rpcnet.DirOut, "out"}} {
		dir := d.dir
		for _, k := range kinds {
			get := k.get
			reg.CounterFunc(
				fmt.Sprintf(`rpcnet_fault_%s_total{dir=%q}`, k.name, d.label),
				func() int64 { return get(faults.Stats(dir)) })
		}
	}
}

// registerZoneStats publishes the ZCAV stack's counters: filesystem
// demand hits/misses and simulated disk time, buffer cache activity,
// and the drive model's command accounting.
func registerZoneStats(reg *obs.Registry, zfs *zonefs.FS) {
	reg.CounterFunc("zonefs_demand_hits_total", func() int64 { return zfs.Stats().DemandHits })
	reg.CounterFunc("zonefs_demand_misses_total", func() int64 { return zfs.Stats().DemandMisses })
	reg.GaugeFunc("zonefs_disk_time_seconds", func() float64 { return zfs.Stats().DiskTime.Seconds() })
	reg.CounterFunc("buffercache_clusters_total", func() int64 { return zfs.CacheStats().Clusters })
	reg.CounterFunc("buffercache_readaheads_total", func() int64 { return zfs.CacheStats().ReadAheads })
	reg.CounterFunc("buffercache_evictions_total", func() int64 { return zfs.CacheStats().Evictions })
	reg.CounterFunc("disk_commands_total", func() int64 { return zfs.DiskStats().Commands })
	reg.CounterFunc("disk_streamed_total", func() int64 { return zfs.DiskStats().Streamed })
	reg.CounterFunc("disk_cache_hits_total", func() int64 { return zfs.DiskStats().CacheHits })
	reg.CounterFunc("disk_repositions_total", func() int64 { return zfs.DiskStats().Repositions })
	reg.GaugeFunc("disk_busy_seconds", func() float64 { return zfs.DiskStats().BusyTime.Seconds() })
}
