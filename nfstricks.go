// Package nfstricks reproduces "NFS Tricks and Benchmarking Traps"
// (Daniel Ellard and Margo Seltzer, FREENIX track, USENIX 2003): the
// SlowDown and cursor-based NFS read-ahead heuristics, the nfsheur
// table fix, and the paper's catalogue of benchmarking traps (ZCAV,
// tagged command queues, disk scheduler fairness, UDP vs TCP), all on a
// deterministic discrete-event simulation of the paper's testbed.
//
// The package is a facade over the implementation packages:
//
//   - Heuristics (the paper's contribution): [Default], [SlowDown],
//     [Always], [CursorHeuristic] and the per-file [HeurState], plus the
//     [NfsheurTable] that caches heuristic state on a stateless server.
//   - Testbed: [NewTestbed] assembles the paper's server, disks,
//     network and client; [Options] exposes every knob the paper turns.
//   - Experiments: [Experiments] and [LookupExperiment] run the
//     reproductions of every figure and table, returning formatted
//     [BenchResult] values ("nfsbench -exp fig1" from the CLI).
//   - Live mode: [NewLiveService], [ServeLive] and [DialLive] run the
//     same protocol stack over real loopback sockets.
//   - Write path: [LiveConfig].Gather ([WriteGatherConfig]) serves
//     UNSTABLE WRITE + COMMIT through a server-side write-gathering
//     engine; [LiveWriteBehind] is the matching biod-style client
//     pipeline with verifier-change recovery.
//   - Trace capture & replay: [LiveServerOptions].Tap with a
//     [TraceCapture] records the live server's request stream to a .nft
//     trace file; [AnalyzeTraceFile] runs the paper's §6 analysis on it
//     and [ReplayTraceFile] plays it back as a benchmark workload.
//   - Fault path: [LiveServerOptions].Faults injects seeded wire faults
//     on the live transports, [DialLiveRetry] adds the client
//     retransmission layer, and [DRCConfig] switches on the server's
//     duplicate request cache ("nfsbench -exp fault-path").
//   - Observability: [NewObsRegistry] as [LiveConfig].Obs times every
//     request through per-stage spans, and [ServeObsAdmin] exposes the
//     registry live on /metrics, /statsz and /debug/pprof
//     ("nfsserve -admin :7070").
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	tb, _ := nfstricks.NewTestbed(nfstricks.Options{Disk: nfstricks.IDE})
//	tb.FS.Create("data", 8<<20)
//	tb.Start()
//	res, _ := nfstricks.RunNFSReaders(tb, []string{"data"})
//	fmt.Printf("%.1f MB/s\n", res.ThroughputMBps())
package nfstricks

import (
	"time"

	"nfstricks/internal/bench"
	"nfstricks/internal/cluster"
	"nfstricks/internal/disk"
	"nfstricks/internal/drc"
	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/nfsserver"
	"nfstricks/internal/nfstrace"
	"nfstricks/internal/obs"
	"nfstricks/internal/readahead"
	"nfstricks/internal/replay"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/testbed"
	"nfstricks/internal/tracefile"
	"nfstricks/internal/vfs"
	"nfstricks/internal/wgather"
	"nfstricks/internal/workload"
	"nfstricks/internal/zonefs"
)

// Sequentiality heuristics (paper §6-7).
type (
	// Heuristic maps observed read offsets to a sequentiality count.
	Heuristic = readahead.Heuristic
	// HeurState is the per-file-handle heuristic record.
	HeurState = readahead.State
	// Default is the FreeBSD 4.x heuristic: reset on any out-of-order
	// request.
	Default = readahead.Default
	// SlowDown is the paper's jitter-tolerant AIMD heuristic (§6.2).
	SlowDown = readahead.SlowDown
	// Always hard-wires maximum read-ahead (§6.1's upper bound).
	Always = readahead.Always
	// CursorHeuristic detects sequential sub-streams (strides, §7).
	CursorHeuristic = readahead.CursorHeuristic
)

// SeqMax is the OS-imposed ceiling on the sequentiality count (127).
const SeqMax = readahead.SeqMax

// The nfsheur table (paper §6.3).
type (
	// NfsheurTable caches per-file heuristic state on the server. It is
	// lock-striped (NfsheurParams.Shards) and safe for concurrent use.
	NfsheurTable = nfsheur.Table
	// NfsheurParams configures table geometry and shard count.
	NfsheurParams = nfsheur.Params
	// NfsheurStats is the table's hit/miss/ejection counters.
	NfsheurStats = nfsheur.Stats
)

// NewNfsheurTable builds a table with the given geometry.
func NewNfsheurTable(p NfsheurParams) *NfsheurTable { return nfsheur.New(p) }

// DefaultNfsheur is the FreeBSD 4.x table the paper found too small.
func DefaultNfsheur() NfsheurParams { return nfsheur.DefaultParams() }

// ImprovedNfsheur is the paper's enlarged table.
func ImprovedNfsheur() NfsheurParams { return nfsheur.ImprovedParams() }

// ScaledNfsheur is the live server's default: a GOMAXPROCS-sharded
// table so concurrent READs on distinct files never contend on a lock.
func ScaledNfsheur() NfsheurParams { return nfsheur.ScaledParams() }

// Testbed assembly (paper §4).
type (
	// Testbed is the assembled simulation of the paper's rig.
	Testbed = testbed.TB
	// Options selects disk, partition, scheduler, TCQ, transport,
	// heuristics and client load.
	Options = testbed.Options
	// ServerConfig tunes the simulated NFS server (Options.Server): its
	// read-ahead heuristic, nfsheur table and read-ahead window.
	ServerConfig = nfsserver.Config
	// DiskKind names one of the paper's drives.
	DiskKind = testbed.DiskKind
)

// The paper's two test drives.
const (
	SCSI = testbed.SCSI
	IDE  = testbed.IDE
)

// NewTestbed assembles a testbed.
func NewTestbed(opts Options) (*Testbed, error) { return testbed.New(opts) }

// Disk models (paper §4.1), usable standalone for ZCAV studies.
type DiskModel = disk.Model

// SCSIModel returns the IBM DDYS-T36950N model.
func SCSIModel() *DiskModel { return disk.IBMDDYS36950() }

// IDEModel returns the WD WD200BB model.
func IDEModel() *DiskModel { return disk.WD200BB() }

// Workloads (paper §4.2, §7).
type WorkloadResult = workload.Result

// CreateFileSet populates fs with the paper's benchmark files, scaled
// down by scale (1 = full size).
var CreateFileSet = workload.CreateFileSet

// FilesFor names the files the n-reader iteration reads.
var FilesFor = workload.FilesFor

// RunLocalReaders runs concurrent local sequential readers (Figs 1-3).
var RunLocalReaders = workload.RunLocalReaders

// RunNFSReaders runs concurrent NFS sequential readers (Figs 4-7).
var RunNFSReaders = workload.RunNFSReaders

// RunNFSStrideReader runs the §7 stride reader (Fig 8 / Table 1).
var RunNFSStrideReader = workload.RunNFSStrideReader

// ReaderCounts is the paper's sweep of concurrent reader counts.
var ReaderCounts = workload.ReaderCounts

// Experiments (every table and figure, plus ablations).
type (
	// Experiment is one named reproduction.
	Experiment = bench.Experiment
	// BenchParams controls runs, scale and seeding.
	BenchParams = bench.Params
	// BenchResult is a reproduced figure/table with formatting helpers.
	BenchResult = bench.Result
)

// Experiments lists all reproductions in paper order.
func Experiments() []Experiment { return bench.Experiments() }

// LookupExperiment finds a reproduction by ID ("fig1" .. "table1",
// "ablate-*").
func LookupExperiment(id string) (Experiment, bool) { return bench.Lookup(id) }

// Run comparison with variance discipline (`nfsbench compare`).
type (
	// BenchArtifact is the JSON document nfsbench -json writes.
	BenchArtifact = bench.Artifact
	// CompareOptions parameterizes a comparison (alpha, confidence,
	// effect floor, bootstrap resamples).
	CompareOptions = bench.CompareOptions
	// Comparison is a cell-by-cell comparison of two runs, with a gate
	// verdict that only flags differences beyond run-to-run noise.
	Comparison = bench.Comparison
	// CellDelta is one compared cell: medians, bootstrap intervals,
	// Mann-Whitney p, verdict.
	CellDelta = bench.CellDelta
)

// LoadBenchArtifact reads an nfsbench -json artifact from disk.
func LoadBenchArtifact(path string) (*BenchArtifact, error) { return bench.LoadArtifact(path) }

// CompareBenchArtifacts pairs every cell of two runs by (experiment,
// series, x) and tests each pair: Mann-Whitney U on the raw runs plus
// bootstrap confidence intervals on the median shift. Only differences
// that clear noise are flagged; Regressions() is what a CI gate fails
// on.
func CompareBenchArtifacts(old, new *BenchArtifact, opt CompareOptions) *Comparison {
	return bench.CompareArtifacts(old, new, opt)
}

// Tracing (the measurement methodology behind the paper's §6).
type (
	// Tracer records NFS requests at the simulated server
	// (nfsserver.Config.Tracer).
	Tracer = nfstrace.Tracer
	// TraceRecord is one traced request.
	TraceRecord = nfstrace.Record
	// TraceAnalysis summarizes reordering and sequentiality.
	TraceAnalysis = nfstrace.Analysis
)

// AnalyzeTrace computes reordering/sequentiality metrics over READ
// records.
func AnalyzeTrace(records []TraceRecord) TraceAnalysis {
	return nfstrace.Analyze(records, nfsproto.ProcRead)
}

// Live mode: the same protocol stack over real loopback sockets,
// layered as rpcnet (transport) → nfsd (dispatch: proc switch,
// heuristics, write gathering, tracing) → a pluggable storage backend
// (StorageBackend): the in-memory LiveFS or the ZCAV disk-backed
// ZoneFS. The whole stack is safe for concurrent use: the service's
// READ path takes no global lock (heuristic state is striped across
// the nfsheur table's shards), and a client pipelines concurrent calls
// over one connection, demultiplexing replies by XID. "nfsbench -exp
// live-scale" measures this path as concurrent clients grow;
// "nfsbench -exp zcav-live" demonstrates the ZCAV and cache-warmth
// traps on it.
type (
	// StorageBackend is the contract a store must meet to be mounted
	// behind the live dispatch layer (copy-on-write read views,
	// deferred durability via Commit; see internal/vfs).
	StorageBackend = vfs.Backend
	// LiveConfig assembles a live service around any backend:
	// heuristic, nfsheur table, write-gather configuration, read-ahead
	// cap, DRC and metrics registry. The zero value is SlowDown over a
	// GOMAXPROCS-sharded ScaledNfsheur table, write-through, no DRC.
	LiveConfig = nfsd.Config
	// LiveServerOptions adds a capture tap or wire faults to a live
	// server (its Spans field is set by ServeLive).
	LiveServerOptions = rpcnet.ServerOptions
	// LiveFS is an in-memory file store for the live service.
	LiveFS = memfs.FS
	// ZoneFS is a disk-backed store: files placed by LBA on a
	// simulated zoned drive behind a block buffer cache, so live reads
	// pay real elapsed time that depends on zone placement and cache
	// warmth.
	ZoneFS = zonefs.FS
	// ZoneConfig selects the drive model, placement, cache size and
	// scheduler for a ZoneFS.
	ZoneConfig = zonefs.Config
	// ZonePlacement picks the outer or inner quarter of the drive.
	ZonePlacement = zonefs.Placement
	// LiveService serves NFS v3 over rpcnet with real heuristics. Safe
	// for concurrent use; its hot path holds no global lock.
	LiveService = nfsd.Service
	// LiveClient is an NFS client for the live service, safe for
	// concurrent use by multiple goroutines (calls are pipelined).
	LiveClient = memfs.Client
	// RPCServer is the underlying UDP+TCP ONC RPC server.
	RPCServer = rpcnet.Server
)

// Zone placements for ZoneConfig.
const (
	ZoneOuter = zonefs.Outer
	ZoneInner = zonefs.Inner
)

// NewZoneFS returns an empty disk-backed store (zero-value config:
// the paper's IDE drive, outer placement, 64 MB cache).
func NewZoneFS(cfg ZoneConfig) *ZoneFS { return zonefs.New(cfg) }

// NewLiveService mounts a LiveFS or ZoneFS behind the live dispatch
// layer; LiveConfig{Table: NewNfsheurTable(ImprovedNfsheur())} gives
// the paper's single table. Close it to stop the write-gather flusher
// and flush remaining dirty data.
func NewLiveService(b StorageBackend, cfg LiveConfig) *LiveService {
	return nfsd.New(b, cfg)
}

// LiveFH is a live-service file handle.
type LiveFH = nfsproto.FH

// LiveRootFH is the live service's root directory handle.
const LiveRootFH = memfs.RootFH

// NewLiveFS returns an empty in-memory store.
func NewLiveFS() *LiveFS { return memfs.NewFS() }

// ServeLive binds addr (e.g. "127.0.0.1:0") and serves svc over real
// UDP and TCP sockets, with the DRC and stage spans its LiveConfig
// chose; opts adds a trace capture tap or wire faults.
func ServeLive(addr string, svc *LiveService, opts LiveServerOptions) (*RPCServer, error) {
	return nfsd.NewServer(addr, svc, opts)
}

// DialLive connects to a live service over "udp" or "tcp".
func DialLive(network, addr string) (*LiveClient, error) {
	return memfs.DialClient(network, addr)
}

// The asynchronous write path (RFC 1813's UNSTABLE WRITE + COMMIT) with
// server-side write gathering: UNSTABLE writes land in the page cache
// and their stable-storage flush is deferred inside a configurable
// gather window, during which adjacent/overlapping dirty ranges
// coalesce — the write half of the paper's server-side tricks.
// "nfsbench -exp write-path" sweeps the gather window against a
// throttled sink.
type (
	// WriteGatherConfig configures the live service's gathering engine:
	// gather window (0 = synchronous write-through), per-file and total
	// dirty-byte bounds, the stable-storage sink and the verifier seed.
	WriteGatherConfig = wgather.Config
	// WriteGatherStats counts writes by stability, commits, sink
	// flushes and bytes gathered/coalesced/flushed.
	WriteGatherStats = wgather.Stats
	// StableSink is pluggable stable storage for the gathering engine.
	StableSink = wgather.Sink
	// MemStableSink retains flushed bytes (the observable "disk" of the
	// crash/rewrite tests).
	MemStableSink = wgather.MemSink
	// ThrottledStableSink charges a latency/bandwidth cost per flush —
	// the disk-like sink gathering wins against.
	ThrottledStableSink = wgather.ThrottledSink
	// LiveWriteBehind is the client-side biod-style pipeline: bounded
	// in-flight UNSTABLE writes, COMMIT with verifier checking, and
	// automatic rewrite after a server reboot.
	LiveWriteBehind = memfs.WriteBehind
)

// NewMemStableSink returns an empty retaining sink.
func NewMemStableSink() *MemStableSink { return wgather.NewMemSink() }

// Unified observability: every layer publishes into one ObsRegistry —
// lock-free sharded counters, log-bucketed latency histograms, and
// per-request stage spans (receive → decode → drc → execute → backend →
// disk → gather → reply) whose stage durations sum exactly to the
// end-to-end latency. The registry's Dump is the single source for the
// Prometheus /metrics text, the /statsz JSON and the human-readable
// final-stats lines, so no two views can disagree. Instrumentation adds
// zero allocations to the live READ path (pinned by test).
type (
	// ObsRegistry is the process-wide metrics registry. Pass it as
	// LiveConfig.Obs to instrument a live service.
	ObsRegistry = obs.Registry
	// ObsHistogram is a mergeable log-bucketed latency histogram with
	// lock-free recording and p50/p90/p99/p999 summaries.
	ObsHistogram = obs.Histogram
	// ObsCounter is a cache-line-sharded counter for hot-path counting.
	ObsCounter = obs.Counter
	// ObsSpan carries one request's per-stage latency decomposition.
	ObsSpan = obs.Span
	// ObsSpanTable records finished spans into per-procedure, per-stage
	// histograms and owns the slow-op log.
	ObsSpanTable = obs.SpanTable
	// ObsStage names one segment of the request path.
	ObsStage = obs.Stage
	// ObsAdminServer serves /metrics, /statsz and /debug/pprof.
	ObsAdminServer = obs.AdminServer
)

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// ServeObsAdmin serves reg on addr: /metrics (Prometheus text
// exposition), /statsz (JSON snapshot) and /debug/pprof/* (live CPU,
// heap and trace profiles). Safe to query concurrently with traffic.
func ServeObsAdmin(addr string, reg *ObsRegistry) (*ObsAdminServer, error) {
	return obs.ServeAdmin(addr, reg)
}

// ServeObsAdminMeta is ServeObsAdmin with an identity block: meta (any
// JSON-marshalable value, typically environment metadata) is rendered
// under "meta" in every /statsz response alongside the process uptime.
func ServeObsAdminMeta(addr string, reg *ObsRegistry, meta any) (*ObsAdminServer, error) {
	return obs.ServeAdminMeta(addr, reg, meta)
}

// Trace capture & replay: record the live server's real request stream
// to a compact on-disk trace (.nft) and replay it as a first-class
// benchmark workload ("nfsbench -exp trace-replay"; cmd/nfstrace is the
// CLI for capture/info/analyze/replay).
type (
	// TraceFileRecord is one on-disk trace record (arrival time, stream,
	// proc, FH, offset, count, status, latency).
	TraceFileRecord = tracefile.Record
	// TraceFileWriter streams records to a .nft file with a pooled
	// zero-allocation append path.
	TraceFileWriter = tracefile.Writer
	// TraceCapture bridges a live server's RPC tap to a trace writer.
	TraceCapture = nfstrace.Capture
	// ReplayOptions selects transport, timing policy (as-fast /
	// faithful / scaled) and open- vs closed-loop dispatch.
	ReplayOptions = replay.Options
	// ReplayStats summarizes a replay run (ops/s, latency percentiles,
	// issue-span fidelity).
	ReplayStats = replay.Stats
)

// CreateTrace opens a .nft trace file for writing.
func CreateTrace(path string) (*TraceFileWriter, error) {
	return tracefile.Create(path, time.Now())
}

// NewTraceCapture wraps a trace writer; serve with
// ServeLive(addr, svc, LiveServerOptions{Tap: capture.Tap}) to record
// every served RPC.
func NewTraceCapture(w *TraceFileWriter) *TraceCapture {
	return nfstrace.NewCapture(w)
}

// ReadTraceFile loads a captured trace.
func ReadTraceFile(path string) ([]TraceFileRecord, error) {
	_, recs, err := tracefile.ReadFile(path)
	return recs, err
}

// AnalyzeTraceFile runs the §6 reordering/sequentiality analysis over a
// captured live trace.
func AnalyzeTraceFile(path string) (TraceAnalysis, error) {
	return nfstrace.AnalyzeFile(path)
}

// ReplayTrace replays captured records against a live server.
func ReplayTrace(records []TraceFileRecord, opts ReplayOptions) (*ReplayStats, error) {
	return replay.Run(records, opts)
}

// ReplayTraceFile replays a trace file against a live server.
func ReplayTraceFile(path string, opts ReplayOptions) (*ReplayStats, error) {
	return replay.File(path, opts)
}

// The fault-tolerant RPC path: seeded wire-fault injection on the live
// transports, a server-side duplicate request cache (replay the
// original reply to a retransmitted non-idempotent call instead of
// re-executing it), and the client's unified retransmission layer
// (same-XID resend, Jacobson-estimated RTO, exponential backoff,
// major timeout). "nfsbench -exp fault-path" sweeps loss x transport x
// DRC over this stack and asserts zero duplicated side effects with
// the cache on.
type (
	// FaultConfig parameterizes the injector: per-message probabilities
	// for drop/dup/delay/truncate (UDP) and stall/reset (TCP), plus a
	// seed making the decision stream reproducible.
	FaultConfig = rpcnet.FaultConfig
	// FaultInjector draws seeded per-message fault decisions; plug one
	// into LiveServerOptions.Faults (server side) or DialLiveRetry
	// (client side).
	FaultInjector = rpcnet.FaultInjector
	// FaultStats counts messages examined and faults injected in one
	// direction (FaultDirIn/FaultDirOut).
	FaultStats = rpcnet.FaultStats
	// RetryPolicy bounds the client retransmission loop: transmissions
	// per call, initial RTO before an RTT sample, RTO clamp, jitter.
	RetryPolicy = rpcnet.RetryPolicy
	// RetryStats counts calls, retransmissions, send failures and major
	// timeouts.
	RetryStats = rpcnet.RetryStats
	// RPCRetrier is the retransmission layer over one RPC client.
	RPCRetrier = rpcnet.Retrier
	// DRCConfig switches the live service's duplicate request cache on
	// and budgets it.
	DRCConfig = nfsd.DRCConfig
	// DRCStats counts cache hits (replays), misses, busy-drops,
	// evictions and occupancy.
	DRCStats = drc.Stats
)

// Fault injector stat directions.
const (
	FaultDirIn  = rpcnet.DirIn
	FaultDirOut = rpcnet.DirOut
)

// Typed wire errors for errors.Is: a transmission that died at the
// socket, a reply that never came, and a call abandoned after its
// transmit budget.
var (
	ErrRPCSendFailed   = rpcnet.ErrSendFailed
	ErrRPCReplyTimeout = rpcnet.ErrReplyTimeout
	ErrRPCMajorTimeout = rpcnet.ErrMajorTimeout
)

// NewFaultInjector builds a seeded injector for cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return rpcnet.NewFaultInjector(cfg)
}

// ParseFaultSpec parses the CLI fault syntax, e.g.
// "drop=0.05,dup=0.01,delay=0.02:1ms-5ms,stall=0.05:20ms".
func ParseFaultSpec(spec string) (FaultConfig, error) {
	return rpcnet.ParseFaultSpec(spec)
}

// DialLiveRetry is DialLive with the unified retransmission layer on
// every call (and, optionally, client-side wire faults). The zero
// RetryPolicy gets kernel-ish defaults.
func DialLiveRetry(network, addr string, policy RetryPolicy, faults *FaultInjector) (*LiveClient, error) {
	return memfs.DialClientRetry(network, addr, policy, faults)
}

// Scale-out: the namespace sharded across N in-process nfsd instances
// by consistent hashing on file handle (the nfsheur lock-striping
// pattern lifted to process level), coordinated by a tiny control
// plane that hands shard-aware clients a versioned shard map. Stale
// clients are redirected with the version to refresh to, so a shard
// drain mid-traffic completes with zero failed operations
// ("nfsbench -exp cluster-scale"; "nfsserve -cluster N").
type (
	// Cluster is the in-process shard group plus its control plane.
	Cluster = cluster.Cluster
	// ClusterConfig sizes a cluster (shard count, bind addresses).
	ClusterConfig = cluster.Config
	// ClusterClient routes calls by handle, chases wrong-shard
	// redirects, and refreshes its map from the control plane.
	ClusterClient = cluster.Client
	// ClusterMap is one version of the shard layout: strictly
	// monotonic versions over a consistent-hash ring.
	ClusterMap = cluster.Map
	// ClusterShardInfo is one shard's map entry (id, address).
	ClusterShardInfo = cluster.ShardInfo
)

// NewCluster starts an in-process cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(cfg)
}

// DialCluster connects a shard-aware client via the control plane.
func DialCluster(network, ctrlAddr string) (*ClusterClient, error) {
	return cluster.DialClient(network, ctrlAddr)
}
