package main

import "nfstricks/internal/nfsproto"

// layerMetric is one per-layer metric a traced run reports.
type layerMetric struct {
	name string
	unit string
}

// Procedures the per-layer tables break down by. clientProcs are the
// ones the benchmark issues one at a time from its own client, so a
// client call can be paired with the server span it caused; WRITE and
// COMMIT go through memfs.WriteBehind's pipeline, where calls overlap
// and "call time minus handler time" has no meaning.
var (
	clientProcs = []uint32{
		nfsproto.ProcRead, nfsproto.ProcGetattr, nfsproto.ProcSetattr,
		nfsproto.ProcLookup, nfsproto.ProcCreate, nfsproto.ProcRemove,
		nfsproto.ProcRename, nfsproto.ProcReaddir, nfsproto.ProcReaddirplus,
	}
	serverProcs = append([]uint32{nfsproto.ProcWrite, nfsproto.ProcCommit}, clientProcs...)
)

// Backend calls the vfs.Backend wrapper times, by index.
const (
	callReadAt = iota
	callWriteAt
	callCommit
	callLookup
	callGetattr
	callSetattr
	callCreateSized
	callRemove
	callRename
	callReaddir
	callCreate
	callMkdir
	callAccess
	callFsstat
	numCalls
)

var callNames = [numCalls]string{
	"ReadAt", "WriteAt", "Commit", "Lookup", "Getattr", "Setattr",
	"CreateSized", "Remove", "Rename", "Readdir", "Create", "Mkdir",
	"Access", "Fsstat",
}

// reportedCalls are the backend calls the workloads drive.
var reportedCalls = []int{
	callReadAt, callWriteAt, callCommit, callLookup, callGetattr,
	callSetattr, callCreateSized, callRemove, callRename, callReaddir,
}

// cpuPackages are the buckets of the traced run's CPU profile: each
// sample is charged to the innermost frame in one of the repository's
// packages (so memmove under memfs.Write is memfs time); samples with
// no such frame (GC workers, the scheduler, netpoll) are runtime.
var cpuPackages = []string{
	"rpcnet", "sunrpc", "xdr", "nfsproto", "nfsd", "drc", "wgather",
	"nfsheur", "readahead", "obs", "memfs", "sim", "netsim", "nfsclient",
	"nfsserver", "ffs", "buffercache", "iosched", "disk", "perfbench",
	"runtime", "other",
}

// simMetrics are the simulated stack's counters (one fig7 grid pass).
var simMetrics = []layerMetric{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"netsim.datagrams", "count"},
	{"netsim.datagrams_lost", "count"},
	{"nfsclient.calls", "count"},
	{"nfsclient.retrans", "count"},
	{"nfsclient.readaheads", "count"},
	{"nfsserver.reordered_reads", "count"},
	{"disk.commands", "count"},
	{"disk.repositions", "count"},
	{"buffercache.hits", "count"},
	{"buffercache.misses", "count"},
	{"iosched.avg_wait_ms", "ms"},
}

// endToEnd is every metric an untraced run prints. Each workload reports
// all four, with "op" its own primary operation (README.md):
// setup_s is the cold set-up from process start through warm-up,
// peak_rss_mb the process's peak resident set, ops_s the median over
// the run's rounds of primary operations per second, and op_p50_us the
// median latency of the workload's primary latency unit.
var endToEnd = []layerMetric{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_s", "ops/s"},
	{"op_p50_us", "us"},
}

// perLayerMetrics is every metric a traced run prints, in the order
// BENCHMARK.json lists them. A layer that does no work on a workload
// reports 0.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []layerMetric {
	var out []layerMetric
	add := func(name, unit string) { out = append(out, layerMetric{name, unit}) }
	add("rpcnet.calls", "count")
	for _, p := range clientProcs {
		add("rpcnet.self_us."+nfsproto.ProcName(p), "us")
	}
	for _, p := range serverProcs {
		add("nfsproto.encode_ns."+nfsproto.ProcName(p), "ns")
	}
	for _, p := range clientProcs {
		add("nfsproto.decode_ns."+nfsproto.ProcName(p), "ns")
	}
	for _, p := range serverProcs {
		add("nfsd.self_us."+nfsproto.ProcName(p), "us")
	}
	for _, p := range serverProcs {
		add("nfsd.executed."+nfsproto.ProcName(p), "count")
	}
	add("nfsd.max_seqcount", "count")
	add("nfsheur.hits", "count")
	add("nfsheur.misses", "count")
	add("nfsheur.ejections", "count")
	for _, c := range reportedCalls {
		add("memfs.us."+callNames[c], "us")
	}
	add("memfs.readdir_ns_per_entry", "ns")
	add("wgather.flushes", "count")
	add("wgather.flushes_per_commit", "count")
	add("wgather.coalesced_bytes", "B")
	add("wgather.flush_us", "us")
	add("drc.misses", "count")
	add("drc.hits", "count")
	add("drc.busy", "count")
	add("drc.evictions", "count")
	add("runtime.alloc_bytes_per_op", "B")
	add("runtime.allocs_per_op", "count")
	add("runtime.gc_cpu_share", "share")
	for _, p := range cpuPackages {
		add("cpu."+p, "share")
	}
	out = append(out, simMetrics...)
	add("trace.spans", "count")
	add("trace.overhead_ops_s_pct", "%")
	add("trace.overhead_op_p50_pct", "%")
	add("trace.setup_s", "s")
	add("trace.peak_rss_mb", "MB")
	return out
}
