// Package nfstricks reproduces "NFS Tricks and Benchmarking Traps"
// (Daniel Ellard and Margo Seltzer, FREENIX track, USENIX 2003): the
// SlowDown and cursor-based NFS read-ahead heuristics, the nfsheur
// table fix, and the paper's catalogue of benchmarking traps (ZCAV,
// tagged command queues, disk scheduler fairness, UDP vs TCP), all on a
// deterministic discrete-event simulation of the paper's testbed.
//
// The package is a small facade over the implementation packages,
// exporting what the examples use:
//
//   - Heuristics (the paper's contribution): [Default], [SlowDown],
//     [Always] and [CursorHeuristic], and [ImprovedNfsheur], the
//     paper's enlarged nfsheur table.
//   - Testbed: [NewTestbed] assembles the paper's server, disks,
//     network and client; [Options] exposes every knob the paper turns,
//     and [RunNFSReaders] and its siblings run the paper's workloads.
//   - Live mode: [NewLiveService], [ServeLive] and [DialLive] run the
//     same protocol stack over real loopback sockets.
//
// The experiments, trace capture and replay, fault injection,
// observability and the sharded cluster are driven from the command
// line (cmd/nfsbench, cmd/nfsserve, cmd/nfstrace).
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
	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsserver"
	"nfstricks/internal/readahead"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/testbed"
	"nfstricks/internal/vfs"
	"nfstricks/internal/workload"
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

// NfsheurParams configures the nfsheur table's geometry and shard
// count (paper §6.3).
type NfsheurParams = nfsheur.Params

// ImprovedNfsheur is the paper's enlarged table.
func ImprovedNfsheur() NfsheurParams { return nfsheur.ImprovedParams() }

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

// Workloads (paper §4.2, §7).

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

// Live mode: the same protocol stack over real loopback sockets,
// layered as rpcnet (transport) → nfsd (dispatch: proc switch,
// heuristics, write gathering, tracing) → a pluggable storage backend
// (StorageBackend), here the in-memory LiveFS. The whole stack is safe
// for concurrent use: the service's READ path takes no global lock,
// and a client pipelines concurrent calls over one connection,
// demultiplexing replies by XID.
type (
	// StorageBackend is the contract a store must meet to be mounted
	// behind the live dispatch layer (see internal/vfs).
	StorageBackend = vfs.Backend
	// LiveConfig assembles a live service around any backend:
	// heuristic, nfsheur table, write-gather configuration, DRC and
	// metrics registry. The zero value is SlowDown over a
	// GOMAXPROCS-sharded nfsheur table, write-through, no DRC.
	LiveConfig = nfsd.Config
	// LiveServerOptions adds a capture tap or wire faults to a live
	// server (its Spans field is set by ServeLive).
	LiveServerOptions = rpcnet.ServerOptions
	// LiveFS is an in-memory file store for the live service.
	LiveFS = memfs.FS
	// LiveService serves NFS v3 over rpcnet with real heuristics. Safe
	// for concurrent use; its hot path holds no global lock.
	LiveService = nfsd.Service
	// LiveClient is an NFS client for the live service, safe for
	// concurrent use by multiple goroutines (calls are pipelined).
	LiveClient = memfs.Client
	// RPCServer is the underlying UDP+TCP ONC RPC server.
	RPCServer = rpcnet.Server
)

// NewLiveService mounts a backend behind the live dispatch layer.
// Close it to stop the write-gather flusher and flush remaining dirty
// data.
func NewLiveService(b StorageBackend, cfg LiveConfig) *LiveService {
	return nfsd.New(b, cfg)
}

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
