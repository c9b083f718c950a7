// Package nfsd is the backend-agnostic live NFS dispatch layer: it
// owns the procedure switch, per-procedure counters, the nfsheur
// read-ahead table and its per-shard heuristics, the write-gathering
// engine, and the capture-tap server wiring — everything between the
// RPC transport (rpcnet) and a storage backend (vfs.Backend). Any
// backend mounted behind it gets write gathering, tracing, stats and
// heuristic-driven read-ahead for free; internal/memfs provides the
// in-memory backend, internal/zonefs the ZCAV disk-backed one.
//
// The hot path holds no global lock: heuristic state is striped across
// the nfsheur table's shards (one forked heuristic per shard, mutated
// only under that shard's lock), counters are atomics, and file data
// access is whatever the backend does (memfs reads under an RWMutex
// read lock only).
package nfsd

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nfstricks/internal/drc"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
	"nfstricks/internal/readahead"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/sunrpc"
	"nfstricks/internal/vfs"
	"nfstricks/internal/wgather"
)

// Config assembles a Service. The zero value is the live default:
// SlowDown heuristic, GOMAXPROCS-sharded nfsheur table, synchronous
// write-through (gather window 0) with durability delegated to the
// backend's Commit.
type Config struct {
	// Heuristic computes per-READ seqcounts (nil = readahead.SlowDown).
	Heuristic readahead.Heuristic
	// Table is the nfsheur table (nil = nfsheur.ScaledParams; pass
	// Shards: 1 to reproduce the paper's single-table behaviour).
	Table *nfsheur.Table
	// Gather configures the write-gathering engine (window, byte
	// bounds, sink, verifier seed). Gather.Source is always the
	// backend — any caller value is ignored. Gather.Sink, when set,
	// observes every flush before the backend's Commit is charged.
	Gather wgather.Config
	// DRC configures the duplicate request cache shielding
	// non-idempotent procedures (CREATE/MKDIR/REMOVE/RENAME) from
	// retransmissions. Off by default: a loopback bench with no fault
	// injection should not pay for a cache it cannot hit.
	DRC DRCConfig
	// Obs, when non-nil, is the observability registry this service
	// publishes into: per-proc executed counters, byte counters, write
	// gathering and DRC stats (all as snapshot-time funcs over the
	// existing atomics — the hot path is unchanged), a gather-flush
	// latency histogram, and the per-proc stage span table (see
	// Service.SpanTable). Nil = no metrics, no cost.
	Obs *obs.Registry
}

// DRCConfig enables and bounds the duplicate request cache.
type DRCConfig struct {
	// Enabled turns the cache on.
	Enabled bool
	// MaxBytes budgets retained replies (0 = drc.DefaultMaxBytes).
	MaxBytes int
}

// Stats counts live-service activity.
type Stats struct {
	Reads     int64
	BytesRead int64
	// MaxSeqCount is the highest seqcount the heuristic produced — a
	// live view of read-ahead confidence.
	MaxSeqCount int
	// Writes and BytesWritten count served WRITE RPCs (any stability);
	// Commits counts served COMMITs. The per-stability split and the
	// gather/flush accounting live in Service.WriteStats.
	Writes       int64
	BytesWritten int64
	Commits      int64
}

// Service adapts a vfs.Backend to an rpcnet.InfoHandler speaking the NFS
// v3 subset, running a real nfsheur table + heuristic on the READ path
// and the write-gathering engine on the WRITE path. Safe for
// concurrent use by multiple goroutines.
type Service struct {
	b     vfs.Backend
	table *nfsheur.Table
	// heur has one heuristic per table shard; heur[i] is only used
	// while shard i's lock is held, which makes stateful heuristics
	// (cursor) race-free without any lock of their own.
	heur []readahead.Heuristic
	// engine is the write-gathering engine every WRITE and COMMIT
	// routes through. The default (gather window 0) is write-through:
	// each write is durable before its reply, the behaviour the live
	// service had before the engine existed.
	engine *wgather.Engine
	// dupcache, when non-nil, shields non-idempotent procedures from
	// retransmissions (see InfoHandler).
	dupcache *drc.Cache
	// spans is the per-proc stage span table (nil without Config.Obs);
	// the transport drives span lifecycle (rpcnet.ServerOptions.Spans),
	// the dispatch path marks the stages it owns.
	spans *obs.SpanTable
	// spanReader caches the backend's optional stage-attribution
	// capability, asserted once at mount so the READ path pays a nil
	// check instead of a per-request type assertion.
	spanReader vfs.SpanReader

	reads        atomic.Int64
	bytesRead    atomic.Int64
	maxSeq       atomic.Int64
	writes       atomic.Int64
	bytesWritten atomic.Int64
	commits      atomic.Int64
	// procs counts served RPCs by procedure number (garbage-args and
	// unknown procedures excluded).
	procs [nfsproto.ProcCommit + 1]atomic.Int64
}

// backendSink routes the gathering engine's flushes into the backend's
// durability path: the optional observer sink (Config.Gather.Sink)
// sees the bytes first, then the backend's Commit is charged for the
// range. For memfs Commit is free; for zonefs it is the disk.
type backendSink struct {
	b     vfs.Backend
	inner wgather.Sink
	// hist, when non-nil, records each flush's wall time (observer sink
	// plus backend Commit) — the durability cost a deferred write pays.
	hist *obs.Histogram
}

func (s backendSink) Flush(fh uint64, off uint64, data []byte) error {
	if s.hist == nil {
		return s.flush(fh, off, data)
	}
	start := time.Now()
	err := s.flush(fh, off, data)
	s.hist.Observe(time.Since(start))
	return err
}

func (s backendSink) flush(fh uint64, off uint64, data []byte) error {
	if s.inner != nil {
		if err := s.inner.Flush(fh, off, data); err != nil {
			return err
		}
	}
	return s.b.Commit(nfsproto.FH(fh), off, uint32(len(data)))
}

// New wraps backend b in a Service.
func New(b vfs.Backend, cfg Config) *Service {
	if cfg.Heuristic == nil {
		cfg.Heuristic = readahead.SlowDown{}
	}
	if cfg.Table == nil {
		cfg.Table = nfsheur.New(nfsheur.ScaledParams())
	}
	gcfg := cfg.Gather
	gcfg.Source = func(fh, off uint64, count uint32) ([]byte, error) {
		data, _, _, err := b.ReadAt(nfsproto.FH(fh), off, count, 0)
		if errors.Is(err, vfs.ErrStale) {
			// The file vanished between the write and its flush (a
			// CREATE replaced it): nothing left to persist. Empty data
			// tells the engine to skip the extent rather than latch a
			// sticky asynchronous error.
			return nil, nil
		}
		return data, err
	}
	// A nil registry hands out a nil histogram, which the sink treats as
	// "don't time flushes".
	gcfg.Sink = backendSink{b: b, inner: cfg.Gather.Sink,
		hist: cfg.Obs.Histogram("wgather_flush_latency")}
	engine, err := wgather.New(gcfg)
	if err != nil {
		// Source and Sink are set above; Config has no other invalid
		// states.
		panic(err)
	}
	// ForkN gives every shard its own heuristic instance (or a safely
	// shared one), so the service never races on the caller's value.
	svc := &Service{
		b:      b,
		table:  cfg.Table,
		heur:   readahead.ForkN(cfg.Heuristic, cfg.Table.ShardCount()),
		engine: engine,
	}
	if cfg.DRC.Enabled {
		svc.dupcache = drc.New(drc.Config{MaxBytes: cfg.DRC.MaxBytes})
	}
	svc.spanReader, _ = b.(vfs.SpanReader)
	if cfg.Obs != nil {
		procs := make([]string, len(svc.procs))
		for i := range procs {
			procs[i] = nfsproto.ProcName(uint32(i))
		}
		svc.spans = cfg.Obs.Spans("nfsd_op", procs)
		svc.register(cfg.Obs)
	}
	return svc
}

// register publishes the service's counters into the registry as
// snapshot-time funcs over the existing atomics.
func (s *Service) register(reg *obs.Registry) {
	for i := range s.procs {
		proc := uint32(i)
		reg.CounterFunc(
			fmt.Sprintf("nfsd_executed_total{proc=%q}", nfsproto.ProcName(proc)),
			func() int64 { return s.procs[proc].Load() })
	}
	reg.CounterFunc("nfsd_read_bytes_total", s.bytesRead.Load)
	reg.CounterFunc("nfsd_written_bytes_total", s.bytesWritten.Load)
	reg.GaugeFunc("nfsd_max_seqcount", func() float64 { return float64(s.maxSeq.Load()) })

	reg.CounterFunc(`wgather_writes_total{stability="unstable"}`,
		func() int64 { return s.engine.Stats().WritesUnstable })
	reg.CounterFunc(`wgather_writes_total{stability="datasync"}`,
		func() int64 { return s.engine.Stats().WritesDataSync })
	reg.CounterFunc(`wgather_writes_total{stability="filesync"}`,
		func() int64 { return s.engine.Stats().WritesFileSync })
	reg.CounterFunc("wgather_flushes_total",
		func() int64 { return s.engine.Stats().Flushes })
	reg.CounterFunc("wgather_flushed_bytes_total",
		func() int64 { return s.engine.Stats().FlushedBytes })
	reg.CounterFunc("wgather_gathered_bytes_total",
		func() int64 { return s.engine.Stats().GatheredBytes })
	reg.CounterFunc("wgather_coalesced_bytes_total",
		func() int64 { return s.engine.Stats().CoalescedBytes })
	reg.CounterFunc("wgather_reboots_total",
		func() int64 { return s.engine.Stats().Reboots })
	reg.GaugeFunc("wgather_dirty_bytes",
		func() float64 { return float64(s.engine.Stats().DirtyBytes) })

	if s.dupcache != nil {
		reg.CounterFunc("drc_hits_total", func() int64 { return s.dupcache.Stats().Hits })
		reg.CounterFunc("drc_misses_total", func() int64 { return s.dupcache.Stats().Misses })
		reg.CounterFunc("drc_busy_total", func() int64 { return s.dupcache.Stats().Busy })
		reg.CounterFunc("drc_evictions_total", func() int64 { return s.dupcache.Stats().Evictions })
		reg.CounterFunc("drc_bypasses_total", func() int64 { return s.dupcache.Stats().Bypasses })
		reg.GaugeFunc("drc_entries", func() float64 { return float64(s.dupcache.Stats().Entries) })
		reg.GaugeFunc("drc_bytes", func() float64 { return float64(s.dupcache.Stats().Bytes) })
	}
}

// SpanTable exposes the service's per-proc stage span table (nil
// without Config.Obs). Hand it to rpcnet.ServerOptions.Spans so the
// transport acquires and finishes a span around every call; the
// dispatch path marks its stages through rpcnet.CallInfo.Span.
func (s *Service) SpanTable() *obs.SpanTable { return s.spans }

// Backend exposes the mounted storage backend.
func (s *Service) Backend() vfs.Backend { return s.b }

// Table exposes the service's nfsheur table (for instrumentation).
func (s *Service) Table() *nfsheur.Table { return s.table }

// WriteStats exposes the write-gathering engine's counters: writes by
// stability, commits, sink flushes, bytes gathered vs coalesced vs
// flushed.
func (s *Service) WriteStats() wgather.Stats { return s.engine.Stats() }

// WriteVerifier returns the server's current write verifier.
func (s *Service) WriteVerifier() uint64 { return s.engine.Verifier() }

// Reboot simulates a server crash/restart on the write path: dirty
// uncommitted data is dropped and the write verifier changes, so
// clients holding unstable writes must detect the new verifier and
// re-send. File handles remain valid across a Reboot (NFS FHs survive
// server restarts by design).
func (s *Service) Reboot() { s.engine.Reboot() }

// Flush pushes all dirty data through to the backend without changing
// the verifier (an orderly sync).
func (s *Service) Flush() error { return s.engine.FlushAll() }

// Close stops the gathering engine, flushing remaining dirty data.
func (s *Service) Close() error { return s.engine.Close() }

// ProcCounts returns served-RPC counts indexed by procedure number.
func (s *Service) ProcCounts() []int64 {
	out := make([]int64, len(s.procs))
	for i := range s.procs {
		out[i] = s.procs[i].Load()
	}
	return out
}

// Stats returns a snapshot of the counters. The counters are
// independent atomics (the READ path takes no common lock), so a
// snapshot taken while requests are in flight may be torn by up to a
// request's worth of updates. Quiesce the service for exact
// cross-counter arithmetic.
func (s *Service) Stats() Stats {
	return Stats{
		Reads:        s.reads.Load(),
		BytesRead:    s.bytesRead.Load(),
		MaxSeqCount:  int(s.maxSeq.Load()),
		Writes:       s.writes.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Commits:      s.commits.Load(),
	}
}

// countProc tallies one served RPC for ProcCounts.
func (s *Service) countProc(proc uint32) {
	if proc < uint32(len(s.procs)) {
		s.procs[proc].Add(1)
	}
}

// InfoHandler returns the service's one dispatch entry for the NFS
// program. Results are appended straight into the server's pooled reply
// buffer; a READ payload is a copy-on-write view of the file segment, so
// the append is its single copy between storage and the socket. With the
// duplicate request cache on (Config.DRC), a retransmitted
// non-idempotent call is answered from the cache (Hit), dropped while
// its original executes (Busy — the retransmission's next round finds
// the reply), or executed and its reply retained (Miss). Cache hits,
// garbage args and unknown procedures do NOT count in ProcCounts, so it
// stays "procedures actually executed" — the number an experiment
// checks to assert zero duplicated side effects.
func (s *Service) InfoHandler() rpcnet.InfoHandler {
	return func(info rpcnet.CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
		sp := info.Span
		if s.dupcache == nil || !nfsproto.NonIdempotent(proc) {
			out, stat := s.dispatch(sp, proc, body, reply)
			if stat == sunrpc.AcceptSuccess {
				s.countProc(proc)
			}
			// Residual handler time (reply marshalling, counting) joins
			// the execute stage. The span-routed procedures already
			// marked their stages inside dispatch — their residual is
			// caught by the reply mark, and the hottest path saves a
			// clock read.
			if !spanRouted(proc) {
				sp.Mark(obs.StageExec)
			}
			return out, stat
		}
		key := drc.Key{Client: info.Client, XID: info.XID, Proc: proc,
			Sum: nfsproto.ArgsChecksum(body)}
		outcome, cached, stat := s.dupcache.Begin(key)
		sp.Mark(obs.StageDRC)
		switch outcome {
		case drc.Hit:
			out := append(reply, cached...)
			sp.Mark(obs.StageExec)
			return out, stat
		case drc.Busy:
			return reply, rpcnet.StatDrop
		}
		start := len(reply)
		out, stat := s.dispatch(sp, proc, body, reply)
		if stat == sunrpc.AcceptSuccess {
			s.countProc(proc)
			s.dupcache.Complete(key, out[start:], stat)
		} else {
			// Rejected above the NFS layer (garbage args): nothing worth
			// replaying — release the reservation so a clean retry
			// re-executes.
			s.dupcache.Abort(key)
		}
		// DRC completion and reply bookkeeping join the execute stage
		// (the cache's own lookup cost is already under StageDRC).
		sp.Mark(obs.StageExec)
		return out, stat
	}
}

// DRCEnabled reports whether the duplicate request cache is on.
func (s *Service) DRCEnabled() bool { return s.dupcache != nil }

// DRCStats returns the duplicate request cache's counters (zero when
// the cache is disabled).
func (s *Service) DRCStats() drc.Stats {
	if s.dupcache == nil {
		return drc.Stats{}
	}
	return s.dupcache.Stats()
}

// spanRouted reports whether dispatch threads the span into the
// procedure's handler (which then owns its stage marks).
func spanRouted(proc uint32) bool {
	switch proc {
	case nfsproto.ProcRead, nfsproto.ProcWrite, nfsproto.ProcCommit:
		return true
	}
	return false
}

// dispatch routes one call. sp (nil when spans are off) reaches the
// procedures that cross stage boundaries — READ/WRITE/COMMIT mark
// backend, disk and gather time; everything else runs entirely inside
// the execute stage the caller marks.
func (s *Service) dispatch(sp *obs.Span, proc uint32, body, reply []byte) ([]byte, uint32) {
	switch proc {
	case nfsproto.ProcNull:
		return reply, sunrpc.AcceptSuccess
	case nfsproto.ProcLookup:
		return s.lookup(body, reply)
	case nfsproto.ProcAccess:
		return s.access(body, reply)
	case nfsproto.ProcRead:
		return s.read(sp, body, reply)
	case nfsproto.ProcWrite:
		return s.write(sp, body, reply)
	case nfsproto.ProcCreate:
		return s.create(body, reply)
	case nfsproto.ProcCommit:
		return s.commit(sp, body, reply)
	case nfsproto.ProcGetattr:
		return s.getattr(body, reply)
	case nfsproto.ProcSetattr:
		return s.setattr(body, reply)
	case nfsproto.ProcMkdir:
		return s.mkdir(body, reply)
	case nfsproto.ProcRemove:
		return s.remove(body, reply)
	case nfsproto.ProcRename:
		return s.rename(body, reply)
	case nfsproto.ProcReaddir:
		return s.readdir(body, reply)
	case nfsproto.ProcReaddirplus:
		return s.readdirplus(body, reply)
	case nfsproto.ProcFsstat:
		return s.fsstat(body, reply)
	default:
		return reply, sunrpc.AcceptProcUnavail
	}
}

// fileAttrs fills the regular-file attribute block the data-path
// replies carry.
func fileAttrs(fh nfsproto.FH, size uint64) nfsproto.Fattr {
	return nfsproto.Fattr{Type: nfsproto.TypeReg, Mode: 0644, Nlink: 1,
		Size: size, Used: size, FileID: uint64(fh)}
}

// objAttrs fills the attribute block for any backend object.
func objAttrs(fh nfsproto.FH, a vfs.Attr) nfsproto.Fattr {
	if a.Dir {
		return nfsproto.Fattr{Type: nfsproto.TypeDir, Mode: 0755, Nlink: 2,
			Size: uint64(a.Size), Used: uint64(a.Size), FileID: uint64(fh)}
	}
	return fileAttrs(fh, uint64(a.Size))
}

func (s *Service) lookup(body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalLookupArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	fh, a, lerr := s.b.Lookup(args.Dir, args.Name)
	if lerr != nil {
		res := nfsproto.LookupRes{Status: vfs.Status(lerr)}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	attrs := objAttrs(fh, a)
	res := nfsproto.LookupRes{Status: nfsproto.OK, FH: fh, Attrs: &attrs}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

// access serves ACCESS: directories (the root included) grant the
// directory mask, files grant whatever the backend reports
// (read/modify/extend for the current backends). Clients probe this
// before their first I/O on a handle.
func (s *Service) access(body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalAccessArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	granted, ok := s.b.Access(args.FH, args.Access)
	if !ok {
		res := nfsproto.AccessRes{Status: nfsproto.ErrStale}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	a, _ := s.b.Getattr(args.FH)
	attrs := objAttrs(args.FH, a)
	res := nfsproto.AccessRes{Status: nfsproto.OK, Attrs: &attrs, Access: granted}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

func (s *Service) read(sp *obs.Span, body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalReadArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	if args.Count > nfsproto.MaxData {
		args.Count = nfsproto.MaxData
	}
	if args.FH == 0 {
		// The nfsheur table panics on handle 0; a crafted packet must
		// get a stale-handle error, not crash the server.
		res := nfsproto.ReadRes{Status: nfsproto.ErrStale}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}

	// The paper's code path: nfsheur lookup + heuristic update. The
	// seqcount sizes the read-ahead window handed to the backend (the
	// disk-backed backend turns it into clustered prefetch; memfs
	// ignores it). Only the handle's shard is locked, so reads of
	// distinct files proceed in parallel.
	var seq int
	s.table.Update(uint64(args.FH), func(shard int, e *nfsheur.Entry, found bool) {
		seq = s.heur[shard].Update(&e.State, args.Offset, uint64(args.Count))
	})
	for {
		cur := s.maxSeq.Load()
		if int64(seq) <= cur || s.maxSeq.CompareAndSwap(cur, int64(seq)) {
			break
		}
	}
	s.reads.Add(1)

	ahead := readahead.Window(seq, readahead.DefaultMaxWindow)
	// Argument decode and heuristic work so far is execute time; the
	// backend call is its own stage (with disk time carved out by a
	// SpanReader backend).
	sp.Mark(obs.StageExec)
	var data []byte
	var size uint64
	var eof bool
	var rerr error
	if sp != nil && s.spanReader != nil {
		data, size, eof, rerr = s.spanReader.ReadAtSpan(args.FH, args.Offset, args.Count, ahead, sp)
	} else {
		data, size, eof, rerr = s.b.ReadAt(args.FH, args.Offset, args.Count, ahead)
	}
	sp.Mark(obs.StageBackend)
	if rerr != nil {
		res := nfsproto.ReadRes{Status: nfsproto.ErrStale}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	s.bytesRead.Add(int64(len(data)))
	attrs := fileAttrs(args.FH, size)
	res := nfsproto.ReadRes{Status: nfsproto.OK, Attrs: &attrs,
		Count: uint32(len(data)), EOF: eof, Data: data}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

// write applies the data to the backend's page cache, then routes the
// stability decision through the gathering engine: UNSTABLE writes are
// deferred inside the gather window, DATA_SYNC/FILE_SYNC writes (and
// every write when the window is 0) are made durable before the
// reply. The reply's Committed reports what the server achieved and
// Verf carries the write verifier clients compare across a COMMIT.
func (s *Service) write(sp *obs.Span, body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalWriteArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	sp.Mark(obs.StageExec)
	if err := s.b.WriteAt(args.FH, args.Offset, args.Data); err != nil {
		sp.Mark(obs.StageBackend)
		status := uint32(nfsproto.ErrStale)
		switch {
		case errors.Is(err, vfs.ErrTooBig):
			status = nfsproto.ErrFBig
		case errors.Is(err, vfs.ErrNoSpace):
			status = nfsproto.ErrNoSpc
		}
		res := nfsproto.WriteRes{Status: status}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	// Page-cache apply is backend time; the gathering engine's decision
	// (and any synchronous flush it forces) is the gather stage.
	sp.Mark(obs.StageBackend)
	committed, werr := s.engine.Write(uint64(args.FH), args.Offset, uint32(len(args.Data)), args.Stable)
	sp.Mark(obs.StageGather)
	if werr != nil {
		res := nfsproto.WriteRes{Status: nfsproto.ErrIO}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	s.writes.Add(1)
	s.bytesWritten.Add(int64(len(args.Data)))
	a, _ := s.b.Getattr(args.FH)
	attrs := objAttrs(args.FH, a)
	res := nfsproto.WriteRes{Status: nfsproto.OK, Attrs: &attrs,
		Count: uint32(len(args.Data)), Committed: committed,
		Verf: s.engine.Verifier()}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

// create serves CREATE: a named file of the requested initial size
// (zero-filled) under the given directory, replacing any existing file
// of that name.
func (s *Service) create(body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalCreateArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	if args.Size > vfs.MaxCreateSize {
		res := nfsproto.CreateRes{Status: nfsproto.ErrFBig}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	// Replacing a file orphans its handle; drop any dirty extents the
	// gather engine still tracks for it, or a deferred flush would hit
	// a stale handle and latch a permanent async error.
	if old, a, lerr := s.b.Lookup(args.Dir, args.Name); lerr == nil && !a.Dir {
		s.engine.Forget(uint64(old))
	}
	var fh nfsproto.FH
	var cerr error
	if sc, ok := s.b.(vfs.SizedCreator); ok {
		fh, cerr = sc.CreateSized(args.Dir, args.Name, args.Size)
	} else {
		fh, cerr = s.b.Create(args.Dir, args.Name, make([]byte, args.Size))
	}
	if cerr != nil {
		res := nfsproto.CreateRes{Status: vfs.Status(cerr)}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	attrs := fileAttrs(fh, args.Size)
	res := nfsproto.CreateRes{Status: nfsproto.OK, FH: fh, Attrs: &attrs}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

// setattr serves the size attribute (truncate/extend); the reduced
// contract carries no others.
func (s *Service) setattr(body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalSetattrArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	if serr := s.b.Setattr(args.FH, args.Size); serr != nil {
		res := nfsproto.SetattrRes{Status: vfs.Status(serr)}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	a, _ := s.b.Getattr(args.FH)
	attrs := objAttrs(args.FH, a)
	res := nfsproto.SetattrRes{Status: nfsproto.OK, Attrs: &attrs}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

func (s *Service) mkdir(body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalMkdirArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	fh, merr := s.b.Mkdir(args.Dir, args.Name)
	if merr != nil {
		res := nfsproto.MkdirRes{Status: vfs.Status(merr)}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	a, _ := s.b.Getattr(fh)
	attrs := objAttrs(fh, a)
	res := nfsproto.MkdirRes{Status: nfsproto.OK, FH: fh, Attrs: &attrs}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

// remove serves REMOVE for files and empty directories. The removed
// object's handle is orphaned, so any dirty extents the gather engine
// still tracks for it are dropped — the same stale-flush bug class the
// CREATE-replace path fixes.
func (s *Service) remove(body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalRemoveArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	removed, rerr := s.b.Remove(args.Dir, args.Name)
	if rerr != nil {
		res := nfsproto.RemoveRes{Status: vfs.Status(rerr)}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	s.engine.Forget(uint64(removed))
	a, _ := s.b.Getattr(args.Dir)
	attrs := objAttrs(args.Dir, a)
	res := nfsproto.RemoveRes{Status: nfsproto.OK, Attrs: &attrs}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

// rename serves RENAME. The moved object keeps its handle (dirty
// extents stay valid); a replaced target is orphaned and forgotten
// like a removed file.
func (s *Service) rename(body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalRenameArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	replaced, rerr := s.b.Rename(args.FromDir, args.FromName, args.ToDir, args.ToName)
	if rerr != nil {
		res := nfsproto.RenameRes{Status: vfs.Status(rerr)}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	if replaced != 0 {
		s.engine.Forget(uint64(replaced))
	}
	fa, _ := s.b.Getattr(args.FromDir)
	fattrs := objAttrs(args.FromDir, fa)
	ta, _ := s.b.Getattr(args.ToDir)
	tattrs := objAttrs(args.ToDir, ta)
	res := nfsproto.RenameRes{Status: nfsproto.OK, FromAttrs: &fattrs, ToAttrs: &tattrs}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

// direntWire is the encoded size of one READDIR entry (follows-bool +
// fileid + name string + cookie).
func direntWire(name string) int { return 4 + 8 + 4 + (len(name)+3)&^3 + 8 }

// readdirBudget clamps a client-supplied reply budget.
func readdirBudget(count uint32) int {
	if count == 0 || count > nfsproto.MaxData {
		return nfsproto.MaxData
	}
	return int(count)
}

// readdirHeader is a READDIR(PLUS) reply's fixed part (status, post-op
// attrs, verifier, terminator, eof); plusWire is what READDIRPLUS adds
// per entry (post-op attrs and handle).
const (
	readdirHeader = 4 + 88 + 8 + 4 + 4
	plusWire      = 88 + 4 + 12
)

// readdirCap is how many entries of at least minEntry bytes a reply of
// budget bytes can hold, at least one: the page the backend is asked
// for, so a page costs in proportion to itself, not to the directory.
func readdirCap(budget, minEntry int) int {
	return max(1, (budget-readdirHeader)/minEntry)
}

// readdir serves one page of a directory scan: the backend yields
// entries past the cookie and the reply takes as many as fit the
// byte budget, at least one (RFC 1813: a reply too small for a single
// entry would be NFS3ERR_TOOSMALL; serving one keeps scans live).
func (s *Service) readdir(body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalReaddirArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	budget := readdirBudget(args.Count)
	page, rerr := s.b.Readdir(args.Dir, args.Cookie, args.Cookieverf,
		readdirCap(budget, direntWire("")))
	if rerr != nil {
		res := nfsproto.ReaddirRes{Status: vfs.Status(rerr)}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	used := readdirHeader
	var entries []nfsproto.DirEntry
	for _, e := range page.Entries {
		esz := direntWire(e.Name)
		if used+esz > budget && len(entries) > 0 {
			break
		}
		used += esz
		entries = append(entries, nfsproto.DirEntry{
			FileID: uint64(e.FH), Name: e.Name, Cookie: e.Cookie})
	}
	a, _ := s.b.Getattr(args.Dir)
	attrs := objAttrs(args.Dir, a)
	res := nfsproto.ReaddirRes{Status: nfsproto.OK, Attrs: &attrs,
		Cookieverf: page.Cookieverf, Entries: entries,
		EOF: page.EOF && len(entries) == len(page.Entries)}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

// readdirplus is readdir with per-entry attributes and handles; the
// MaxCount budget covers the whole reply.
func (s *Service) readdirplus(body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalReaddirplusArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	budget := readdirBudget(args.MaxCount)
	page, rerr := s.b.Readdir(args.Dir, args.Cookie, args.Cookieverf,
		readdirCap(budget, direntWire("")+plusWire))
	if rerr != nil {
		res := nfsproto.ReaddirplusRes{Status: vfs.Status(rerr)}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	used := readdirHeader
	var entries []nfsproto.DirEntryPlus
	for _, e := range page.Entries {
		esz := direntWire(e.Name) + plusWire
		if used+esz > budget && len(entries) > 0 {
			break
		}
		used += esz
		ea := objAttrs(e.FH, e.Attr)
		entries = append(entries, nfsproto.DirEntryPlus{
			FileID: uint64(e.FH), Name: e.Name, Cookie: e.Cookie,
			Attrs: &ea, FH: e.FH})
	}
	a, _ := s.b.Getattr(args.Dir)
	attrs := objAttrs(args.Dir, a)
	res := nfsproto.ReaddirplusRes{Status: nfsproto.OK, Attrs: &attrs,
		Cookieverf: page.Cookieverf, Entries: entries,
		EOF: page.EOF && len(entries) == len(page.Entries)}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

// commit serves COMMIT: every dirty extent of the file is flushed
// through the backend (the whole file — a server may commit more than
// the requested range, never less), and the reply carries the write
// verifier. Asynchronous flush errors surface here as ErrIO, per RFC
// 1813.
func (s *Service) commit(sp *obs.Span, body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalCommitArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	a, ok := s.b.Getattr(args.FH)
	if !ok {
		res := nfsproto.CommitRes{Status: nfsproto.ErrStale}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	sp.Mark(obs.StageExec)
	verf, cerr := s.engine.Commit(uint64(args.FH))
	sp.Mark(obs.StageGather)
	if cerr != nil {
		res := nfsproto.CommitRes{Status: nfsproto.ErrIO}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	s.commits.Add(1)
	attrs := objAttrs(args.FH, a)
	res := nfsproto.CommitRes{Status: nfsproto.OK, Attrs: &attrs, Verf: verf}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

func (s *Service) getattr(body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalGetattrArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	a, ok := s.b.Getattr(args.FH)
	if !ok {
		res := nfsproto.GetattrRes{Status: nfsproto.ErrStale}
		return res.AppendTo(reply), sunrpc.AcceptSuccess
	}
	res := nfsproto.GetattrRes{Status: nfsproto.OK, Attrs: objAttrs(args.FH, a)}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

// fsstat serves FSSTAT from the backend's space accounting. Any valid
// handle (the root included) names the one file system.
func (s *Service) fsstat(body, reply []byte) ([]byte, uint32) {
	args, err := nfsproto.UnmarshalFsstatArgs(body)
	if err != nil {
		return reply, sunrpc.AcceptGarbageArgs
	}
	if args.FH != vfs.RootFH {
		if _, ok := s.b.Getattr(args.FH); !ok {
			res := nfsproto.FsstatRes{Status: nfsproto.ErrStale}
			return res.AppendTo(reply), sunrpc.AcceptSuccess
		}
	}
	total, free := s.b.Fsstat()
	res := nfsproto.FsstatRes{Status: nfsproto.OK, Tbytes: total, Fbytes: free}
	return res.AppendTo(reply), sunrpc.AcceptSuccess
}

// NewServer binds addr and serves svc's InfoHandler over real UDP and
// TCP sockets. opts adds a capture tap or fault injection; its Spans is
// always svc's span table (nil without Config.Obs), so the DRC and the
// stage spans follow from how the service was built, never from which
// server was started. Pair a tap with nfstrace.Capture to record live
// request streams to a .nft trace file:
//
//	w, _ := tracefile.Create("out.nft", time.Now())
//	cap := nfstrace.NewCapture(w)
//	srv, _ := nfsd.NewServer(addr, svc, rpcnet.ServerOptions{Tap: cap.Tap})
//
// The tap adds one pointer check per request when nil and one record
// append (no payload copy) when capturing.
func NewServer(addr string, svc *Service, opts rpcnet.ServerOptions) (*rpcnet.Server, error) {
	opts.Spans = svc.SpanTable()
	return rpcnet.NewServerInfo(addr, nfsproto.Program, nfsproto.Version3, svc.InfoHandler(), opts)
}
