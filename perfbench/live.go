package main

import (
	"fmt"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
	"nfstricks/internal/readahead"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/vfs"
	"nfstricks/internal/wgather"
)

// liveConfig is the part of the server configuration a workload picks;
// the rest is what nfsserve sets up by default: memfs backend, SlowDown
// heuristic, scaled nfsheur table, an obs registry with stage spans.
type liveConfig struct {
	gatherWindow time.Duration
	drc          bool
}

// liveServer is the in-process NFS service on a loopback port.
type liveServer struct {
	fs   *memfs.FS
	svc  *nfsd.Service
	srv  *rpcnet.Server
	addr string
}

// startServer builds the service the way nfsserve does. With a tracer,
// the backend, the gather engine's observer sink and the RPC handler
// are wrapped so each records a span at its boundary; the wrappers
// forward vfs.SizedCreator, so nfsd takes the same paths as untraced.
func startServer(cfg liveConfig, tr *tracer) (*liveServer, error) {
	fs := memfs.NewFS()
	var backend vfs.Backend = fs
	var sink wgather.Sink = wgather.NullSink{}
	if tr != nil {
		backend = &tracedBackend{fs: fs, tr: tr}
		sink = tracedSink{inner: sink, tr: tr}
	}
	reg := obs.NewRegistry()
	svc := nfsd.New(backend, nfsd.Config{
		Heuristic: readahead.SlowDown{},
		Gather:    wgather.Config{Window: cfg.gatherWindow, Sink: sink},
		DRC:       nfsd.DRCConfig{Enabled: cfg.drc},
		Obs:       reg,
	})
	h := svc.InfoHandler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	srv, err := rpcnet.NewServerInfo("127.0.0.1:0", nfsproto.Program, nfsproto.Version3, h,
		rpcnet.ServerOptions{Spans: svc.SpanTable()})
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &liveServer{fs: fs, svc: svc, srv: srv, addr: srv.Addr()}, nil
}

func (s *liveServer) close() {
	s.srv.Close()
	s.svc.Close()
}

// dial opens one TCP connection to the server and makes one NULL call
// on it, which fixes the connection's index in the tracer (connections
// are numbered in the order their first NULL arrives).
func (s *liveServer) dial() (*rpcnet.Client, error) {
	c, err := rpcnet.Dial("tcp", s.addr, nfsproto.Program, nfsproto.Version3)
	if err != nil {
		return nil, err
	}
	if _, err := c.Call(nfsproto.ProcNull, nil); err != nil {
		c.Close()
		return nil, fmt.Errorf("null call: %w", err)
	}
	return c, nil
}

// serviceLayers snapshots the service's counters under per-layer names.
func serviceLayers(svc *nfsd.Service) map[string]float64 {
	out := map[string]float64{}
	procs := svc.ProcCounts()
	for _, p := range serverProcs {
		out["nfsd.executed."+nfsproto.ProcName(p)] = float64(procs[p])
	}
	out["nfsd.max_seqcount"] = float64(svc.Stats().MaxSeqCount)
	h := svc.Table().Stats()
	out["nfsheur.hits"] = float64(h.Hits)
	out["nfsheur.misses"] = float64(h.Misses)
	out["nfsheur.ejections"] = float64(h.Ejections)
	w := svc.WriteStats()
	out["wgather.flushes"] = float64(w.Flushes)
	out["wgather.commits"] = float64(w.Commits)
	out["wgather.coalesced_bytes"] = float64(w.CoalescedBytes)
	d := svc.DRCStats()
	out["drc.misses"] = float64(d.Misses)
	out["drc.hits"] = float64(d.Hits)
	out["drc.busy"] = float64(d.Busy)
	out["drc.evictions"] = float64(d.Evictions)
	return out
}

// wrapHandler records a server span around each call. NULL calls fix
// the caller's connection index even while not recording.
func (t *tracer) wrapHandler(h rpcnet.InfoHandler) rpcnet.InfoHandler {
	return func(info rpcnet.CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
		if proc == nfsproto.ProcNull {
			t.connOf(info.Client)
		}
		if !t.on.Load() {
			return h(info, proc, body, reply)
		}
		g := gid()
		idx := t.add(span{start: nowNS(), parent: -1, conn: t.connOf(info.Client),
			xid: info.XID, op: uint16(proc), kind: kindServer})
		t.enter(g, idx)
		out, stat := h(info, proc, body, reply)
		t.setEnd(idx, nowNS())
		t.exit(g)
		return out, stat
	}
}

// tracedBackend is a vfs.Backend (and vfs.SizedCreator, as memfs is)
// that records one span per call into memfs.
type tracedBackend struct {
	fs *memfs.FS
	tr *tracer
}

// begin returns the call's start time, or -1 when not recording.
func (b *tracedBackend) begin() int64 {
	if !b.tr.on.Load() {
		return -1
	}
	return nowNS()
}

// end records a backend span begun at t0.
func (b *tracedBackend) end(call int, t0 int64) {
	if t0 < 0 {
		return
	}
	end := nowNS()
	parent, flush := b.tr.parentOf(gid(), call == callCommit)
	b.tr.add(span{start: t0, end: end, parent: parent, conn: -1, op: uint16(call), kind: kindBackend})
	if flush >= 0 {
		b.tr.add(span{start: flush, end: end, aux: t0, parent: parent, conn: -1, kind: kindFlush})
	}
}

func (b *tracedBackend) Create(dir nfsproto.FH, name string, data []byte) (nfsproto.FH, error) {
	t0 := b.begin()
	fh, err := b.fs.Create(dir, name, data)
	b.end(callCreate, t0)
	return fh, err
}

func (b *tracedBackend) CreateSized(dir nfsproto.FH, name string, size uint64) (nfsproto.FH, error) {
	t0 := b.begin()
	fh, err := b.fs.CreateSized(dir, name, size)
	b.end(callCreateSized, t0)
	return fh, err
}

func (b *tracedBackend) Lookup(dir nfsproto.FH, name string) (nfsproto.FH, vfs.Attr, error) {
	t0 := b.begin()
	fh, a, err := b.fs.Lookup(dir, name)
	b.end(callLookup, t0)
	return fh, a, err
}

func (b *tracedBackend) Mkdir(dir nfsproto.FH, name string) (nfsproto.FH, error) {
	t0 := b.begin()
	fh, err := b.fs.Mkdir(dir, name)
	b.end(callMkdir, t0)
	return fh, err
}

func (b *tracedBackend) Readdir(dir nfsproto.FH, cookie, cookieverf uint64, maxEntries int) (vfs.ReaddirPage, error) {
	t0 := b.begin()
	page, err := b.fs.Readdir(dir, cookie, cookieverf, maxEntries)
	b.end(callReaddir, t0)
	return page, err
}

func (b *tracedBackend) Remove(dir nfsproto.FH, name string) (nfsproto.FH, error) {
	t0 := b.begin()
	fh, err := b.fs.Remove(dir, name)
	b.end(callRemove, t0)
	return fh, err
}

func (b *tracedBackend) Rename(fromDir nfsproto.FH, fromName string, toDir nfsproto.FH, toName string) (nfsproto.FH, error) {
	t0 := b.begin()
	fh, err := b.fs.Rename(fromDir, fromName, toDir, toName)
	b.end(callRename, t0)
	return fh, err
}

func (b *tracedBackend) Setattr(fh nfsproto.FH, size uint64) error {
	t0 := b.begin()
	err := b.fs.Setattr(fh, size)
	b.end(callSetattr, t0)
	return err
}

func (b *tracedBackend) Getattr(fh nfsproto.FH) (vfs.Attr, bool) {
	t0 := b.begin()
	a, ok := b.fs.Getattr(fh)
	b.end(callGetattr, t0)
	return a, ok
}

func (b *tracedBackend) Access(fh nfsproto.FH, mask uint32) (uint32, bool) {
	t0 := b.begin()
	g, ok := b.fs.Access(fh, mask)
	b.end(callAccess, t0)
	return g, ok
}

func (b *tracedBackend) ReadAt(fh nfsproto.FH, off uint64, count uint32, ahead int) ([]byte, uint64, bool, error) {
	t0 := b.begin()
	data, size, eof, err := b.fs.ReadAt(fh, off, count, ahead)
	b.end(callReadAt, t0)
	return data, size, eof, err
}

func (b *tracedBackend) WriteAt(fh nfsproto.FH, off uint64, data []byte) error {
	t0 := b.begin()
	err := b.fs.WriteAt(fh, off, data)
	b.end(callWriteAt, t0)
	return err
}

func (b *tracedBackend) Commit(fh nfsproto.FH, off uint64, count uint32) error {
	t0 := b.begin()
	err := b.fs.Commit(fh, off, count)
	b.end(callCommit, t0)
	return err
}

func (b *tracedBackend) Fsstat() (uint64, uint64) {
	t0 := b.begin()
	total, free := b.fs.Fsstat()
	b.end(callFsstat, t0)
	return total, free
}

// tracedSink is an observer wgather.Sink: it notes when the engine
// hands it a flush, and the backend Commit that follows on the same
// goroutine closes the flush span.
type tracedSink struct {
	inner wgather.Sink
	tr    *tracer
}

func (s tracedSink) Flush(fh uint64, off uint64, data []byte) error {
	if s.tr.on.Load() {
		s.tr.flushing(gid())
	}
	return s.inner.Flush(fh, off, data)
}
