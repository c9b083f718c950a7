// Package nfsserver implements the simulated NFS server under study: a
// pool of nfsd processes serving NFS v3 requests from UDP and TCP
// transports, with the nfsheur table and a pluggable sequentiality
// heuristic deciding how much file-system read-ahead each READ triggers
// — the exact code path the paper modifies in FreeBSD's nfsrv_read.
package nfsserver

import (
	"fmt"
	"time"

	"nfstricks/internal/ffs"
	"nfstricks/internal/netsim"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/nfstrace"
	"nfstricks/internal/readahead"
	"nfstricks/internal/sim"
)

// Port is the NFS service port.
const Port = 2049

// Config tunes the server.
type Config struct {
	// NumNFSD is the nfsd pool size. The paper runs eight
	// ("the server runs eight nfsds instead of the default four").
	NumNFSD int
	// Heuristic computes seqcounts (default: readahead.Default).
	Heuristic readahead.Heuristic
	// Table configures the nfsheur table (default: nfsheur.DefaultParams).
	Table nfsheur.Params
	// MaxReadAhead caps the per-READ read-ahead window in blocks
	// (default readahead.DefaultMaxWindow = 256 KB).
	MaxReadAhead int
	// PerOpCPU is the server CPU cost of one RPC (parse, VFS, UDP
	// stack, copies). Calibrated so NFS throughput lands at roughly
	// half the local rate, as the paper observes.
	PerOpCPU time.Duration
	// PerSegCPU is the additional CPU per TCP segment sent/received
	// (checksum + protocol processing), the paper-era cost of NFS/TCP.
	PerSegCPU time.Duration
	// Tracer, when non-nil, records every request for offline analysis
	// (request reordering fractions, sequentiality runs — the
	// measurements behind the paper's §6).
	Tracer *nfstrace.Tracer
}

func (c *Config) fill() {
	if c.NumNFSD == 0 {
		c.NumNFSD = 8
	}
	if c.Heuristic == nil {
		c.Heuristic = readahead.Default{}
	}
	if c.Table.Slots == 0 {
		c.Table = nfsheur.DefaultParams()
	}
	if c.MaxReadAhead == 0 {
		c.MaxReadAhead = readahead.DefaultMaxWindow
	}
	if c.PerOpCPU == 0 {
		c.PerOpCPU = 300 * time.Microsecond
	}
	if c.PerSegCPU == 0 {
		c.PerSegCPU = 25 * time.Microsecond
	}
}

// Stats aggregates server counters.
type Stats struct {
	Ops            int64
	Reads          int64
	BytesRead      int64
	Writes         int64
	ReorderedReads int64 // READs whose offset regressed for their file
}

// request is one inbound RPC with its reply path.
type request struct {
	call    Call
	reply   func(netsim.Message)
	tcpSegs int // segments the request consumed (TCP only)
	tcp     bool
}

// Server is the simulated NFS server machine.
type Server struct {
	k     *sim.Kernel
	cpu   *sim.CPU
	cfg   Config
	table *nfsheur.Table

	exports []*ffs.FS
	workq   *sim.Chan[request]

	udp *netsim.UDPSocket
	lst *netsim.Listener

	stats   Stats
	lastOff map[nfsproto.FH]uint64
}

// New creates a server on host, with its own CPU resource.
func New(k *sim.Kernel, host *netsim.Host, cfg Config) *Server {
	cfg.fill()
	return &Server{
		k:       k,
		cpu:     sim.NewCPU(k),
		cfg:     cfg,
		table:   nfsheur.New(cfg.Table),
		workq:   sim.NewChan[request](k),
		udp:     host.UDP(Port),
		lst:     host.Listen(Port),
		lastOff: make(map[nfsproto.FH]uint64),
	}
}

// Export publishes a file system. Its files are reachable via LOOKUP
// against the FS root handle.
func (s *Server) Export(fs *ffs.FS) { s.exports = append(s.exports, fs) }

// Table exposes the nfsheur table (for instrumentation and tests).
func (s *Server) Table() *nfsheur.Table { return s.table }

// CPU exposes the server CPU resource.
func (s *Server) CPU() *sim.CPU { return s.cpu }

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats { return s.stats }

// Config returns the server configuration in effect.
func (s *Server) Config() Config { return s.cfg }

// RootFH returns the root handle of export i (the mount protocol,
// reduced to its essence).
func (s *Server) RootFH(i int) nfsproto.FH {
	return nfsproto.FH(s.exports[i].RootHandle())
}

// FlushState clears cross-run state: the nfsheur table and the
// reorder-detection map. (Buffer caches are flushed by the owner of the
// disk stack.)
func (s *Server) FlushState() {
	s.table.Flush()
	s.lastOff = make(map[nfsproto.FH]uint64)
	s.stats = Stats{}
}

// Start spawns the transport receivers and the nfsd pool.
func (s *Server) Start() {
	s.k.Go("nfs-udp-rx", func(p *sim.Proc) {
		for {
			pkt := s.udp.Recv(p)
			call := pkt.Msg.Payload.(Call)
			from := pkt.From
			s.workq.Send(request{
				call: call,
				reply: func(m netsim.Message) {
					s.udp.SendTo(from, m)
				},
			})
		}
	})
	s.k.Go("nfs-tcp-accept", func(p *sim.Proc) {
		for {
			conn := s.lst.Accept(p)
			s.k.Go("nfs-tcp-rx", func(p *sim.Proc) {
				for {
					msg := conn.Recv(p)
					call := msg.Payload.(Call)
					s.workq.Send(request{
						call:    call,
						tcp:     true,
						tcpSegs: segsFor(msg.Size),
						reply:   conn.Send,
					})
				}
			})
		}
	})
	for i := 0; i < s.cfg.NumNFSD; i++ {
		s.k.Go(fmt.Sprintf("nfsd%d", i), s.nfsd)
	}
}

// segsFor mirrors netsim's segment accounting for CPU charging.
func segsFor(size int) int {
	segs := (size + 4 + 1447) / 1448
	if segs < 1 {
		segs = 1
	}
	return segs
}

// nfsd is one server daemon: take a request, burn CPU, do the I/O,
// reply.
func (s *Server) nfsd(p *sim.Proc) {
	for {
		req := s.workq.Recv(p)
		s.stats.Ops++

		cost := s.cfg.PerOpCPU
		if req.tcp {
			cost += time.Duration(req.tcpSegs) * s.cfg.PerSegCPU
		}
		s.cpu.Use(p, cost)

		res := s.dispatch(p, req.call)
		size := ReplySize(res)
		if req.tcp {
			s.cpu.Use(p, time.Duration(segsFor(size))*s.cfg.PerSegCPU)
		}
		req.reply(netsim.Message{
			Payload: Reply{XID: req.call.XID, Res: res},
			Size:    size,
		})
	}
}

// dispatch executes one NFS procedure.
func (s *Server) dispatch(p *sim.Proc, call Call) Message {
	if s.cfg.Tracer != nil {
		rec := nfstrace.Record{When: s.k.Now(), Proc: call.Proc}
		switch a := call.Args.(type) {
		case *nfsproto.ReadArgs:
			rec.FH, rec.Offset, rec.Count = uint64(a.FH), a.Offset, a.Count
		case *nfsproto.WriteArgs:
			rec.FH, rec.Offset, rec.Count = uint64(a.FH), a.Offset, a.Count
		case *nfsproto.GetattrArgs:
			rec.FH = uint64(a.FH)
		}
		s.cfg.Tracer.Add(rec)
	}
	switch call.Proc {
	case nfsproto.ProcRead:
		return s.read(p, call.Args.(*nfsproto.ReadArgs))
	case nfsproto.ProcWrite:
		return s.write(p, call.Args.(*nfsproto.WriteArgs))
	case nfsproto.ProcLookup:
		return s.lookup(call.Args.(*nfsproto.LookupArgs))
	case nfsproto.ProcGetattr:
		return s.getattr(call.Args.(*nfsproto.GetattrArgs))
	case nfsproto.ProcAccess:
		return s.access(call.Args.(*nfsproto.AccessArgs))
	case nfsproto.ProcCreate:
		return s.create(call.Args.(*nfsproto.CreateArgs))
	case nfsproto.ProcFsstat:
		return s.fsstat(call.Args.(*nfsproto.GetattrArgs))
	default:
		return &nfsproto.GetattrRes{Status: nfsproto.ErrIO}
	}
}

// resolve maps a handle to its file system and file.
func (s *Server) resolve(fh nfsproto.FH) (*ffs.FS, *ffs.File) {
	for _, fs := range s.exports {
		if f, ok := fs.ByHandle(uint64(fh)); ok {
			return fs, f
		}
	}
	return nil, nil
}

// resolveDir maps a root handle to its file system.
func (s *Server) resolveDir(fh nfsproto.FH) *ffs.FS {
	for _, fs := range s.exports {
		if fs.RootHandle() == uint64(fh) {
			return fs
		}
	}
	return nil
}

func attrsFor(f *ffs.File) *nfsproto.Fattr {
	return &nfsproto.Fattr{
		Type: nfsproto.TypeReg, Mode: 0644, Nlink: 1,
		Size: uint64(f.Size()), Used: uint64(f.Size()),
		FileID: f.Handle(),
	}
}

// read is the heart of the reproduction: FreeBSD's nfsrv_read. The
// nfsheur table supplies (or loses) the file's sequentiality state, the
// configured heuristic turns the observed offset into a seqcount, and
// the seqcount sizes the file-system read-ahead.
func (s *Server) read(p *sim.Proc, args *nfsproto.ReadArgs) Message {
	fs, f := s.resolve(args.FH)
	if f == nil {
		return &nfsproto.ReadRes{Status: nfsproto.ErrStale}
	}
	s.stats.Reads++
	if last, ok := s.lastOff[args.FH]; ok && args.Offset < last {
		s.stats.ReorderedReads++
	}
	if end := args.Offset + uint64(args.Count); end > s.lastOff[args.FH] {
		s.lastOff[args.FH] = end
	}

	entry, _ := s.table.Lookup(uint64(args.FH))
	seq := s.cfg.Heuristic.Update(&entry.State, args.Offset, uint64(args.Count))
	window := readahead.Window(seq, s.cfg.MaxReadAhead)
	frontier := s.cfg.Heuristic.Frontier(&entry.State)

	size := uint64(f.Size())
	if args.Offset >= size {
		return &nfsproto.ReadRes{Status: nfsproto.OK, Attrs: attrsFor(f), EOF: true}
	}
	count := uint64(args.Count)
	if args.Offset+count > size {
		count = size - args.Offset
	}
	first := int64(args.Offset) / ffs.BlockSize
	last := int64(args.Offset+count-1) / ffs.BlockSize
	fs.ReadBlocks(p, f, first, last-first+1)
	fs.Prefetch(f, last+1, window, frontier)

	s.stats.BytesRead += int64(count)
	return &nfsproto.ReadRes{
		Status:  nfsproto.OK,
		Attrs:   attrsFor(f),
		Count:   uint32(count),
		EOF:     args.Offset+count >= size,
		DataLen: uint32(count),
	}
}

func (s *Server) write(p *sim.Proc, args *nfsproto.WriteArgs) Message {
	fs, f := s.resolve(args.FH)
	if f == nil {
		return &nfsproto.WriteRes{Status: nfsproto.ErrStale}
	}
	s.stats.Writes++
	n := uint64(args.Count)
	if args.Data != nil {
		n = uint64(len(args.Data))
	} else if args.DataLen > 0 {
		n = uint64(args.DataLen)
	}
	first := int64(args.Offset) / ffs.BlockSize
	last := int64(args.Offset+n-1) / ffs.BlockSize
	if err := fs.WriteBlocks(p, f, first, last-first+1); err != nil {
		return &nfsproto.WriteRes{Status: nfsproto.ErrNoSpc}
	}
	return &nfsproto.WriteRes{
		Status: nfsproto.OK, Attrs: attrsFor(f),
		Count: uint32(n), Committed: args.Stable,
	}
}

func (s *Server) lookup(args *nfsproto.LookupArgs) Message {
	fs := s.resolveDir(args.Dir)
	if fs == nil {
		return &nfsproto.LookupRes{Status: nfsproto.ErrStale}
	}
	f, ok := fs.Lookup(args.Name)
	if !ok {
		return &nfsproto.LookupRes{Status: nfsproto.ErrNoEnt}
	}
	return &nfsproto.LookupRes{Status: nfsproto.OK, FH: nfsproto.FH(f.Handle()), Attrs: attrsFor(f)}
}

func (s *Server) getattr(args *nfsproto.GetattrArgs) Message {
	if fs := s.resolveDir(args.FH); fs != nil {
		return &nfsproto.GetattrRes{Status: nfsproto.OK,
			Attrs: nfsproto.Fattr{Type: nfsproto.TypeDir, Mode: 0755, Nlink: 2, FileID: uint64(args.FH)}}
	}
	_, f := s.resolve(args.FH)
	if f == nil {
		return &nfsproto.GetattrRes{Status: nfsproto.ErrStale}
	}
	return &nfsproto.GetattrRes{Status: nfsproto.OK, Attrs: *attrsFor(f)}
}

func (s *Server) access(args *nfsproto.AccessArgs) Message {
	_, f := s.resolve(args.FH)
	if f == nil && s.resolveDir(args.FH) == nil {
		return &nfsproto.AccessRes{Status: nfsproto.ErrStale}
	}
	var attrs *nfsproto.Fattr
	if f != nil {
		attrs = attrsFor(f)
	}
	return &nfsproto.AccessRes{Status: nfsproto.OK, Attrs: attrs, Access: args.Access}
}

func (s *Server) create(args *nfsproto.CreateArgs) Message {
	fs := s.resolveDir(args.Dir)
	if fs == nil {
		return &nfsproto.CreateRes{Status: nfsproto.ErrStale}
	}
	size := int64(args.Size)
	if size <= 0 {
		size = ffs.BlockSize
	}
	f, err := fs.Create(args.Name, size)
	if err != nil {
		return &nfsproto.CreateRes{Status: nfsproto.ErrExist}
	}
	return &nfsproto.CreateRes{Status: nfsproto.OK, FH: nfsproto.FH(f.Handle()), Attrs: attrsFor(f)}
}

func (s *Server) fsstat(args *nfsproto.GetattrArgs) Message {
	fs := s.resolveDir(args.FH)
	if fs == nil {
		return &nfsproto.FsstatRes{Status: nfsproto.ErrStale}
	}
	total := uint64(fs.Partition().Bytes())
	return &nfsproto.FsstatRes{Status: nfsproto.OK, Tbytes: total, Fbytes: total / 2}
}
