package nfsserver

import (
	"testing"

	"nfstricks/internal/buffercache"
	"nfstricks/internal/disk"
	"nfstricks/internal/ffs"
	"nfstricks/internal/iosched"
	"nfstricks/internal/netsim"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/readahead"
	"nfstricks/internal/sim"
)

// rig builds a server with one exported FS and a raw UDP client socket.
type rig struct {
	k    *sim.Kernel
	srv  *Server
	fs   *ffs.FS
	sock *netsim.UDPSocket
	dst  netsim.Addr
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	m := disk.WD200BB()
	dev := disk.NewDevice(k, m)
	dr := disk.NewDriver(k, dev, iosched.NewElevator())
	cache := buffercache.New(k, dr, 4096)
	fsys := ffs.New(k, cache, m.Geo.QuarterPartitions("ide")[0], ffs.Config{})

	net := netsim.New(k, netsim.Config{})
	serverHost := net.Host("server", 54e6)
	clientHost := net.Host("client", 0)

	srv := New(k, serverHost, cfg)
	srv.Export(fsys)
	srv.Start()
	return &rig{
		k: k, srv: srv, fs: fsys,
		sock: clientHost.UDP(900),
		dst:  netsim.Addr{Host: "server", Port: Port},
	}
}

// rpc sends one call and returns the reply result.
func (r *rig) rpc(p *sim.Proc, proc uint32, args Message) Message {
	r.sock.SendTo(r.dst, netsim.Message{
		Payload: Call{XID: 1, Proc: proc, Args: args},
		Size:    CallSize(args),
	})
	pkt := r.sock.Recv(p)
	return pkt.Msg.Payload.(Reply).Res
}

func TestLookupAndGetattr(t *testing.T) {
	r := newRig(t, Config{})
	f, _ := r.fs.Create("hello", 1<<20)
	r.k.Go("client", func(p *sim.Proc) {
		res := r.rpc(p, nfsproto.ProcLookup,
			&nfsproto.LookupArgs{Dir: r.srv.RootFH(0), Name: "hello"})
		lr := res.(*nfsproto.LookupRes)
		if lr.Status != nfsproto.OK || uint64(lr.FH) != f.Handle() {
			t.Errorf("lookup: %+v", lr)
		}
		if lr.Attrs == nil || lr.Attrs.Size != 1<<20 {
			t.Errorf("lookup attrs: %+v", lr.Attrs)
		}
		res = r.rpc(p, nfsproto.ProcGetattr, &nfsproto.GetattrArgs{FH: lr.FH})
		gr := res.(*nfsproto.GetattrRes)
		if gr.Status != nfsproto.OK || gr.Attrs.Size != 1<<20 {
			t.Errorf("getattr: %+v", gr)
		}
	})
	r.k.Run()
	r.k.Shutdown()
}

func TestLookupMissingAndStale(t *testing.T) {
	r := newRig(t, Config{})
	r.k.Go("client", func(p *sim.Proc) {
		res := r.rpc(p, nfsproto.ProcLookup,
			&nfsproto.LookupArgs{Dir: r.srv.RootFH(0), Name: "ghost"})
		if res.(*nfsproto.LookupRes).Status != nfsproto.ErrNoEnt {
			t.Error("missing lookup did not return NOENT")
		}
		res = r.rpc(p, nfsproto.ProcRead, &nfsproto.ReadArgs{FH: 0xdead, Count: 8192})
		if res.(*nfsproto.ReadRes).Status != nfsproto.ErrStale {
			t.Error("stale read did not return ESTALE")
		}
		res = r.rpc(p, nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: 0xbeef, Name: "x"})
		if res.(*nfsproto.LookupRes).Status != nfsproto.ErrStale {
			t.Error("bad dir handle did not return ESTALE")
		}
	})
	r.k.Run()
	r.k.Shutdown()
}

func TestReadReturnsDataAndEOF(t *testing.T) {
	r := newRig(t, Config{})
	f, _ := r.fs.Create("f", 3*8192+100)
	r.k.Go("client", func(p *sim.Proc) {
		fh := nfsproto.FH(f.Handle())
		res := r.rpc(p, nfsproto.ProcRead, &nfsproto.ReadArgs{FH: fh, Offset: 0, Count: 8192})
		rr := res.(*nfsproto.ReadRes)
		if rr.Status != nfsproto.OK || rr.Count != 8192 || rr.EOF {
			t.Errorf("first read: %+v", rr)
		}
		res = r.rpc(p, nfsproto.ProcRead, &nfsproto.ReadArgs{FH: fh, Offset: 3 * 8192, Count: 8192})
		rr = res.(*nfsproto.ReadRes)
		if rr.Status != nfsproto.OK || rr.Count != 100 || !rr.EOF {
			t.Errorf("tail read: %+v", rr)
		}
		res = r.rpc(p, nfsproto.ProcRead, &nfsproto.ReadArgs{FH: fh, Offset: 1 << 30, Count: 8192})
		rr = res.(*nfsproto.ReadRes)
		if rr.Status != nfsproto.OK || rr.Count != 0 || !rr.EOF {
			t.Errorf("past-EOF read: %+v", rr)
		}
	})
	r.k.Run()
	r.k.Shutdown()
}

func TestReadUpdatesHeuristicState(t *testing.T) {
	r := newRig(t, Config{Heuristic: readahead.SlowDown{}, Table: nfsheur.ImprovedParams()})
	f, _ := r.fs.Create("f", 1<<20)
	r.k.Go("client", func(p *sim.Proc) {
		fh := nfsproto.FH(f.Handle())
		for i := 0; i < 10; i++ {
			r.rpc(p, nfsproto.ProcRead,
				&nfsproto.ReadArgs{FH: fh, Offset: uint64(i) * 8192, Count: 8192})
		}
	})
	r.k.Run()
	r.k.Shutdown()
	entry, found := r.srv.Table().Lookup(f.Handle())
	if !found {
		t.Fatal("handle missing from nfsheur after reads")
	}
	if entry.State.SeqCount < 10 {
		t.Fatalf("seqcount = %d after 10 sequential reads", entry.State.SeqCount)
	}
	if r.srv.Stats().Reads != 10 {
		t.Fatalf("server reads = %d", r.srv.Stats().Reads)
	}
}

func TestReadAheadReachesCache(t *testing.T) {
	r := newRig(t, Config{Heuristic: readahead.Always{}, Table: nfsheur.ImprovedParams()})
	f, _ := r.fs.Create("f", 1<<20)
	r.k.Go("client", func(p *sim.Proc) {
		fh := nfsproto.FH(f.Handle())
		for i := 0; i < 4; i++ {
			r.rpc(p, nfsproto.ProcRead,
				&nfsproto.ReadArgs{FH: fh, Offset: uint64(i) * 8192, Count: 8192})
		}
		p.Sleep(100 * 1e6) // let prefetch land
	})
	r.k.Run()
	r.k.Shutdown()
	if r.fs.Cache().Stats().ReadAheads == 0 {
		t.Fatal("Always heuristic issued no read-ahead")
	}
}

func TestWriteAndCreate(t *testing.T) {
	r := newRig(t, Config{})
	r.k.Go("client", func(p *sim.Proc) {
		res := r.rpc(p, nfsproto.ProcCreate,
			&nfsproto.CreateArgs{Dir: r.srv.RootFH(0), Name: "new", Size: 4 * 8192})
		cr := res.(*nfsproto.CreateRes)
		if cr.Status != nfsproto.OK || cr.FH == 0 {
			t.Errorf("create: %+v", cr)
		}
		res = r.rpc(p, nfsproto.ProcWrite, &nfsproto.WriteArgs{
			FH: cr.FH, Offset: 0, Count: 8192,
			Stable: nfsproto.WriteFileSync, DataLen: 8192,
		})
		wr := res.(*nfsproto.WriteRes)
		if wr.Status != nfsproto.OK || wr.Count != 8192 {
			t.Errorf("write: %+v", wr)
		}
		// Duplicate create fails.
		res = r.rpc(p, nfsproto.ProcCreate,
			&nfsproto.CreateArgs{Dir: r.srv.RootFH(0), Name: "new", Size: 8192})
		if res.(*nfsproto.CreateRes).Status == nfsproto.OK {
			t.Error("duplicate create succeeded")
		}
	})
	r.k.Run()
	r.k.Shutdown()
	if r.srv.Stats().Writes != 1 {
		t.Fatalf("writes = %d", r.srv.Stats().Writes)
	}
}

func TestAccessAndFsstat(t *testing.T) {
	r := newRig(t, Config{})
	f, _ := r.fs.Create("f", 8192)
	r.k.Go("client", func(p *sim.Proc) {
		res := r.rpc(p, nfsproto.ProcAccess,
			&nfsproto.AccessArgs{FH: nfsproto.FH(f.Handle()), Access: 0x3f})
		ar := res.(*nfsproto.AccessRes)
		if ar.Status != nfsproto.OK || ar.Access != 0x3f {
			t.Errorf("access: %+v", ar)
		}
		res = r.rpc(p, nfsproto.ProcFsstat, &nfsproto.GetattrArgs{FH: r.srv.RootFH(0)})
		fr := res.(*nfsproto.FsstatRes)
		if fr.Status != nfsproto.OK || fr.Tbytes == 0 {
			t.Errorf("fsstat: %+v", fr)
		}
	})
	r.k.Run()
	r.k.Shutdown()
}

func TestReorderDetection(t *testing.T) {
	r := newRig(t, Config{})
	f, _ := r.fs.Create("f", 1<<20)
	r.k.Go("client", func(p *sim.Proc) {
		fh := nfsproto.FH(f.Handle())
		// Offsets 0, 2, then 1: the third regresses.
		for _, blk := range []uint64{0, 2, 1} {
			r.rpc(p, nfsproto.ProcRead,
				&nfsproto.ReadArgs{FH: fh, Offset: blk * 8192, Count: 8192})
		}
	})
	r.k.Run()
	r.k.Shutdown()
	if got := r.srv.Stats().ReorderedReads; got != 1 {
		t.Fatalf("reordered reads = %d, want 1", got)
	}
}

func TestFlushStateResets(t *testing.T) {
	r := newRig(t, Config{})
	f, _ := r.fs.Create("f", 1<<20)
	r.k.Go("client", func(p *sim.Proc) {
		r.rpc(p, nfsproto.ProcRead,
			&nfsproto.ReadArgs{FH: nfsproto.FH(f.Handle()), Count: 8192})
	})
	r.k.Run()
	r.k.Shutdown()
	if r.srv.Table().Active() == 0 {
		t.Fatal("table empty after read")
	}
	r.srv.FlushState()
	if r.srv.Table().Active() != 0 || r.srv.Stats().Reads != 0 {
		t.Fatal("FlushState left state behind")
	}
}
