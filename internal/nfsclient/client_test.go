package nfsclient

import (
	"testing"
	"time"

	"nfstricks/internal/buffercache"
	"nfstricks/internal/disk"
	"nfstricks/internal/ffs"
	"nfstricks/internal/iosched"
	"nfstricks/internal/netsim"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/nfsserver"
	"nfstricks/internal/readahead"
	"nfstricks/internal/sim"
)

type rig struct {
	k    *sim.Kernel
	srv  *nfsserver.Server
	fs   *ffs.FS
	mnt  *Mount
	net  *netsim.Network
	root nfsproto.FH
}

func newRig(t *testing.T, clientCfg Config, netCfg netsim.Config) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	m := disk.WD200BB()
	dev := disk.NewDevice(k, m)
	dr := disk.NewDriver(k, dev, iosched.NewElevator())
	cache := buffercache.New(k, dr, 4096)
	fsys := ffs.New(k, cache, m.Geo.QuarterPartitions("ide")[0], ffs.Config{})

	net := netsim.New(k, netCfg)
	serverHost := net.Host("server", 54e6)
	clientHost := net.Host("client", 0)

	srv := nfsserver.New(k, serverHost, nfsserver.Config{
		Heuristic: readahead.SlowDown{},
		Table:     nfsheur.ImprovedParams(),
	})
	srv.Export(fsys)
	srv.Start()

	cpu := sim.NewCPU(k)
	mnt := New(k, cpu, clientHost, 900,
		netsim.Addr{Host: "server", Port: nfsserver.Port}, clientCfg)
	if err := mnt.Start(); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, srv: srv, fs: fsys, mnt: mnt, net: net, root: srv.RootFH(0)}
}

func TestOpenAndSize(t *testing.T) {
	r := newRig(t, Config{}, netsim.Config{})
	r.fs.Create("f", 5<<20)
	r.k.Go("app", func(p *sim.Proc) {
		rf, err := r.mnt.Open(p, r.root, "f")
		if err != nil {
			t.Error(err)
			return
		}
		if rf.Size() != 5<<20 || rf.FH() == 0 {
			t.Errorf("size=%d fh=%d", rf.Size(), rf.FH())
		}
	})
	r.k.Run()
	r.k.Shutdown()
}

func TestOpenMissing(t *testing.T) {
	r := newRig(t, Config{}, netsim.Config{})
	r.k.Go("app", func(p *sim.Proc) {
		if _, err := r.mnt.Open(p, r.root, "ghost"); err == nil {
			t.Error("open of missing file succeeded")
		}
	})
	r.k.Run()
	r.k.Shutdown()
}

func TestSequentialReadCountsAndEOF(t *testing.T) {
	r := newRig(t, Config{}, netsim.Config{})
	size := int64(2<<20 + 100)
	r.fs.Create("f", size)
	r.k.Go("app", func(p *sim.Proc) {
		rf, err := r.mnt.Open(p, r.root, "f")
		if err != nil {
			t.Error(err)
			return
		}
		var total int64
		for off := int64(0); off < size; off += BlockSize {
			total += rf.Read(p, off, BlockSize)
		}
		if total != size {
			t.Errorf("read %d of %d bytes", total, size)
		}
		if n := rf.Read(p, size+BlockSize, BlockSize); n != 0 {
			t.Errorf("read past EOF returned %d", n)
		}
	})
	r.k.Run()
	r.k.Shutdown()
	if r.srv.Stats().BytesRead < size {
		t.Fatalf("server saw %d bytes", r.srv.Stats().BytesRead)
	}
}

func TestClientReadAheadIssued(t *testing.T) {
	r := newRig(t, Config{}, netsim.Config{})
	r.fs.Create("f", 2<<20)
	r.k.Go("app", func(p *sim.Proc) {
		rf, _ := r.mnt.Open(p, r.root, "f")
		for off := int64(0); off < 1<<20; off += BlockSize {
			rf.Read(p, off, BlockSize)
		}
	})
	r.k.Run()
	r.k.Shutdown()
	st := r.mnt.Stats()
	if st.ReadAheads == 0 {
		t.Fatal("no client read-ahead issued for sequential reads")
	}
	if st.CacheHits == 0 {
		t.Fatal("read-ahead produced no cache hits")
	}
}

func TestSecondSequentialPassHitsClientCache(t *testing.T) {
	r := newRig(t, Config{}, netsim.Config{})
	r.fs.Create("f", 1<<20)
	r.k.Go("app", func(p *sim.Proc) {
		rf, _ := r.mnt.Open(p, r.root, "f")
		for pass := 0; pass < 2; pass++ {
			for off := int64(0); off < 1<<20; off += BlockSize {
				rf.Read(p, off, BlockSize)
			}
		}
	})
	r.k.Run()
	r.k.Shutdown()
	// The second pass must be nearly all client cache hits: the server
	// sees roughly one set of READs, not two.
	if reads := r.srv.Stats().Reads; reads > 140 {
		t.Fatalf("server reads = %d for 128 distinct blocks read twice", reads)
	}
}

func TestFlushDropsClientCache(t *testing.T) {
	r := newRig(t, Config{}, netsim.Config{})
	r.fs.Create("f", 1<<20)
	r.k.Go("app", func(p *sim.Proc) {
		rf, _ := r.mnt.Open(p, r.root, "f")
		for off := int64(0); off < 1<<20; off += BlockSize {
			rf.Read(p, off, BlockSize)
		}
		before := r.srv.Stats().Reads
		r.mnt.Flush()
		for off := int64(0); off < 1<<20; off += BlockSize {
			rf.Read(p, off, BlockSize)
		}
		if r.srv.Stats().Reads <= before {
			t.Error("flush did not force re-fetch")
		}
	})
	r.k.Run()
	r.k.Shutdown()
}

func TestWriteThrough(t *testing.T) {
	r := newRig(t, Config{}, netsim.Config{})
	r.fs.Create("f", 1<<20)
	r.k.Go("app", func(p *sim.Proc) {
		rf, _ := r.mnt.Open(p, r.root, "f")
		if !rf.Write(p, 0, BlockSize) {
			t.Error("write failed")
		}
	})
	r.k.Run()
	r.k.Shutdown()
	if r.srv.Stats().Writes != 1 {
		t.Fatalf("server writes = %d", r.srv.Stats().Writes)
	}
}

func TestCreateOverMount(t *testing.T) {
	r := newRig(t, Config{}, netsim.Config{})
	r.k.Go("app", func(p *sim.Proc) {
		rf, err := r.mnt.Create(p, r.root, "newfile", 4*BlockSize)
		if err != nil {
			t.Error(err)
			return
		}
		if rf.Size() != 4*BlockSize {
			t.Errorf("created size = %d", rf.Size())
		}
	})
	r.k.Run()
	r.k.Shutdown()
	if _, ok := r.fs.Lookup("newfile"); !ok {
		t.Fatal("file not created on server")
	}
}

func TestGetAttr(t *testing.T) {
	r := newRig(t, Config{}, netsim.Config{})
	f, _ := r.fs.Create("f", 3<<20)
	r.k.Go("app", func(p *sim.Proc) {
		attrs, err := r.mnt.GetAttr(p, nfsproto.FH(f.Handle()))
		if err != nil || attrs.Size != 3<<20 {
			t.Errorf("getattr: %+v err=%v", attrs, err)
		}
	})
	r.k.Run()
	r.k.Shutdown()
}

func TestUDPRetransmissionUnderLoss(t *testing.T) {
	// 20% frame loss: reads must still complete via retransmission.
	r := newRig(t, Config{RetransTimeout: 50 * 1e6}, netsim.Config{LossProb: 0.2})
	r.fs.Create("f", 256<<10)
	done := false
	r.k.Go("app", func(p *sim.Proc) {
		rf, err := r.mnt.Open(p, r.root, "f")
		if err != nil {
			t.Error(err)
			return
		}
		var total int64
		for off := int64(0); off < rf.Size(); off += BlockSize {
			total += rf.Read(p, off, BlockSize)
		}
		done = total == rf.Size()
	})
	r.k.Run()
	r.k.Shutdown()
	if !done {
		t.Fatal("reads did not complete under loss")
	}
	if r.mnt.Stats().Retrans == 0 {
		t.Fatal("no retransmissions under 20% loss")
	}
}

// TestUDPRetransmitTimersStopOnReply: on a lossless network no call is
// retransmitted, and every call's retransmit timer leaves the heap with
// its reply, so the heap is empty once the readers finish.
func TestUDPRetransmitTimersStopOnReply(t *testing.T) {
	r := newRig(t, Config{}, netsim.Config{})
	const readers, size = 4, 512 << 10
	running := readers
	left := -1 // events in the heap when the last reader finished
	for i := 0; i < readers; i++ {
		name := string(rune('a' + i))
		r.fs.Create(name, size)
		r.k.Go("app", func(p *sim.Proc) {
			rf, err := r.mnt.Open(p, r.root, name)
			if err != nil {
				t.Error(err)
				return
			}
			for off := int64(0); off < rf.Size(); off += BlockSize {
				rf.Read(p, off, BlockSize)
			}
			if running--; running == 0 {
				left = r.k.Pending()
			}
		})
	}
	// A limit, not Run: a timer that re-arms after its call completed
	// must fail the test, not hang it.
	r.k.RunUntil(time.Minute)
	r.k.Shutdown()
	st := r.mnt.Stats()
	if running != 0 || st.Calls < readers*size/BlockSize {
		t.Fatalf("%d readers unfinished, %d calls for %d blocks", running, st.Calls, readers*size/BlockSize)
	}
	if st.Retrans != 0 {
		t.Fatalf("%d retransmissions on a lossless network", st.Retrans)
	}
	if left != 0 {
		t.Fatalf("%d events in the heap when the readers finished, want 0", left)
	}
}

// TestUDPRetransmitsOnlyPendingCalls: under loss, every retransmission
// is for a call still awaiting its reply. A retransmission re-arms its
// timer and only the reply stops it, so one fired for a completed call
// would re-arm forever: once no call is pending, the heap must be empty.
func TestUDPRetransmitsOnlyPendingCalls(t *testing.T) {
	r := newRig(t, Config{RetransTimeout: 50 * time.Millisecond}, netsim.Config{LossProb: 0.2})
	r.fs.Create("f", 256<<10)
	done := false
	r.k.Go("app", func(p *sim.Proc) {
		rf, err := r.mnt.Open(p, r.root, "f")
		if err != nil {
			t.Error(err)
			return
		}
		for off := int64(0); off < rf.Size(); off += BlockSize {
			rf.Read(p, off, BlockSize)
		}
		done = true
	})
	// Backoff doubles each timeout, so the last call may take many
	// virtual hours; step until the reads and their read-aheads are done.
	for day := 0; !done || len(r.mnt.pending) > 0; day++ {
		if day == 1000 {
			t.Fatalf("reads not done after %v: %d calls pending", r.k.Now(), len(r.mnt.pending))
		}
		r.k.RunUntil(r.k.Now() + 24*time.Hour)
	}
	r.k.Shutdown()
	if r.mnt.Stats().Retrans == 0 {
		t.Fatal("no retransmissions under 20% loss")
	}
	if n := r.k.Pending(); n != 0 {
		t.Fatalf("no call pending at %v, but %d events in the heap", r.k.Now(), n)
	}
}

func TestTCPMountKeepsOrder(t *testing.T) {
	r := newRig(t, Config{UseTCP: true}, netsim.Config{})
	r.fs.Create("f", 2<<20)
	r.k.Go("app", func(p *sim.Proc) {
		rf, _ := r.mnt.Open(p, r.root, "f")
		for off := int64(0); off < 2<<20; off += BlockSize {
			rf.Read(p, off, BlockSize)
		}
	})
	r.k.Run()
	r.k.Shutdown()
	if st := r.srv.Stats(); st.ReorderedReads != 0 {
		t.Fatalf("TCP mount reordered %d reads", st.ReorderedReads)
	}
}

func TestUDPMountReordersUnderConcurrency(t *testing.T) {
	r := newRig(t, Config{}, netsim.Config{})
	r.fs.Create("f", 4<<20)
	r.k.Go("app", func(p *sim.Proc) {
		rf, _ := r.mnt.Open(p, r.root, "f")
		for off := int64(0); off < 4<<20; off += BlockSize {
			rf.Read(p, off, BlockSize)
		}
	})
	r.k.Run()
	r.k.Shutdown()
	if st := r.srv.Stats(); st.ReorderedReads == 0 {
		t.Fatal("UDP mount never reordered; jitter model inert")
	}
}
