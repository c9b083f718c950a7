package nfsd_test

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/sunrpc"
	"nfstricks/internal/vfs"
)

// replayHarness drives the service's InfoHandler directly, playing the
// role of the RPC layer: same client address, chosen XIDs, raw bodies.
type replayHarness struct {
	t *testing.T
	h rpcnet.InfoHandler
}

func newReplayHarness(t *testing.T, drcOn bool) (*replayHarness, *nfsd.Service) {
	t.Helper()
	svc := nfsd.New(memfs.NewFS(), nfsd.Config{DRC: nfsd.DRCConfig{Enabled: drcOn}})
	t.Cleanup(func() { svc.Close() })
	return &replayHarness{t: t, h: svc.InfoHandler()}, svc
}

// call sends one request and requires RPC-level acceptance.
func (rh *replayHarness) call(xid, proc uint32, args []byte) []byte {
	rh.t.Helper()
	info := rpcnet.CallInfo{
		XID:    xid,
		Client: netip.MustParseAddrPort("127.0.0.1:700"),
	}
	out, stat := rh.h(info, proc, args, nil)
	if stat != sunrpc.AcceptSuccess {
		rh.t.Fatalf("proc %s xid %d: accept stat %d", nfsproto.ProcName(proc), xid, stat)
	}
	return out
}

// status decodes the nfsstat3 leading every reduced result.
func status(t *testing.T, reply []byte) uint32 {
	t.Helper()
	if len(reply) < 4 {
		t.Fatalf("reply too short: %d bytes", len(reply))
	}
	return uint32(reply[0])<<24 | uint32(reply[1])<<16 | uint32(reply[2])<<8 | uint32(reply[3])
}

// TestDRCReplayNonIdempotent is the regression table for the wrong
// answers retransmission produces: each non-idempotent procedure is
// sent twice with the same XID and arguments — the wire pattern of a
// client whose reply was lost. With the DRC on, the replay returns the
// original's reply bytes and the procedure executes exactly once. With
// it off, the pinned wrong answer comes back: EXIST from MKDIR, NOENT
// from REMOVE and RENAME, and CREATE silently replacing the file with a
// fresh handle while the client still holds the old one.
func TestDRCReplayNonIdempotent(t *testing.T) {
	cases := []struct {
		name string
		proc uint32
		// setup prepares state and returns the request body.
		setup func(rh *replayHarness) []byte
		// wrongStatus is the DRC-off replay's status (OK for CREATE,
		// whose wrong answer is a different handle, checked separately).
		wrongStatus uint32
	}{
		{
			name: "create",
			proc: nfsproto.ProcCreate,
			setup: func(rh *replayHarness) []byte {
				return (&nfsproto.CreateArgs{Dir: vfs.RootFH, Name: "f", Size: 64}).Marshal()
			},
			wrongStatus: nfsproto.OK,
		},
		{
			name: "mkdir",
			proc: nfsproto.ProcMkdir,
			setup: func(rh *replayHarness) []byte {
				return (&nfsproto.MkdirArgs{Dir: vfs.RootFH, Name: "d"}).Marshal()
			},
			wrongStatus: nfsproto.ErrExist,
		},
		{
			name: "remove",
			proc: nfsproto.ProcRemove,
			setup: func(rh *replayHarness) []byte {
				rh.call(1, nfsproto.ProcCreate,
					(&nfsproto.CreateArgs{Dir: vfs.RootFH, Name: "victim"}).Marshal())
				return (&nfsproto.RemoveArgs{Dir: vfs.RootFH, Name: "victim"}).Marshal()
			},
			wrongStatus: nfsproto.ErrNoEnt,
		},
		{
			name: "rename",
			proc: nfsproto.ProcRename,
			setup: func(rh *replayHarness) []byte {
				rh.call(1, nfsproto.ProcCreate,
					(&nfsproto.CreateArgs{Dir: vfs.RootFH, Name: "a"}).Marshal())
				return (&nfsproto.RenameArgs{
					FromDir: vfs.RootFH, FromName: "a",
					ToDir: vfs.RootFH, ToName: "b",
				}).Marshal()
			},
			wrongStatus: nfsproto.ErrNoEnt,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name+"/drc=on", func(t *testing.T) {
			rh, svc := newReplayHarness(t, true)
			body := tc.setup(rh)
			const xid = 42
			first := append([]byte(nil), rh.call(xid, tc.proc, body)...)
			if st := status(t, first); st != nfsproto.OK {
				t.Fatalf("original returned status %d", st)
			}
			replay := rh.call(xid, tc.proc, body)
			if !bytes.Equal(first, replay) {
				t.Fatalf("replayed reply differs from original:\n first: %x\nreplay: %x", first, replay)
			}
			if n := svc.ProcCounts()[tc.proc]; n != 1 {
				t.Fatalf("%s executed %d times, want once", nfsproto.ProcName(tc.proc), n)
			}
			st := svc.DRCStats()
			if st.Hits != 1 {
				t.Fatalf("drc stats %v, want 1 hit", st)
			}
		})
		t.Run(tc.name+"/drc=off", func(t *testing.T) {
			rh, svc := newReplayHarness(t, false)
			body := tc.setup(rh)
			const xid = 42
			first := append([]byte(nil), rh.call(xid, tc.proc, body)...)
			if st := status(t, first); st != nfsproto.OK {
				t.Fatalf("original returned status %d", st)
			}
			replay := rh.call(xid, tc.proc, body)
			if st := status(t, replay); st != tc.wrongStatus {
				t.Fatalf("replay status %d, want the pinned wrong answer %d", st, tc.wrongStatus)
			}
			if tc.proc == nfsproto.ProcCreate {
				// CREATE's wrong answer is quieter: success, but the
				// replacement got a new handle — the client's original
				// handle now points at an orphan.
				f, err := nfsproto.UnmarshalCreateRes(first)
				if err != nil {
					t.Fatal(err)
				}
				r, err := nfsproto.UnmarshalCreateRes(replay)
				if err != nil {
					t.Fatal(err)
				}
				if f.FH == r.FH {
					t.Fatal("re-executed CREATE returned the same handle; expected a replacement")
				}
			}
			if svc.DRCEnabled() {
				t.Fatal("DRC reported enabled in the off harness")
			}
		})
	}
}

// gatedBackend blocks Mkdir until released, so a test can hold a
// non-idempotent call in-execution while a retransmission arrives.
type gatedBackend struct {
	*memfs.FS
	entered chan struct{}
	release chan struct{}
}

func (g *gatedBackend) Mkdir(dir nfsproto.FH, name string) (nfsproto.FH, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.FS.Mkdir(dir, name)
}

// TestDRCBusyDropsRacingRetransmission: while the original is still
// executing, an identical retransmission must be dropped without a
// reply (StatDrop) — not executed again, not blocked on — and once the
// original completes, the next retransmission replays its reply.
func TestDRCBusyDropsRacingRetransmission(t *testing.T) {
	gb := &gatedBackend{FS: memfs.NewFS(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	svc := nfsd.New(gb, nfsd.Config{DRC: nfsd.DRCConfig{Enabled: true}})
	defer svc.Close()
	h := svc.InfoHandler()
	info := rpcnet.CallInfo{XID: 9, Client: netip.MustParseAddrPort("127.0.0.1:700")}
	body := (&nfsproto.MkdirArgs{Dir: vfs.RootFH, Name: "slow"}).Marshal()

	firstDone := make(chan []byte, 1)
	go func() {
		out, _ := h(info, nfsproto.ProcMkdir, body, nil)
		firstDone <- append([]byte(nil), out...)
	}()
	<-gb.entered // the original is inside the backend
	if _, stat := h(info, nfsproto.ProcMkdir, body, nil); stat != rpcnet.StatDrop {
		t.Fatalf("racing retransmission stat %d, want StatDrop", stat)
	}
	close(gb.release)
	first := <-firstDone
	replay, stat := h(info, nfsproto.ProcMkdir, body, nil)
	if stat != sunrpc.AcceptSuccess || !bytes.Equal(first, replay) {
		t.Fatalf("post-completion retransmission: stat %d, reply match %v", stat, bytes.Equal(first, replay))
	}
	st := svc.DRCStats()
	if st.Busy != 1 || st.Hits != 1 {
		t.Fatalf("drc stats %v, want 1 busy drop and 1 hit", st)
	}
}

// TestDRCAbortReleasesReservation: a call rejected above the NFS layer
// (garbage args) must not leave a stuck in-progress reservation — the
// client's clean retry has to execute, not hang on Busy forever.
func TestDRCAbortReleasesReservation(t *testing.T) {
	rh, svc := newReplayHarness(t, true)
	garbage := []byte{0xff} // too short for CreateArgs
	info := rpcnet.CallInfo{XID: 7, Client: netip.MustParseAddrPort("127.0.0.1:700")}
	if _, stat := rh.h(info, nfsproto.ProcCreate, garbage, nil); stat != sunrpc.AcceptGarbageArgs {
		t.Fatalf("garbage args accepted: stat %d", stat)
	}
	// Same XID, now with well-formed args (different checksum → a
	// different DRC identity, but the aborted reservation must be gone
	// either way; replay the garbage to prove the slot was released).
	if _, stat := rh.h(info, nfsproto.ProcCreate, garbage, nil); stat != sunrpc.AcceptGarbageArgs {
		t.Fatalf("garbage retry stat %d, want GarbageArgs again (not a cached reply, not a drop)", stat)
	}
	if st := svc.DRCStats(); st.Busy != 0 || st.Entries != 0 {
		t.Fatalf("drc stats %v, want no busy drops and no stuck reservations", st)
	}
}

// TestServerAnswersRetransmissionFromDRC: a server built by NewServer
// from a DRC-enabled service answers a same-XID CREATE retransmission
// on the wire from the cache — the bytes of the original reply, with
// the procedure executed once. No server constructor can bypass the
// cache.
func TestServerAnswersRetransmissionFromDRC(t *testing.T) {
	fs := memfs.NewFS()
	svc := nfsd.New(fs, nfsd.Config{DRC: nfsd.DRCConfig{Enabled: true}})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	call := sunrpc.MarshalCall(&sunrpc.Call{
		XID: 0x5eed, Prog: nfsproto.Program, Vers: nfsproto.Version3,
		Proc: nfsproto.ProcCreate,
		Cred: sunrpc.AuthNoneCred(), Verf: sunrpc.AuthNoneCred(),
		Body: (&nfsproto.CreateArgs{Dir: vfs.RootFH, Name: "once"}).Marshal(),
	})
	roundTrip := func() []byte {
		t.Helper()
		if _, err := conn.Write(call); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 64<<10)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf[:n]
	}
	first := roundTrip()
	replay := roundTrip()
	if !bytes.Equal(first, replay) {
		t.Fatalf("retransmission got a different reply:\n first %x\nreplay %x", first, replay)
	}
	rep, err := sunrpc.UnmarshalReply(first)
	if err != nil || rep.XID != 0x5eed || rep.Stat != sunrpc.AcceptSuccess || status(t, rep.Body) != nfsproto.OK {
		t.Fatalf("CREATE reply %+v (err %v), want an accepted OK reply to xid 0x5eed", rep, err)
	}
	if st := svc.DRCStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("drc stats %+v, want 1 miss then 1 hit", st)
	}
	if n := svc.ProcCounts()[nfsproto.ProcCreate]; n != 1 {
		t.Fatalf("CREATE executed %d times, want 1", n)
	}
}
