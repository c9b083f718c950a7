package replay

import (
	"bytes"
	"sort"
	"sync"
	"testing"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/nfstrace"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/tracefile"
	"nfstricks/internal/wgather"
)

// replayTarget is a live capturing server to replay against.
type replayTarget struct {
	addr string
	fhA  nfsproto.FH
	fhB  nfsproto.FH
}

func newTarget(t *testing.T) (*replayTarget, func() []tracefile.Record) {
	t.Helper()
	fs := memfs.NewFS()
	payload := make([]byte, 256*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	fhA, _ := fs.Create(memfs.RootFH, "a", payload)
	fhB, _ := fs.Create(memfs.RootFH, "b", payload)
	svc := nfsd.New(fs, nfsd.Config{})

	var buf bytes.Buffer
	start := time.Now()
	w, err := tracefile.NewWriter(&buf, start)
	if err != nil {
		t.Fatal(err)
	}
	capt := nfstrace.NewCaptureAt(w, start)
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{Tap: capt.Tap})
	if err != nil {
		t.Fatal(err)
	}
	tg := &replayTarget{addr: srv.Addr(), fhA: fhA, fhB: fhB}
	var once sync.Once
	collect := func() []tracefile.Record {
		var recs []tracefile.Record
		once.Do(func() {
			srv.Close()
			if err := capt.Err(); err != nil {
				t.Fatal(err)
			}
			if err := capt.Close(); err != nil {
				t.Fatal(err)
			}
		})
		_, recs, err := tracefile.ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	t.Cleanup(func() { collect() })
	return tg, collect
}

// opKey is the per-stream dispatch identity the subsystem must preserve.
type opKey struct {
	proc   uint32
	fh     uint64
	offset uint64
	count  uint32
}

// keysByStream groups a capture by stream in arrival order. The file
// itself is in completion order — concurrent handlers finish out of
// arrival order, which is the paper's reordering made visible — so the
// client-intended per-stream order is recovered by the captured arrival
// timestamps.
func keysByStream(recs []tracefile.Record) map[uint32][]opKey {
	byArrival := append([]tracefile.Record(nil), recs...)
	sort.SliceStable(byArrival, func(i, j int) bool { return byArrival[i].When < byArrival[j].When })
	m := make(map[uint32][]opKey)
	for _, r := range byArrival {
		m[r.Stream] = append(m[r.Stream], opKey{r.Proc, r.FH, r.Offset, r.Count})
	}
	return m
}

// traceFor builds a synthetic two-stream trace against the target's
// handles: stream 1 reads file A sequentially with a WRITE in the
// middle, stream 2 reads file B and carries a LOOKUP (which replay must
// send as a GETATTR surrogate) plus a NULL.
func traceFor(tg *replayTarget, gap time.Duration) []tracefile.Record {
	var recs []tracefile.Record
	when := time.Duration(0)
	add := func(stream uint32, proc uint32, fh nfsproto.FH, off uint64, count uint32) {
		recs = append(recs, tracefile.Record{
			When: when, Stream: stream, Proc: proc, FH: uint64(fh),
			Offset: off, Count: count,
		})
		when += gap
	}
	for i := 0; i < 10; i++ {
		add(1, nfsproto.ProcRead, tg.fhA, uint64(i)*8192, 8192)
		add(2, nfsproto.ProcRead, tg.fhB, uint64(9-i)*8192, 8192)
		if i == 4 {
			add(1, nfsproto.ProcWrite, tg.fhA, 256*1024, 4096)
			add(2, nfsproto.ProcLookup, memfs.RootFH, 0, 0)
		}
	}
	add(1, nfsproto.ProcGetattr, tg.fhA, 0, 0)
	add(2, nfsproto.ProcNull, 0, 0, 0)
	return recs
}

// expectedKeys maps a source trace to what the capturing target should
// observe per stream: identical sequences, with non-native procedures
// rewritten to GETATTR surrogates.
func expectedKeys(src []tracefile.Record) map[uint32][]opKey {
	m := make(map[uint32][]opKey)
	for _, r := range src {
		k := opKey{r.Proc, r.FH, r.Offset, r.Count}
		switch r.Proc {
		case nfsproto.ProcNull, nfsproto.ProcGetattr, nfsproto.ProcRead, nfsproto.ProcWrite:
		default:
			k = opKey{nfsproto.ProcGetattr, r.FH, 0, 0}
		}
		m[r.Stream] = append(m[r.Stream], k)
	}
	return m
}

// matchStreams verifies the captured per-stream sequences are exactly
// the expected ones, up to stream-id relabeling (replay allocates fresh
// connections, so ids differ from the source trace).
func matchStreams(t *testing.T, want, got map[uint32][]opKey) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d streams, want %d", len(got), len(want))
	}
	used := make(map[uint32]bool)
	for wid, wseq := range want {
		found := false
		for gid, gseq := range got {
			if used[gid] || len(gseq) != len(wseq) {
				continue
			}
			same := true
			for i := range wseq {
				if wseq[i] != gseq[i] {
					same = false
					break
				}
			}
			if same {
				used[gid] = true
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("source stream %d: no replayed stream carries its sequence %v\n got %v", wid, wseq, got)
		}
	}
}

// TestReplayPreservesPerStreamSequences is the subsystem's acceptance
// property over real sockets: replaying a trace reproduces each
// stream's (proc, FH, offset, count) sequence exactly, over UDP and
// TCP, closed and open loop.
func TestReplayPreservesPerStreamSequences(t *testing.T) {
	for _, network := range []string{"udp", "tcp"} {
		for _, open := range []bool{false, true} {
			tg, collect := newTarget(t)
			src := traceFor(tg, 0)
			st, err := Run(src, Options{
				Network: network, Addr: tg.addr, Timing: AsFast, OpenLoop: open,
			})
			if err != nil {
				t.Fatalf("%s open=%v: %v", network, open, err)
			}
			if st.Ops != int64(len(src)) || st.Errors != 0 {
				t.Fatalf("%s open=%v: stats %+v", network, open, st)
			}
			if st.Surrogates != 1 {
				t.Fatalf("%s open=%v: surrogates = %d, want 1 (the LOOKUP)", network, open, st.Surrogates)
			}
			if st.Streams != 2 {
				t.Fatalf("%s open=%v: streams = %d", network, open, st.Streams)
			}
			// The WRITE extends file A; all reads and getattrs are OK, so
			// no NFS errors.
			if st.NFSErrors != 0 {
				t.Fatalf("%s open=%v: nfs errors = %d", network, open, st.NFSErrors)
			}
			matchStreams(t, expectedKeys(src), keysByStream(collect()))
		}
	}
}

// TestReplayTimingPolicies checks the schedule policies: faithful
// replay reproduces the captured arrival span within scheduling noise,
// scaled replay compresses it, and as-fast ignores it.
func TestReplayTimingPolicies(t *testing.T) {
	tg, _ := newTarget(t)
	const gap = 5 * time.Millisecond
	src := traceFor(tg, gap) // 22 records: span = 21 * gap = 105ms
	span := src[len(src)-1].When - src[0].When

	faithful, err := Run(src, Options{Addr: tg.addr, Timing: Faithful})
	if err != nil {
		t.Fatal(err)
	}
	if faithful.IssueSpan < span-gap || faithful.IssueSpan > span+150*time.Millisecond {
		t.Fatalf("faithful issue span %v, captured span %v", faithful.IssueSpan, span)
	}

	scaled, err := Run(src, Options{Addr: tg.addr, Timing: Scaled, Speed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if scaled.IssueSpan > span/2 || scaled.IssueSpan < span/16 {
		t.Fatalf("4x-scaled issue span %v, captured span %v", scaled.IssueSpan, span)
	}

	fast, err := Run(src, Options{Addr: tg.addr, Timing: AsFast})
	if err != nil {
		t.Fatal(err)
	}
	if fast.IssueSpan > span/2 {
		t.Fatalf("as-fast issue span %v not faster than captured %v", fast.IssueSpan, span)
	}
	if fast.OpsPerSec <= faithful.OpsPerSec {
		t.Fatalf("as-fast %.0f ops/s not above faithful %.0f", fast.OpsPerSec, faithful.OpsPerSec)
	}
}

// TestReplayCaptureRoundTrip closes the full loop: drive a live
// workload, capture it, replay the capture against a second capturing
// server, and compare the two captures stream for stream.
func TestReplayCaptureRoundTrip(t *testing.T) {
	// First server: capture a real client workload.
	tg1, collect1 := newTarget(t)
	c, err := memfs.DialClient("tcp", tg1.addr)
	if err != nil {
		t.Fatal(err)
	}
	fh, size, err := c.Lookup(memfs.RootFH, "a")
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < uint64(size); off += 16384 {
		if _, _, err := c.Read(fh, off, 16384); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	captured := collect1()
	if len(captured) == 0 {
		t.Fatal("nothing captured")
	}

	// Second server: replay the capture into a fresh capture. Handles
	// match because both stores were built identically.
	tg2, collect2 := newTarget(t)
	st, err := Run(captured, Options{Addr: tg2.addr, Timing: AsFast})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != int64(len(captured)) || st.Errors != 0 || st.NFSErrors != 0 {
		t.Fatalf("round-trip stats %+v", st)
	}
	matchStreams(t, expectedKeys(captured), keysByStream(collect2()))
}

// TestReplayDispatchesInArrivalOrder: .nft files hold records in
// completion order, where a pipelined stream's arrival times regress;
// replay must dispatch by arrival time, not file position.
func TestReplayDispatchesInArrivalOrder(t *testing.T) {
	tg, collect := newTarget(t)
	// One stream, file order scrambled relative to arrival (When) order:
	// completion-order capture of a pipelined client.
	src := []tracefile.Record{
		{When: 10 * time.Millisecond, Stream: 1, Proc: nfsproto.ProcRead, FH: uint64(tg.fhA), Offset: 8192, Count: 8192},
		{When: 5 * time.Millisecond, Stream: 1, Proc: nfsproto.ProcRead, FH: uint64(tg.fhA), Offset: 0, Count: 8192},
		{When: 15 * time.Millisecond, Stream: 1, Proc: nfsproto.ProcRead, FH: uint64(tg.fhA), Offset: 16384, Count: 8192},
	}
	if _, err := Run(src, Options{Addr: tg.addr, Timing: AsFast}); err != nil {
		t.Fatal(err)
	}
	got := keysByStream(collect())
	if len(got) != 1 {
		t.Fatalf("streams = %d", len(got))
	}
	for _, seq := range got {
		wantOffsets := []uint64{0, 8192, 16384} // arrival order, not file order
		if len(seq) != 3 {
			t.Fatalf("ops = %d", len(seq))
		}
		for i, k := range seq {
			if k.offset != wantOffsets[i] {
				t.Fatalf("dispatch order: op %d offset %d, want %d (file order leaked through)", i, k.offset, wantOffsets[i])
			}
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	recs := []tracefile.Record{{Proc: nfsproto.ProcNull}}
	for _, opts := range []Options{
		{},                                     // no addr
		{Addr: "x", Network: "sctp"},           // bad network
		{Addr: "x", Timing: Scaled},            // scaled without speed
		{Addr: "x", Timing: Scaled, Speed: -1}, // negative speed
		{Addr: "x", Amplify: 2},                // amplified without a Dial
	} {
		if _, err := Run(recs, opts); err == nil {
			t.Fatalf("options %+v accepted", opts)
		}
	}
	// Empty trace: no error, zero stats, no dial.
	st, err := Run(nil, Options{Addr: "127.0.0.1:1"})
	if err != nil || st.Ops != 0 {
		t.Fatalf("empty trace: %v %+v", err, st)
	}
}

// TestReplayWriteStabilityAndCommit replays an asynchronous write
// stream — UNSTABLE writes capped by COMMITs, plus one FILE_SYNC
// write — against a gathering live server and checks the server
// observed exactly the recorded stability mix and commit count.
func TestReplayWriteStabilityAndCommit(t *testing.T) {
	fs := memfs.NewFS()
	fh, _ := fs.Create(memfs.RootFH, "w", make([]byte, 256*1024))
	svc := nfsd.New(fs, nfsd.Config{Gather: wgather.Config{Window: time.Minute}})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var recs []tracefile.Record
	when := time.Duration(0)
	add := func(proc uint32, off uint64, count, stable uint32) {
		recs = append(recs, tracefile.Record{
			When: when, Stream: 1, Proc: proc, FH: uint64(fh),
			Offset: off, Count: count, Stable: stable,
		})
		when += time.Millisecond
	}
	for i := 0; i < 8; i++ {
		add(nfsproto.ProcWrite, uint64(i)*8192, 8192, nfsproto.WriteUnstable)
		if i%4 == 3 {
			add(nfsproto.ProcCommit, 0, 0, 0)
		}
	}
	add(nfsproto.ProcWrite, 8*8192, 8192, nfsproto.WriteFileSync)

	st, err := Run(recs, Options{Network: "tcp", Addr: srv.Addr(), Timing: AsFast})
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 || st.NFSErrors != 0 || st.Surrogates != 0 {
		t.Fatalf("replay stats %+v", st)
	}
	ws := svc.WriteStats()
	if ws.WritesUnstable != 8 || ws.WritesFileSync != 1 || ws.Commits != 2 {
		t.Fatalf("server observed unstable=%d filesync=%d commits=%d, want 8/1/2",
			ws.WritesUnstable, ws.WritesFileSync, ws.Commits)
	}
}

// TestReplayV1TraceStillWorks replays a version-1 (no stability field)
// stream: its writes must arrive FILE_SYNC — what the v1-era client
// actually sent — and the per-stream order must hold.
func TestReplayV1TraceStillWorks(t *testing.T) {
	fs := memfs.NewFS()
	fh, _ := fs.Create(memfs.RootFH, "w", make([]byte, 64*1024))
	svc := nfsd.New(fs, nfsd.Config{Gather: wgather.Config{Window: time.Minute}})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Simulate records loaded from a v1 file: the Reader synthesizes
	// Stable = V1Stable (FILE_SYNC).
	var recs []tracefile.Record
	for i := 0; i < 4; i++ {
		recs = append(recs, tracefile.Record{
			When: time.Duration(i) * time.Millisecond, Stream: 1,
			Proc: nfsproto.ProcWrite, FH: uint64(fh),
			Offset: uint64(i) * 8192, Count: 8192, Stable: tracefile.V1Stable,
		})
	}
	st, err := Run(recs, Options{Network: "udp", Addr: srv.Addr(), Timing: AsFast})
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 || st.NFSErrors != 0 {
		t.Fatalf("replay stats %+v", st)
	}
	ws := svc.WriteStats()
	if ws.WritesFileSync != 4 || ws.WritesUnstable != 0 {
		t.Fatalf("v1 writes arrived unstable=%d filesync=%d, want 0/4",
			ws.WritesUnstable, ws.WritesFileSync)
	}
	// FILE_SYNC write-through: everything already flushed, nothing dirty.
	if ws.DirtyBytes != 0 {
		t.Fatalf("dirty = %d after v1 replay", ws.DirtyBytes)
	}
}
