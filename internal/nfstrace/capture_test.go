package nfstrace

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/tracefile"
	"nfstricks/internal/wgather"
)

// captureRun serves a small live store with capture enabled, drives a
// known workload over the given network, and returns the decoded trace.
func captureRun(t *testing.T, network string) []tracefile.Record {
	t.Helper()
	var buf bytes.Buffer
	start := time.Now()
	w, err := tracefile.NewWriter(&buf, start)
	if err != nil {
		t.Fatal(err)
	}
	cap := NewCaptureAt(w, start)

	fs := memfs.NewFS()
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	fs.Create(memfs.RootFH, "data", payload)
	svc := nfsd.New(fs, nfsd.Config{})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{Tap: cap.Tap})
	if err != nil {
		t.Fatal(err)
	}

	c, err := memfs.DialClient(network, srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	fh, size, err := c.Lookup(memfs.RootFH, "data")
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < uint64(size); off += 8192 {
		if _, _, err := c.Read(fh, off, 8192); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Write(fh, uint64(size), []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Lookup(memfs.RootFH, "missing"); err == nil {
		t.Fatal("lookup of missing file succeeded")
	}
	c.Close()
	srv.Close()

	if err := cap.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cap.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := tracefile.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestCaptureLiveServer checks the whole capture path over both
// transports: every RPC traced with correct proc/FH/offset/count/status
// and non-decreasing per-arrival times up to completion-order jitter.
func TestCaptureLiveServer(t *testing.T) {
	for _, network := range []string{"udp", "tcp"} {
		recs := captureRun(t, network)
		// 1 lookup + 8 reads + 1 write + 1 failed lookup = 11.
		if len(recs) != 11 {
			t.Fatalf("%s: %d records, want 11", network, len(recs))
		}
		var reads, lookups, writes int
		var lastOffset uint64
		var fh uint64
		for _, r := range recs {
			if r.Status&tracefile.StatusRPCError != 0 {
				t.Fatalf("%s: RPC-level error captured: %+v", network, r)
			}
			switch r.Proc {
			case nfsproto.ProcLookup:
				lookups++
				if r.FH != uint64(memfs.RootFH) {
					t.Fatalf("%s: lookup dir FH = %d", network, r.FH)
				}
			case nfsproto.ProcRead:
				reads++
				if r.Count != 8192 {
					t.Fatalf("%s: read count = %d", network, r.Count)
				}
				if fh == 0 {
					fh = r.FH
				} else if r.FH != fh {
					t.Fatalf("%s: read FH changed: %d then %d", network, fh, r.FH)
				}
				if reads > 1 && r.Offset != lastOffset+8192 {
					t.Fatalf("%s: read offsets not sequential: %d after %d", network, r.Offset, lastOffset)
				}
				lastOffset = r.Offset
				if r.Status != nfsproto.OK {
					t.Fatalf("%s: read status = %d", network, r.Status)
				}
			case nfsproto.ProcWrite:
				writes++
				if r.Offset != 64*1024 || r.Count != 4 {
					t.Fatalf("%s: write off=%d count=%d", network, r.Offset, r.Count)
				}
			}
		}
		if reads != 8 || lookups != 2 || writes != 1 {
			t.Fatalf("%s: reads=%d lookups=%d writes=%d", network, reads, lookups, writes)
		}
		// The failed lookup carries its NFS error status.
		var sawNoEnt bool
		for _, r := range recs {
			if r.Proc == nfsproto.ProcLookup && r.Status == nfsproto.ErrNoEnt {
				sawNoEnt = true
			}
		}
		if !sawNoEnt {
			t.Fatalf("%s: missing-file lookup status not captured", network)
		}
		// Latencies are plausible (positive, sub-second on loopback).
		for _, r := range recs {
			if r.Latency <= 0 || r.Latency > 10*time.Second {
				t.Fatalf("%s: latency %v", network, r.Latency)
			}
		}

		// The analyzer integration: a sequential capture shows no
		// reordering and high sequentiality.
		a := Analyze(FromTracefile(recs), nfsproto.ProcRead)
		if a.Reads != 8 || a.Reordered != 0 {
			t.Fatalf("%s: analysis %+v", network, a)
		}
		if a.SequentialFrac < 0.8 {
			t.Fatalf("%s: sequential frac %.2f", network, a.SequentialFrac)
		}
	}
}

// TestFromTracefileSortsByArrival: analyzers measure server-observed
// arrival order, but trace files are completion-ordered; the conversion
// must not charge completion jitter as request reordering.
func TestFromTracefileSortsByArrival(t *testing.T) {
	// Arrival order (by When) is perfectly sequential; file order is
	// scrambled, as a pipelined capture would store it.
	recs := []tracefile.Record{
		{When: 2 * time.Millisecond, Proc: nfsproto.ProcRead, FH: 1, Offset: 2 * 8192, Count: 8192},
		{When: 0, Proc: nfsproto.ProcRead, FH: 1, Offset: 0, Count: 8192},
		{When: 3 * time.Millisecond, Proc: nfsproto.ProcRead, FH: 1, Offset: 3 * 8192, Count: 8192},
		{When: 1 * time.Millisecond, Proc: nfsproto.ProcRead, FH: 1, Offset: 1 * 8192, Count: 8192},
	}
	converted := FromTracefile(recs)
	for i, r := range converted {
		if r.When != time.Duration(i)*time.Millisecond {
			t.Fatalf("converted[%d].When = %v, not arrival-sorted", i, r.When)
		}
	}
	a := Analyze(converted, nfsproto.ProcRead)
	if a.Reordered != 0 {
		t.Fatalf("completion jitter charged as reordering: %+v", a)
	}
	if a.SequentialFrac < 0.7 {
		t.Fatalf("sequential frac %.2f", a.SequentialFrac)
	}
}

// TestAnalyzeFile runs the FromFile path end to end through a real file.
func TestAnalyzeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cap.nft")
	w, err := tracefile.Create(path, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rec := tracefile.Record{
			When: time.Duration(i) * time.Millisecond, Stream: 1,
			Proc: nfsproto.ProcRead, FH: 7, Offset: uint64(i) * 8192, Count: 8192,
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Reads != 20 || a.Reordered != 0 || a.Files != 1 {
		t.Fatalf("analysis %+v", a)
	}
	recs, err := FromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 || recs[19].When != 19*time.Millisecond {
		t.Fatalf("FromFile: %d records, last When %v", len(recs), recs[len(recs)-1].When)
	}
	if mix := OpMix(recs); mix[nfsproto.ProcRead] != 20 {
		t.Fatalf("op mix %v", mix)
	}
}

// TestCaptureWritePath drives UNSTABLE writes plus a COMMIT through a
// gathering live server and checks capture records their stability
// levels and the COMMIT's range — the fields the replay engine needs to
// reproduce an asynchronous write stream.
func TestCaptureWritePath(t *testing.T) {
	var buf bytes.Buffer
	start := time.Now()
	w, err := tracefile.NewWriter(&buf, start)
	if err != nil {
		t.Fatal(err)
	}
	cap := NewCaptureAt(w, start)

	fs := memfs.NewFS()
	fh, _ := fs.Create(memfs.RootFH, "w", make([]byte, 64*1024))
	svc := nfsd.New(fs, nfsd.Config{Gather: wgather.Config{Window: time.Minute}})
	defer svc.Close()
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{Tap: cap.Tap})
	if err != nil {
		t.Fatal(err)
	}

	c, err := memfs.DialClient("tcp", srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	data := make([]byte, 8192)
	for off := uint64(0); off < 4*8192; off += 8192 {
		if _, err := c.WriteUnstable(fh, off, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Write(fh, 4*8192, data); err != nil { // FILE_SYNC
		t.Fatal(err)
	}
	if _, err := c.Commit(fh, 0, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()
	if err := cap.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err := tracefile.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var unstable, filesync, commits int
	for _, r := range recs {
		switch r.Proc {
		case nfsproto.ProcWrite:
			switch r.Stable {
			case nfsproto.WriteUnstable:
				unstable++
			case nfsproto.WriteFileSync:
				filesync++
			default:
				t.Fatalf("write captured with stability %d", r.Stable)
			}
		case nfsproto.ProcCommit:
			commits++
			if r.FH != uint64(fh) || r.Offset != 0 || r.Count != 0 {
				t.Fatalf("commit captured as fh=%d off=%d count=%d", r.FH, r.Offset, r.Count)
			}
			if r.Status != nfsproto.OK {
				t.Fatalf("commit status %d", r.Status)
			}
		}
	}
	if unstable != 4 || filesync != 1 || commits != 1 {
		t.Fatalf("captured unstable=%d filesync=%d commits=%d, want 4/1/1", unstable, filesync, commits)
	}

	mix := WriteStabilityMix(recs)
	if mix[nfsproto.WriteUnstable] != 4 || mix[nfsproto.WriteFileSync] != 1 {
		t.Fatalf("stability mix %v", mix)
	}
	cd := CommitDistances(recs)
	if cd.Writes != 5 || cd.Committed != 5 || cd.Uncommitted != 0 {
		t.Fatalf("commit distances %+v", cd)
	}
	// The last write (FILE_SYNC, immediately before COMMIT) is 0 ops
	// away; the first unstable write is 4 ops away.
	if cd.MaxOps != 4 || cd.P50Ops != 2 {
		t.Fatalf("commit distances %+v", cd)
	}
}

// TestCommitDistancesUncommitted checks writes with no following COMMIT
// are reported as uncommitted.
func TestCommitDistancesUncommitted(t *testing.T) {
	recs := []tracefile.Record{
		{When: 0, Stream: 1, Proc: nfsproto.ProcWrite, FH: 1, Stable: nfsproto.WriteUnstable},
		{When: 1, Stream: 1, Proc: nfsproto.ProcWrite, FH: 2, Stable: nfsproto.WriteUnstable},
		{When: 2, Stream: 1, Proc: nfsproto.ProcCommit, FH: 1},
	}
	cd := CommitDistances(recs)
	if cd.Writes != 2 || cd.Committed != 1 || cd.Uncommitted != 1 {
		t.Fatalf("%+v", cd)
	}
	if cd.MaxOps != 1 {
		t.Fatalf("distance to commit = %d, want 1 (one request between)", cd.MaxOps)
	}
}
