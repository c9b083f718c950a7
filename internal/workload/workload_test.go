package workload

import (
	"testing"
	"time"

	"nfstricks/internal/nfsclient"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsserver"
	"nfstricks/internal/readahead"
	"nfstricks/internal/testbed"
)

func TestFileName(t *testing.T) {
	if got := FileName(256, 0); got != "f256m.0" {
		t.Fatalf("FileName = %q", got)
	}
	if got := FileName(8, 31); got != "f008m.31" {
		t.Fatalf("FileName = %q", got)
	}
}

func TestCreateFileSetAndFilesFor(t *testing.T) {
	tb, err := testbed.New(testbed.Options{Seed: 1, Disk: testbed.IDE})
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateFileSet(tb.FS, 16); err != nil {
		t.Fatal(err)
	}
	for _, n := range ReaderCounts {
		names := FilesFor(n)
		if len(names) != n {
			t.Fatalf("FilesFor(%d) = %d names", n, len(names))
		}
		for _, name := range names {
			f, ok := tb.FS.Lookup(name)
			if !ok {
				t.Fatalf("file %s missing", name)
			}
			want := int64(256/n) * MB / 16
			if f.Size() != want {
				t.Fatalf("%s size = %d, want %d", name, f.Size(), want)
			}
		}
	}
}

func TestStrideOffsetsTwoWay(t *testing.T) {
	// 8 blocks, stride 2: 0, N/2, 1, N/2+1, ... in bytes.
	offs := StrideOffsets(8*BlockSize, BlockSize, 2)
	want := []int64{0, 4, 1, 5, 2, 6, 3, 7}
	if len(offs) != len(want) {
		t.Fatalf("len = %d", len(offs))
	}
	for i, w := range want {
		if offs[i] != w*BlockSize {
			t.Fatalf("offs[%d] = %d, want %d", i, offs[i], w*BlockSize)
		}
	}
}

func TestStrideOffsetsCoverEveryBlock(t *testing.T) {
	for _, s := range []int{2, 4, 8} {
		const blocks = 100
		offs := StrideOffsets(blocks*BlockSize, BlockSize, s)
		if len(offs) != blocks {
			t.Fatalf("s=%d: %d offsets, want %d", s, len(offs), blocks)
		}
		seen := make(map[int64]bool)
		for _, o := range offs {
			if o%BlockSize != 0 || seen[o] {
				t.Fatalf("s=%d: bad or duplicate offset %d", s, o)
			}
			seen[o] = true
		}
	}
}

func TestLocalReadersSmoke(t *testing.T) {
	tb, err := testbed.New(testbed.Options{Seed: 1, Disk: testbed.IDE})
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateFileSet(tb.FS, 32); err != nil {
		t.Fatal(err)
	}
	res, err := RunLocalReaders(tb, FilesFor(4))
	tb.K.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 4*(64*MB/32) {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	mbps := res.ThroughputMBps()
	t.Logf("local 4 readers: %.1f MB/s, elapsed %v", mbps, res.Elapsed)
	if mbps < 10 || mbps > 60 {
		t.Fatalf("local throughput %.1f MB/s outside plausible disk range", mbps)
	}
}

func TestNFSReadersSmokeUDP(t *testing.T) {
	tb, err := testbed.New(testbed.Options{
		Seed: 1, Disk: testbed.IDE,
		Server: nfsserver.Config{
			Heuristic: readahead.SlowDown{},
			Table:     nfsheur.ImprovedParams(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateFileSet(tb.FS, 32); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := RunNFSReaders(tb, FilesFor(2))
	tb.K.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	mbps := res.ThroughputMBps()
	st := tb.Server.Stats()
	t.Logf("NFS/UDP 2 readers: %.1f MB/s, elapsed %v, server reads %d, reordered %d",
		mbps, res.Elapsed, st.Reads, st.ReorderedReads)
	if st.Reads == 0 {
		t.Fatal("no READs reached the server")
	}
	if mbps < 3 || mbps > 54 {
		t.Fatalf("NFS throughput %.1f MB/s outside plausible range", mbps)
	}
}

func TestNFSReadersSmokeTCP(t *testing.T) {
	tb, err := testbed.New(testbed.Options{
		Seed:   1,
		Disk:   testbed.IDE,
		Client: clientTCP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateFileSet(tb.FS, 32); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := RunNFSReaders(tb, FilesFor(2))
	tb.K.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	st := tb.Server.Stats()
	t.Logf("NFS/TCP 2 readers: %.1f MB/s, server reads %d, reordered %d",
		res.ThroughputMBps(), st.Reads, st.ReorderedReads)
	if st.Reads == 0 {
		t.Fatal("no READs reached the server over TCP")
	}
	// The TCP mount serializes sends: reordering must be rare.
	if st.ReorderedReads*20 > st.Reads {
		t.Fatalf("TCP reordered %d of %d reads; send-lock not working",
			st.ReorderedReads, st.Reads)
	}
}

func clientTCP() (c nfsclient.Config) {
	c.UseTCP = true
	return
}

func TestNFSStrideSmoke(t *testing.T) {
	tb, err := testbed.New(testbed.Options{
		Seed: 1, Disk: testbed.IDE,
		Server: nfsserver.Config{
			Heuristic: &readahead.CursorHeuristic{},
			Table:     nfsheur.ImprovedParams(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.FS.Create("stridefile", 8*MB); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := RunNFSStrideReader(tb, "stridefile", 4)
	tb.K.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("NFS stride-4: %.1f MB/s", res.ThroughputMBps())
	if res.Bytes != 8*MB {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestPerReaderTimesRecorded(t *testing.T) {
	tb, err := testbed.New(testbed.Options{Seed: 2, Disk: testbed.SCSI})
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateFileSet(tb.FS, 64); err != nil {
		t.Fatal(err)
	}
	res, err := RunLocalReaders(tb, FilesFor(8))
	tb.K.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerReader) != 8 {
		t.Fatalf("per-reader count = %d", len(res.PerReader))
	}
	for i, d := range res.PerReader {
		if d <= 0 || d > time.Hour {
			t.Fatalf("reader %d time %v implausible", i, d)
		}
	}
}

// TestBusyClientHeapHoldsLiveWork runs one fig7 cell (ide1, UDP, busy
// client, 16 readers at scale 32) and checks that the kernel holds only
// live work. The cell's live events peak at a few dozen; retransmit
// timers left pending after their replies, or superseded CPU
// completions, would push it toward a thousand. Nothing may outlive
// the workload, so the heap drains at the instant the last reader
// finishes.
func TestBusyClientHeapHoldsLiveWork(t *testing.T) {
	tb, err := testbed.New(testbed.Options{
		Seed: 3, Disk: testbed.IDE, Partition: 1, BusyProcs: 4,
		Server: nfsserver.Config{Heuristic: readahead.Default{}, Table: nfsheur.ImprovedParams()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateFileSet(tb.FS, 32); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := RunNFSReaders(tb, FilesFor(16))
	tb.K.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	mean, peak := tb.K.HeapDepth()
	t.Logf("%d events, heap depth mean %.1f peak %d, elapsed %v, drained at %v",
		tb.K.EventsRun(), mean, peak, res.Elapsed, tb.K.Now())
	if peak > 64 {
		t.Errorf("heap peaked at %d events, want at most 64", peak)
	}
	if tb.K.Now() != res.Elapsed {
		t.Errorf("heap drained at %v, workload ended at %v", tb.K.Now(), res.Elapsed)
	}
}
