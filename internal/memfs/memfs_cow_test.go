package memfs

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/sunrpc"
)

// TestWriteSemantics pins down Write's observable behaviour across the
// in-place-append and copy-on-write arms: overlap, extension, and
// zero-filled gaps.
func TestWriteSemantics(t *testing.T) {
	fs := NewFS()
	fh, _ := fs.Create(RootFH, "f", []byte("abcdef"))

	// Overlapping overwrite.
	if err := fs.Write(fh, 2, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	got, _, _ := fs.Read(fh, 0, 64)
	if !bytes.Equal(got, []byte("abXYef")) {
		t.Fatalf("after overwrite: %q", got)
	}

	// Append with a gap: the gap must read as zeros.
	if err := fs.Write(fh, 10, []byte("ZZ")); err != nil {
		t.Fatal(err)
	}
	got, eof, _ := fs.Read(fh, 0, 64)
	want := append([]byte("abXYef"), 0, 0, 0, 0, 'Z', 'Z')
	if !bytes.Equal(got, want) || !eof {
		t.Fatalf("after gap append: %q (eof=%v)", got, eof)
	}

	// Straddling write: overlaps the tail and extends.
	if err := fs.Write(fh, 11, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = fs.Read(fh, 0, 64)
	want = append(want[:11], 'a', 'b')
	if !bytes.Equal(got, want) {
		t.Fatalf("after straddling write: %q", got)
	}
}

// TestWriteAppendAmortized asserts extension uses capacity doubling:
// 256 sequential 1 KB appends (eight chunks) must regrow the first
// chunk ~log2(32) times and allocate each later one once, not once per
// write. An exact-size regrow would cost at least one allocation per
// append (≥256 here).
func TestWriteAppendAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	block := make([]byte, 1024)
	allocs := testing.AllocsPerRun(5, func() {
		fs := NewFS()
		fh, _ := fs.Create(RootFH, "f", nil)
		for i := 0; i < 256; i++ {
			if err := fs.Write(fh, uint64(i)*1024, block); err != nil {
				panic(err)
			}
		}
	})
	if allocs > 100 {
		t.Errorf("256 appends cost %.0f allocations, want amortized (~log n, well under 100)", allocs)
	}
}

// TestWriteHugeOffsetRejected guards the wire boundary: a crafted WRITE
// whose offset overflows offset+len arithmetic (or simply demands an
// absurd file) must come back as ErrFBig, not panic the serving
// goroutine or attempt the allocation.
func TestWriteHugeOffsetRejected(t *testing.T) {
	fs := NewFS()
	fs.Create(RootFH, "f", []byte("data"))
	svc := nfsd.New(fs, nfsd.Config{})
	h := svc.InfoHandler()
	fh, _, _ := fs.Lookup(RootFH, "f")
	for _, off := range []uint64{^uint64(0), ^uint64(0) - 2, 1 << 40, MaxFileSize + 1} {
		body := (&nfsproto.WriteArgs{FH: fh, Offset: off, Count: 4, Data: []byte("boom")}).Marshal()
		out, stat := h(rpcnet.CallInfo{}, nfsproto.ProcWrite, body, nil)
		if stat != sunrpc.AcceptSuccess {
			t.Fatalf("off=%d: accept stat %d", off, stat)
		}
		res, err := nfsproto.UnmarshalWriteRes(out)
		if err != nil {
			t.Fatalf("off=%d: %v", off, err)
		}
		if res.Status != nfsproto.ErrFBig {
			t.Fatalf("off=%d: status %d, want ErrFBig", off, res.Status)
		}
	}
	// The direct API must refuse too.
	if err := fs.Write(fh, ^uint64(0), []byte("x")); err == nil {
		t.Fatal("FS.Write accepted an overflowing offset")
	}
	if got, _, _ := fs.Read(fh, 0, 64); !bytes.Equal(got, []byte("data")) {
		t.Fatalf("file damaged by rejected writes: %q", got)
	}
}

// TestReadViewStableUnderWrite proves the copy-on-write invariant the
// pooled reply pipeline depends on: a slice returned by Read is never
// mutated by a later Write. Overlapping writes swap in a fresh chunk
// and appends only touch indices past every view, so the view's bytes
// stay exactly as read. The file spans two chunks and the views sit on
// either side of the boundary, so the writes below include ones that
// straddle it. Run under -race: an in-place mutation would also be a
// data race between the verifying reads below and the writer
// goroutine.
func TestReadViewStableUnderWrite(t *testing.T) {
	fs := NewFS()
	const size = chunkSize + 8192
	fh, _ := fs.Create(RootFH, "f", bytes.Repeat([]byte{0xAA}, size))
	var views [][]byte
	for _, off := range []uint64{0, chunkSize - 8192, chunkSize} {
		view, _, err := fs.Read(fh, off, 8192)
		if err != nil || len(view) != 8192 {
			t.Fatalf("Read at %d: len=%d err=%v", off, len(view), err)
		}
		views = append(views, view)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		block := bytes.Repeat([]byte{0xBB}, 1024)
		for i := 0; i < 300; i++ {
			// Overwrites inside the viewed ranges, writes straddling the
			// chunk boundary, and extensions — none may disturb a view.
			fs.Write(fh, uint64(i*37%size), block)
			fs.Write(fh, uint64(chunkSize-512+i%1024), block)
			fs.Write(fh, uint64(size+i*512), block)
		}
	}()
	for i := 0; i < 300; i++ {
		for v, view := range views {
			for j, b := range view {
				if b != 0xAA {
					t.Errorf("view %d [%d] = %#x after concurrent write, want 0xAA", v, j, b)
					wg.Wait()
					return
				}
			}
		}
	}
	wg.Wait()
}

// TestLiveReadsConsistentUnderWrites drives a live server with
// concurrent readers and writers over both transports. Each write
// replaces the whole region in one call, so with copy-on-write every
// READ reply must be uniform — a torn reply would mean a pooled reply
// buffer (or the view appended into it) was written after release.
// Run under -race.
func TestLiveReadsConsistentUnderWrites(t *testing.T) {
	const size = 8192
	fs := NewFS()
	fs.Create(RootFH, "f", bytes.Repeat([]byte{0x11}, size))
	svc := nfsd.New(fs, nfsd.Config{})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, network := range []string{"udp", "tcp"} {
		writer, err := DialClient(network, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer writer.Close()
		reader, err := DialClient(network, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer reader.Close()
		fh, _, err := reader.Lookup(RootFH, "f")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(c *Client) {
			defer wg.Done()
			fill := byte(0x22)
			for i := 0; i < 100; i++ {
				if err := c.Write(fh, 0, bytes.Repeat([]byte{fill}, size)); err != nil {
					errs <- err
					return
				}
				fill ^= 0x33
			}
		}(writer)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				data, _, err := c.Read(fh, 0, size)
				if err != nil {
					errs <- err
					return
				}
				for j := 1; j < len(data); j++ {
					if data[j] != data[0] {
						errs <- fmt.Errorf("torn READ reply: data[0]=%#x data[%d]=%#x", data[0], j, data[j])
						return
					}
				}
			}
		}(reader)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReadReplySingleCopy is the allocation-counting proof of the
// zero-copy reply path: serving a 32 KB READ into a presized reply
// buffer must perform exactly one copy of the payload — the append from
// the file chunk into the wire buffer. A second copy anywhere in the
// handler would surface as a payload-sized allocation; the measured
// bytes-per-op bound (a small fraction of the payload) rules that out,
// and the allocs-per-op bound keeps the path free of hidden per-request
// buffers.
func TestReadReplySingleCopy(t *testing.T) {
	fs := NewFS()
	payload := bytes.Repeat([]byte{0x5a}, nfsproto.MaxData)
	fs.Create(RootFH, "f", payload)
	svc := nfsd.New(fs, nfsd.Config{})
	h := svc.InfoHandler()
	fh, _, err := fs.Lookup(RootFH, "f")
	if err != nil {
		t.Fatal(err)
	}
	body := (&nfsproto.ReadArgs{FH: fh, Offset: 0, Count: nfsproto.MaxData}).Marshal()
	reply := make([]byte, 0, 64*1024)

	var out []byte
	var stat uint32
	allocs := testing.AllocsPerRun(200, func() {
		out, stat = h(rpcnet.CallInfo{}, nfsproto.ProcRead, body, reply)
	})
	if stat != sunrpc.AcceptSuccess {
		t.Fatalf("stat = %d", stat)
	}
	res, err := nfsproto.UnmarshalReadRes(out)
	if err != nil || !bytes.Equal(res.Data, payload) {
		t.Fatalf("reply does not carry the payload (err=%v)", err)
	}
	if raceEnabled {
		// The race detector inflates allocator counters; the content
		// check above is the meaningful part under it.
		return
	}
	if allocs > 6 {
		t.Errorf("READ handler allocates %.1f objects/op, want ≤6 (args/result structs only)", allocs)
	}

	// Byte-level bound: total allocation per op must be a small fraction
	// of the 32 KB payload, proving no payload-sized copy remains.
	const ops = 512
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < ops; i++ {
		h(rpcnet.CallInfo{}, nfsproto.ProcRead, body, reply)
	}
	runtime.ReadMemStats(&m1)
	perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	if perOp > float64(nfsproto.MaxData)/8 {
		t.Errorf("READ handler allocates %.0f B/op for a %d B payload — a hidden payload copy", perOp, nfsproto.MaxData)
	}
}

// pattern returns n bytes that differ at every offset modulo 251, so a
// misplaced chunk or a shifted copy cannot compare equal.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

// readAll reads a whole file in one call and checks it was not short.
func readAll(t *testing.T, fs *FS, fh nfsproto.FH) []byte {
	t.Helper()
	a, _ := fs.Getattr(fh)
	got, eof, err := fs.Read(fh, 0, uint32(a.Size))
	if err != nil || !eof || int64(len(got)) != a.Size {
		t.Fatalf("Read of the whole file: len=%d size=%d eof=%v err=%v", len(got), a.Size, eof, err)
	}
	return got
}

// TestChunkStraddlingWrite writes across a chunk boundary: both chunks
// take their half, the bytes around them are untouched, and a Read of
// the straddled range returns all of it.
func TestChunkStraddlingWrite(t *testing.T) {
	fs := NewFS()
	want := pattern(3 * chunkSize)
	fh, _ := fs.Create(RootFH, "f", want)
	block := bytes.Repeat([]byte{0xEE}, 8192)
	off := chunkSize - 4096
	if err := fs.Write(fh, uint64(off), block); err != nil {
		t.Fatal(err)
	}
	copy(want[off:], block)
	if got := readAll(t, fs, fh); !bytes.Equal(got, want) {
		t.Fatal("file differs after a write straddling the chunk boundary")
	}
	got, _, _ := fs.Read(fh, uint64(off), 8192)
	if !bytes.Equal(got, block) {
		t.Fatal("Read of the straddled range differs from the write")
	}
}

// TestChunkTruncateThenExtend truncates inside a chunk and grows the
// file again, by SETATTR and by a write past the end: the bytes between
// the truncation point and the new data read as zeros, while a view
// taken before the truncation keeps the old bytes.
func TestChunkTruncateThenExtend(t *testing.T) {
	fs := NewFS()
	orig := pattern(2 * chunkSize)
	fh, _ := fs.Create(RootFH, "f", orig)
	view, _, _ := fs.Read(fh, chunkSize, 8192)
	const cut = chunkSize + 100
	if err := fs.Setattr(fh, cut); err != nil {
		t.Fatal(err)
	}
	if err := fs.Setattr(fh, 2*chunkSize); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), orig[:cut]...), make([]byte, 2*chunkSize-cut)...)
	if got := readAll(t, fs, fh); !bytes.Equal(got, want) {
		t.Fatal("bytes past the truncation point do not read as zeros after SETATTR extension")
	}

	// Truncate again and append just past the cut: the append lands in
	// the boundary chunk, whose capacity the truncation capped.
	if err := fs.Setattr(fh, cut); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(fh, cut+50, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	want = append(append(append([]byte(nil), orig[:cut]...), make([]byte, 50)...), "tail"...)
	if got := readAll(t, fs, fh); !bytes.Equal(got, want) {
		t.Fatal("bytes past the truncation point do not read as zeros after an appending write")
	}
	if !bytes.Equal(view, orig[chunkSize:chunkSize+8192]) {
		t.Fatal("a view taken before the truncation changed")
	}
}

// TestChunkHolesReadZeros covers the holes CreateSized and a growing
// SETATTR leave: they read as zeros through views and copies alike, and
// making them allocates no payload.
func TestChunkHolesReadZeros(t *testing.T) {
	fs := NewFS()
	const size = 3*chunkSize + 5
	fh, err := fs.CreateSized(RootFH, "sized", size)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fs, fh); !bytes.Equal(got, make([]byte, size)) {
		t.Fatal("CreateSized file does not read as zeros")
	}
	if got, _, _ := fs.Read(fh, chunkSize+10, 8192); !bytes.Equal(got, make([]byte, 8192)) {
		t.Fatal("Read inside a hole chunk does not return zeros")
	}

	grown, _ := fs.Create(RootFH, "grown", []byte("abc"))
	if err := fs.Setattr(grown, size); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("abc"), make([]byte, size-3)...)
	if got := readAll(t, fs, grown); !bytes.Equal(got, want) {
		t.Fatal("SETATTR-grown file does not read as its bytes then zeros")
	}
	if a, _ := fs.Getattr(grown); a.Size != size {
		t.Fatalf("grown size %d, want %d", a.Size, size)
	}

	if raceEnabled {
		return
	}
	big := testing.AllocsPerRun(10, func() {
		if _, err := fs.CreateSized(RootFH, "big", 16<<20); err != nil {
			panic(err)
		}
		if err := fs.Setattr(grown, 16<<20); err != nil {
			panic(err)
		}
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fs.CreateSized(RootFH, "big", 16<<20)
	fs.Setattr(grown, 32<<20)
	runtime.ReadMemStats(&m1)
	if b := m1.TotalAlloc - m0.TotalAlloc; big > 4 || b > 1024 {
		t.Errorf("a 16 MB CreateSized plus a SETATTR grow cost %.0f allocations, %d bytes; want no payload", big, b)
	}
}

// TestChunkReadSpansManyChunks reads ranges across several chunks: each
// comes back whole in one slice, never short.
func TestChunkReadSpansManyChunks(t *testing.T) {
	fs := NewFS()
	want := pattern(10 * chunkSize)
	fh, _ := fs.Create(RootFH, "f", want)
	// Leave a hole in the middle of the range: chunk 4 truncated away and
	// the file grown back.
	fs.Setattr(fh, 4*chunkSize+7)
	fs.Write(fh, 10*chunkSize-1, want[10*chunkSize-1:])
	clear(want[4*chunkSize+7 : 10*chunkSize-1])
	for _, r := range []struct{ off, n int }{
		{100, 5*chunkSize + 77},
		{chunkSize - 1, 2},
		{0, 10 * chunkSize},
		{3 * chunkSize, 2*chunkSize + 1},
	} {
		got, _, err := fs.Read(fh, uint64(r.off), uint32(r.n))
		if err != nil || len(got) != r.n {
			t.Fatalf("Read(%d, %d): len=%d err=%v", r.off, r.n, len(got), err)
		}
		if !bytes.Equal(got, want[r.off:r.off+r.n]) {
			t.Fatalf("Read(%d, %d) differs from the file", r.off, r.n)
		}
	}
}

// TestChunkFsstatCountsHoles: FSSTAT charges a file its size, holes
// included, as it did when holes were zero-filled.
func TestChunkFsstatCountsHoles(t *testing.T) {
	fs := NewFS()
	total, free0 := fs.Fsstat()
	fh, _ := fs.CreateSized(RootFH, "sized", 1<<20)
	fs.Create(RootFH, "small", []byte("0123456789"))
	if _, free := fs.Fsstat(); free0-free != 1<<20+10 {
		t.Fatalf("used %d bytes after a 1 MB hole and 10 bytes, want %d", free0-free, 1<<20+10)
	}
	fs.Setattr(fh, 3<<20)
	if _, free := fs.Fsstat(); free0-free != 3<<20+10 || total != nominalTotalBytes {
		t.Fatalf("used %d bytes after growing the hole to 3 MB, want %d", free0-free, 3<<20+10)
	}
}

// TestChunkAppendBesideReaders appends blocks that land in a chunk's
// spare capacity while readers read the blocks already written. Run
// under -race: the in-place append is safe only because no view
// reaches past a chunk's len.
func TestChunkAppendBesideReaders(t *testing.T) {
	fs := NewFS()
	fh, _ := fs.Create(RootFH, "f", nil)
	const block, blocks = 512, 2 * chunkSize / 512
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < blocks; i++ {
			fs.Write(fh, uint64(i*block), bytes.Repeat([]byte{byte(i)}, block))
		}
	}()
	defer wg.Wait()
	for done := false; !done; {
		a, _ := fs.Getattr(fh)
		done = a.Size == blocks*block
		n := int(a.Size) / block
		for i := max(0, n-4); i < n; i++ {
			got, _, _ := fs.Read(fh, uint64(i*block), block)
			if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, block)) {
				t.Fatalf("block %d reads %v..., want %#x", i, got[:4], byte(i))
			}
		}
	}
}

// TestOverwriteAllocsBounded pins an overwrite's cost to the chunk it
// touches: one 8 KB overwrite allocates at most one chunk (plus slack),
// whatever the file's size. Before files were chunked it allocated the
// whole file.
func TestOverwriteAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	block := bytes.Repeat([]byte{0x77}, 8192)
	for _, mb := range []int{1, 4, 16} {
		fs := NewFS()
		size := mb << 20
		fh, _ := fs.Create(RootFH, "f", make([]byte, size))
		off := 0
		overwrite := func() {
			off = (off + 3*chunkSize + 8192) % size
			if err := fs.Write(fh, uint64(off), block); err != nil {
				panic(err)
			}
		}
		if allocs := testing.AllocsPerRun(50, overwrite); allocs > 1 {
			t.Errorf("%d MB file: an 8 KB overwrite costs %.1f allocations, want ≤ 1", mb, allocs)
		}
		const ops = 200
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < ops; i++ {
			overwrite()
		}
		runtime.ReadMemStats(&m1)
		if perOp := (m1.TotalAlloc - m0.TotalAlloc) / ops; perOp > chunkSize+1024 {
			t.Errorf("%d MB file: an 8 KB overwrite allocates %d B, want ≤ one %d B chunk", mb, perOp, chunkSize)
		}
	}
}
