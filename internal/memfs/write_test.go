package memfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/wgather"
)

// startGatherServer serves a store of nFiles pre-sized files through a
// gathering engine with the given config, returning the service,
// address and handles.
func startGatherServer(t *testing.T, nFiles, fileSize int, cfg wgather.Config) (*nfsd.Service, string, []nfsproto.FH) {
	t.Helper()
	fs := NewFS()
	fhs := make([]nfsproto.FH, nFiles)
	for i := range fhs {
		fhs[i], _ = fs.Create(RootFH, fmt.Sprintf("w%d", i), make([]byte, fileSize))
	}
	svc := nfsd.New(fs, nfsd.Config{Gather: cfg})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return svc, srv.Addr(), fhs
}

func wpattern(n int, off uint64, seed int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte((int(off) + j*7 + seed) * 31)
	}
	return b
}

// TestLiveUnstableWriteCommit is the asynchronous write path end to
// end over a real socket: UNSTABLE writes are acknowledged unstable and
// stay off the sink, COMMIT flushes them, and both the page cache and
// the stable image hold the written bytes.
func TestLiveUnstableWriteCommit(t *testing.T) {
	sink := wgather.NewMemSink()
	svc, addr, fhs := startGatherServer(t, 1, 64*1024,
		wgather.Config{Window: time.Minute, Sink: sink})
	c, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const chunk = 8192
	want := make([]byte, 64*1024)
	var verf uint64
	for off := uint64(0); off < 64*1024; off += chunk {
		data := wpattern(chunk, off, 0)
		copy(want[off:], data)
		res, err := c.WriteStable(fhs[0], off, data, nfsproto.WriteUnstable)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != nfsproto.WriteUnstable {
			t.Fatalf("unstable write acknowledged with stability %d", res.Committed)
		}
		if verf == 0 {
			verf = res.Verf
		} else if res.Verf != verf {
			t.Fatalf("verifier moved mid-stream: %x then %x", verf, res.Verf)
		}
	}
	if got := len(sink.Bytes(uint64(fhs[0]))); got != 0 {
		t.Fatalf("sink holds %d bytes before COMMIT", got)
	}
	cverf, err := c.Commit(fhs[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cverf != verf {
		t.Fatalf("commit verifier %x != write verifier %x on a healthy server", cverf, verf)
	}
	if got := sink.Bytes(uint64(fhs[0])); !bytes.Equal(got[:len(want)], want) {
		t.Fatal("stable image differs from written data after COMMIT")
	}
	// Read-your-writes held throughout: the page cache serves the data
	// even while it was dirty.
	data, _, err := c.Read(fhs[0], 0, chunk)
	if err != nil || !bytes.Equal(data, want[:chunk]) {
		t.Fatalf("read-back mismatch (err %v)", err)
	}
	st := svc.WriteStats()
	if st.WritesUnstable != 8 || st.Commits != 1 {
		t.Fatalf("stats: %d unstable writes, %d commits", st.WritesUnstable, st.Commits)
	}
	if st.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1 coalesced extent for a sequential stream", st.Flushes)
	}
}

// TestLiveDefaultServiceIsWriteThrough pins the legacy configuration:
// a service with no gather config answers every write FILE_SYNC — the
// synchronous behaviour the server always had.
func TestLiveDefaultServiceIsWriteThrough(t *testing.T) {
	fs := NewFS()
	fh, _ := fs.Create(RootFH, "f", nil)
	svc := nfsd.New(fs, nfsd.Config{})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); svc.Close() })
	c, err := DialClient("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.WriteStable(fh, 0, []byte("hello"), nfsproto.WriteUnstable)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != nfsproto.WriteFileSync {
		t.Fatalf("default service advertised stability %d, want FILE_SYNC", res.Committed)
	}
	if _, err := c.Commit(fh, 0, 0); err != nil {
		t.Fatalf("COMMIT against the default service: %v", err)
	}
	data, _, err := c.Read(fh, 0, 16)
	if err != nil || string(data) != "hello" {
		t.Fatalf("read-back = %q, %v", data, err)
	}
}

// TestLiveCommitStaleHandle checks COMMIT on an unknown handle answers
// ErrStale rather than inventing state.
func TestLiveCommitStaleHandle(t *testing.T) {
	_, addr, _ := startGatherServer(t, 1, 1024, wgather.Config{Window: time.Minute})
	c, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Commit(nfsproto.FH(9999), 0, 0); err == nil {
		t.Fatal("COMMIT of a stale handle succeeded")
	}
}

// TestWriteBehindRebootRewrite is the verifier-change recovery loop:
// unstable writes buffered server-side are dropped by a simulated
// crash; the client's COMMIT sees the new verifier, re-sends the
// retained writes stable, and the stable image ends complete.
func TestWriteBehindRebootRewrite(t *testing.T) {
	sink := wgather.NewMemSink()
	svc, addr, fhs := startGatherServer(t, 1, 64*1024,
		wgather.Config{Window: time.Minute, Sink: sink})
	c, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const chunk = 8192
	wb := c.NewWriteBehind(fhs[0], 4)
	want := make([]byte, 64*1024)
	for off := uint64(0); off < 64*1024; off += chunk {
		data := wpattern(chunk, off, 3)
		copy(want[off:], data)
		if err := wb.Write(off, data); err != nil {
			t.Fatal(err)
		}
	}
	// Settle every reply (all carry the pre-crash verifier), then crash.
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if wb.Retained() != 8 {
		t.Fatalf("retained = %d, want 8", wb.Retained())
	}
	svc.Reboot()
	if got := len(sink.Bytes(uint64(fhs[0]))); got != 0 {
		t.Fatalf("sink holds %d bytes the crash should have dropped", got)
	}

	if _, err := wb.Commit(); err != nil {
		t.Fatal(err)
	}
	if wb.Retained() != 0 {
		t.Fatalf("retained = %d after successful commit", wb.Retained())
	}
	got := sink.Bytes(uint64(fhs[0]))
	if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
		t.Fatal("stable image incomplete after verifier-change rewrite")
	}
	if svc.WriteStats().Reboots != 1 {
		t.Fatalf("reboots = %d", svc.WriteStats().Reboots)
	}
}

// TestWriteBehindStableVerifierNoRewrite is the healthy-path twin: on a
// server that never reboots, Commit never re-sends.
func TestWriteBehindStableVerifierNoRewrite(t *testing.T) {
	sink := wgather.NewMemSink()
	svc, addr, fhs := startGatherServer(t, 1, 32*1024,
		wgather.Config{Window: time.Minute, Sink: sink})
	c, err := DialClient("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wb := c.NewWriteBehind(fhs[0], 4)
	want := make([]byte, 32*1024)
	for off := uint64(0); off < 32*1024; off += 8192 {
		data := wpattern(8192, off, 5)
		copy(want[off:], data)
		if err := wb.Write(off, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wb.Commit(); err != nil {
		t.Fatal(err)
	}
	st := svc.WriteStats()
	if st.WritesFileSync != 0 {
		t.Fatalf("healthy commit re-sent %d writes stable", st.WritesFileSync)
	}
	if got := sink.Bytes(uint64(fhs[0])); !bytes.Equal(got[:len(want)], want) {
		t.Fatal("stable image differs after healthy commit")
	}
}

// TestLiveConcurrentUnstableWritersCommit runs many clients writing
// UNSTABLE to their own files concurrently, each committing at the end
// (CI runs this under -race): every reply across every client must
// carry the same write verifier, and every stable image must equal the
// written data.
func TestLiveConcurrentUnstableWritersCommit(t *testing.T) {
	const clients = 8
	const fileSize = 64 * 1024
	const chunk = 8192
	sink := wgather.NewMemSink()
	svc, addr, fhs := startGatherServer(t, clients, fileSize,
		wgather.Config{Window: 2 * time.Millisecond, Sink: sink})

	verfs := make([]uint64, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		network := "udp"
		if i%2 == 0 {
			network = "tcp"
		}
		wg.Add(1)
		go func(i int, network string) {
			defer wg.Done()
			errs <- func() error {
				c, err := DialClient(network, addr)
				if err != nil {
					return err
				}
				defer c.Close()
				var verf uint64
				for off := uint64(0); off < fileSize; off += chunk {
					v, err := c.WriteUnstable(fhs[i], off, wpattern(chunk, off, i))
					if err != nil {
						return fmt.Errorf("client %d: %w", i, err)
					}
					if verf != 0 && v != verf {
						return fmt.Errorf("client %d: verifier moved %x -> %x", i, verf, v)
					}
					verf = v
				}
				cv, err := c.Commit(fhs[i], 0, 0)
				if err != nil {
					return fmt.Errorf("client %d commit: %w", i, err)
				}
				if cv != verf {
					return fmt.Errorf("client %d: commit verifier %x != write verifier %x", i, cv, verf)
				}
				verfs[i] = cv
				return nil
			}()
		}(i, network)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < clients; i++ {
		if verfs[i] != verfs[0] {
			t.Fatalf("clients observed different verifiers: %x vs %x", verfs[i], verfs[0])
		}
	}
	for i := 0; i < clients; i++ {
		want := make([]byte, fileSize)
		for off := uint64(0); off < fileSize; off += chunk {
			copy(want[off:], wpattern(chunk, off, i))
		}
		got := sink.Bytes(uint64(fhs[i]))
		if len(got) < fileSize || !bytes.Equal(got[:fileSize], want) {
			t.Fatalf("client %d: post-commit stable image differs", i)
		}
	}
	st := svc.WriteStats()
	if want := int64(clients * fileSize / chunk); st.WritesUnstable != want {
		t.Fatalf("unstable writes = %d, want %d", st.WritesUnstable, want)
	}
	if st.Commits != clients {
		t.Fatalf("commits = %d, want %d", st.Commits, clients)
	}
}
