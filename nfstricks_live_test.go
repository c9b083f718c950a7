package nfstricks

// Race-oriented tests of the live stack through the public facade: one
// server, many concurrent LiveClients over UDP and TCP simultaneously,
// plus pipelined calls sharing a single client. CI runs these under
// -race; they are the concurrency contract of ServeLive/DialLive.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/wgather"
)

// startLiveServer serves nFiles patterned files and returns the service
// and its address.
func startLiveServer(t *testing.T, nFiles int, fileSize int) (*LiveService, string) {
	t.Helper()
	fs := NewLiveFS()
	payload := make([]byte, fileSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	for i := 0; i < nFiles; i++ {
		fs.Create(LiveRootFH, fmt.Sprintf("f%d", i), payload)
	}
	svc := NewLiveService(fs, LiveConfig{})
	srv, err := ServeLive("127.0.0.1:0", svc, LiveServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return svc, srv.Addr()
}

// TestLiveManyClientsBothTransports drives one live server with 16
// concurrent clients — 8 over UDP and 8 over TCP at the same time —
// each sequentially reading its own file, and checks data integrity and
// the server's aggregate counters.
func TestLiveManyClientsBothTransports(t *testing.T) {
	const clients = 16
	const fileSize = 128 * 1024
	svc, addr := startLiveServer(t, clients, fileSize)

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
			c, err := DialLive(network, addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			fh, size, err := c.Lookup(LiveRootFH, fmt.Sprintf("f%d", i))
			if err != nil {
				errs <- err
				return
			}
			var off uint64
			for off = 0; off < uint64(size); off += 8192 {
				data, _, err := c.Read(fh, off, 8192)
				if err != nil {
					errs <- fmt.Errorf("%s client %d: %w", network, i, err)
					return
				}
				for j, b := range data {
					if b != byte((int(off)+j)*31) {
						errs <- fmt.Errorf("%s client %d: corruption at %d", network, i, int(off)+j)
						return
					}
				}
			}
		}(i, network)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	wantReads := int64(clients * fileSize / 8192)
	if st.Reads != wantReads {
		t.Fatalf("service reads = %d, want %d", st.Reads, wantReads)
	}
	if st.BytesRead != int64(clients*fileSize) {
		t.Fatalf("bytes read = %d, want %d", st.BytesRead, clients*fileSize)
	}
	// Sequential per-file streams must drive confidence up even with 16
	// files live at once — the sharded table must not thrash.
	if st.MaxSeqCount < 8 {
		t.Fatalf("max seqcount = %d with %d concurrent sequential readers", st.MaxSeqCount, clients)
	}
	if ej := svc.Table().Stats().Ejections; ej != 0 {
		t.Fatalf("scaled table ejected %d handles with only %d live files", ej, clients)
	}
}

// TestLiveSharedClientPipelines has 8 goroutines sharing one LiveClient
// over TCP — exercising the XID-demultiplexed pipelining path through
// the facade.
func TestLiveSharedClientPipelines(t *testing.T) {
	const fileSize = 256 * 1024
	_, addr := startLiveServer(t, 1, fileSize)
	c, err := DialLive("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, size, err := c.Lookup(LiveRootFH, "f0")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	span := uint64(size) / goroutines
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * span
			for off := base; off < base+span; off += 8192 {
				data, _, err := c.Read(fh, off, 8192)
				if err != nil {
					errs <- err
					return
				}
				for j, b := range data {
					if b != byte((int(off)+j)*31) {
						errs <- fmt.Errorf("goroutine %d: wrong data at %d", g, int(off)+j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLiveAsyncWritePipeline drives the asynchronous write path
// through the facade under -race: concurrent clients stream UNSTABLE
// writes through biod-style write-behind pipelines over UDP and TCP at
// once, COMMIT, and then every client must have observed one stable
// write verifier and the stable-storage sink must hold exactly the
// written bytes.
func TestLiveAsyncWritePipeline(t *testing.T) {
	const clients = 8
	const fileSize = 64 * 1024
	const chunk = 8192

	fs := NewLiveFS()
	var fhs [clients]nfsproto.FH
	for i := 0; i < clients; i++ {
		fhs[i], _ = fs.Create(LiveRootFH, fmt.Sprintf("w%d", i), make([]byte, fileSize))
	}
	sink := wgather.NewMemSink()
	svc := NewLiveService(fs, LiveConfig{Gather: wgather.Config{
		Window: 2 * time.Millisecond,
		Sink:   sink,
	}})
	srv, err := ServeLive("127.0.0.1:0", svc, LiveServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); svc.Close() })

	pattern := func(off uint64, i, n int) []byte {
		b := make([]byte, n)
		for j := range b {
			b[j] = byte((int(off) + j*3 + i) * 17)
		}
		return b
	}

	var wg sync.WaitGroup
	verfs := make([]uint64, clients)
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
				c, err := DialLive(network, srv.Addr())
				if err != nil {
					return err
				}
				defer c.Close()
				wb := c.NewWriteBehind(fhs[i], 4)
				for off := uint64(0); off < fileSize; off += chunk {
					if err := wb.Write(off, pattern(off, i, chunk)); err != nil {
						return fmt.Errorf("client %d: %w", i, err)
					}
				}
				verf, err := wb.Commit()
				if err != nil {
					return fmt.Errorf("client %d commit: %w", i, err)
				}
				verfs[i] = verf
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
			t.Fatalf("verifier not stable across clients: %x vs %x", verfs[i], verfs[0])
		}
	}
	for i := 0; i < clients; i++ {
		img := sink.Bytes(uint64(fhs[i]))
		if len(img) < fileSize {
			t.Fatalf("client %d: stable image %d bytes, want %d", i, len(img), fileSize)
		}
		for off := uint64(0); off < fileSize; off += chunk {
			want := pattern(off, i, chunk)
			for j, b := range want {
				if img[int(off)+j] != b {
					t.Fatalf("client %d: stable image corrupt at %d", i, int(off)+j)
				}
			}
		}
	}
	ws := svc.WriteStats()
	if want := int64(clients * fileSize / chunk); ws.WritesUnstable != want {
		t.Fatalf("unstable writes = %d, want %d", ws.WritesUnstable, want)
	}
	if ws.Commits != clients {
		t.Fatalf("commits = %d, want %d", ws.Commits, clients)
	}
}
