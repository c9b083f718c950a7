package memfs

import (
	"fmt"
	"sync"
	"testing"

	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/readahead"
	"nfstricks/internal/rpcnet"
)

// BenchmarkLiveReadSaturation drives a live loopback server with 8
// concurrent TCP clients (one file each) and sweeps the nfsheur shard
// count: shards=1 is the seed's single-mutex READ path, the others are
// the lock-striped table. One iteration = every client reads its whole
// file in 8 KB blocks. Run as:
//
//	go test -run XXX -bench LiveReadSaturation ./internal/memfs/
func BenchmarkLiveReadSaturation(b *testing.B) {
	const clients = 8
	const fileSize = 1 << 20
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			fs := NewFS()
			payload := make([]byte, fileSize)
			names := make([]string, clients)
			for i := range names {
				names[i] = fmt.Sprintf("f%d", i)
				fs.Create(RootFH, names[i], payload)
			}
			tp := nfsheur.ScaledParams()
			tp.Shards = shards
			svc := nfsd.New(fs, nfsd.Config{Heuristic: readahead.SlowDown{}, Table: nfsheur.New(tp)})
			srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cs := make([]*Client, clients)
			fhs := make([]nfsproto.FH, clients)
			for i := range cs {
				c, err := DialClient("tcp", srv.Addr())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				cs[i] = c
				if fhs[i], _, err = c.Lookup(RootFH, names[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(clients * fileSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make(chan error, clients)
				for j := range cs {
					wg.Add(1)
					go func(c *Client, fh nfsproto.FH) {
						defer wg.Done()
						for off := uint64(0); off < fileSize; off += 8192 {
							if _, _, err := c.Read(fh, off, 8192); err != nil {
								errs <- err
								return
							}
						}
					}(cs[j], fhs[j])
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelinedReadsOneClient measures a single client issuing
// reads from 8 goroutines over one TCP connection — the path that used
// to serialize on the client's one-outstanding-call mutex.
func BenchmarkPipelinedReadsOneClient(b *testing.B) {
	const fileSize = 1 << 20
	fs := NewFS()
	fs.Create(RootFH, "f", make([]byte, fileSize))
	svc := nfsd.New(fs, nfsd.Config{})
	srv, err := nfsd.NewServer("127.0.0.1:0", svc, rpcnet.ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := DialClient("tcp", srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Lookup(RootFH, "f")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fileSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				span := uint64(fileSize / 8)
				base := uint64(g) * span
				for off := base; off < base+span; off += 8192 {
					if _, _, err := c.Read(fh, off, 8192); err != nil {
						panic(err)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// BenchmarkReaddirPagedScan lists a directory of n entries in pages of
// 64, resuming each page from the previous page's last cookie — a
// client's READDIR loop against the backend. One iteration is the whole
// scan; ns/entry should not grow with n. The scan's semantics are
// pinned by the vfstest conformance suite.
//
//	go test -run XXX -bench ReaddirPagedScan ./internal/memfs/
func BenchmarkReaddirPagedScan(b *testing.B) {
	const pageEntries = 64
	for _, n := range []int{200, 2000, 10000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			fs := NewFS()
			dir, err := fs.Mkdir(RootFH, "d")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := fs.Create(dir, fmt.Sprintf("f%05d", i), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var cookie, verf uint64
				seen := 0
				for {
					page, err := fs.Readdir(dir, cookie, verf, pageEntries)
					if err != nil {
						b.Fatal(err)
					}
					seen += len(page.Entries)
					if page.EOF {
						break
					}
					cookie, verf = page.Entries[len(page.Entries)-1].Cookie, page.Cookieverf
				}
				if seen != n {
					b.Fatalf("scan saw %d entries, want %d", seen, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
		})
	}
}
