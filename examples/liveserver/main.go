// Live server demo: the same XDR/RPC/NFS stack the simulator uses,
// served over real loopback sockets. A SlowDown-equipped server is
// started on 127.0.0.1, then read sequentially over TCP and UDP, and in
// a 2-stride pattern against a cursor-equipped server — watching the
// server-side seqcount respond. Run with:
//
//	go run ./examples/liveserver
package main

import (
	"fmt"
	"log"
	"time"

	"nfstricks"
)

const fileSize = 2 << 20

func main() {
	fs := nfstricks.NewLiveFS()
	data := make([]byte, fileSize)
	for i := range data {
		data[i] = byte(i * 131)
	}
	fs.Create(nfstricks.LiveRootFH, "demo", data)

	svc := nfstricks.NewLiveService(fs, nfstricks.LiveConfig{Heuristic: nfstricks.SlowDown{}})
	srv, err := nfstricks.ServeLive("127.0.0.1:0", svc, nfstricks.LiveServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("live NFS-ish server on %s (real UDP+TCP sockets)\n\n", srv.Addr())

	for _, network := range []string{"tcp", "udp"} {
		c, err := nfstricks.DialLive(network, srv.Addr())
		if err != nil {
			log.Fatal(err)
		}
		fh, size, err := c.Lookup(nfstricks.LiveRootFH, "demo")
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		var total int
		for off := uint64(0); off < uint64(size); off += 8192 {
			blk, _, err := c.Read(fh, off, 8192)
			if err != nil {
				log.Fatal(err)
			}
			total += len(blk)
		}
		elapsed := time.Since(start)
		c.Close()
		fmt.Printf("%-4s sequential read: %d KB in %v (%.1f MB/s), server maxSeqCount=%d\n",
			network, total/1024, elapsed.Round(time.Millisecond),
			float64(total)/1e6/elapsed.Seconds(), svc.Stats().MaxSeqCount)
	}

	// Stride read against a cursor-equipped server.
	cursorSvc := nfstricks.NewLiveService(fs, nfstricks.LiveConfig{Heuristic: &nfstricks.CursorHeuristic{}})
	srv2, err := nfstricks.ServeLive("127.0.0.1:0", cursorSvc, nfstricks.LiveServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()
	c, err := nfstricks.DialLive("tcp", srv2.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fh, size, err := c.Lookup(nfstricks.LiveRootFH, "demo")
	if err != nil {
		log.Fatal(err)
	}
	half := uint64(size) / 2
	for i := uint64(0); i < half/8192; i++ {
		if _, _, err := c.Read(fh, i*8192, 8192); err != nil {
			log.Fatal(err)
		}
		if _, _, err := c.Read(fh, half+i*8192, 8192); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\n2-stride read with cursor heuristic: server maxSeqCount=%d\n",
		cursorSvc.Stats().MaxSeqCount)
	fmt.Println("(the default heuristic would have pinned seqcount at 1 for this pattern)")
}
