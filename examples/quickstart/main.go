// Quickstart: assemble the paper's testbed, export a file over
// simulated NFS/UDP, and read it with two different server read-ahead
// heuristics. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"nfstricks"
)

func main() {
	fmt.Println("nfstricks quickstart: 32 MB sequential read over simulated NFS/UDP")
	for _, heuristic := range []nfstricks.Heuristic{
		nfstricks.Default{},
		nfstricks.SlowDown{},
		nfstricks.Always{},
	} {
		tb, err := nfstricks.NewTestbed(nfstricks.Options{
			Seed: 42,
			Disk: nfstricks.IDE,
			Server: nfstricks.ServerConfig{
				Heuristic: heuristic,
				Table:     nfstricks.ImprovedNfsheur(),
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tb.FS.Create("data", 32<<20); err != nil {
			log.Fatal(err)
		}
		if err := tb.Start(); err != nil {
			log.Fatal(err)
		}
		res, err := nfstricks.RunNFSReaders(tb, []string{"data"})
		tb.K.Shutdown()
		if err != nil {
			log.Fatal(err)
		}
		st := tb.Server.Stats()
		fmt.Printf("  %-9s %6.1f MB/s  (%d READs, %d observed out of order)\n",
			heuristic.Name(), res.ThroughputMBps(), st.Reads, st.ReorderedReads)
	}
	fmt.Println("\nNext: go run ./cmd/nfsbench -list")
}
