// Stride reader demo (paper §7, Figure 8): a single process reads a
// file as s interleaved sequential sub-streams — blocks 0, N/2, 1,
// N/2+1, ... To the default sequentiality heuristic this looks random
// and read-ahead shuts off; the cursor heuristic tracks each sub-stream
// separately. Run with:
//
//	go run ./examples/stride
package main

import (
	"fmt"
	"log"

	"nfstricks"
)

func main() {
	fmt.Println("Stride reads of a 32 MB file over simulated NFS/UDP (ide1)")
	fmt.Printf("%-8s %-16s %-16s %-8s\n", "stride", "default MB/s", "cursor MB/s", "gain")
	for _, s := range []int{2, 4, 8} {
		var rates [2]float64
		for i, heuristic := range []nfstricks.Heuristic{
			nfstricks.Default{},
			&nfstricks.CursorHeuristic{},
		} {
			tb, err := nfstricks.NewTestbed(nfstricks.Options{
				Seed: 3,
				Disk: nfstricks.IDE,
				Server: nfstricks.ServerConfig{
					Heuristic: heuristic,
					Table:     nfstricks.ImprovedNfsheur(),
				},
			})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := tb.FS.Create("stride", 32<<20); err != nil {
				log.Fatal(err)
			}
			if err := tb.Start(); err != nil {
				log.Fatal(err)
			}
			res, err := nfstricks.RunNFSStrideReader(tb, "stride", s)
			tb.K.Shutdown()
			if err != nil {
				log.Fatal(err)
			}
			rates[i] = res.ThroughputMBps()
		}
		fmt.Printf("%-8d %-16.2f %-16.2f +%.0f%%\n",
			s, rates[0], rates[1], 100*(rates[1]/rates[0]-1))
	}
	fmt.Println("\nPaper's Table 1 (ide1): default 7.66/7.83/5.26, cursor 11.49/14.15/12.66")
}
