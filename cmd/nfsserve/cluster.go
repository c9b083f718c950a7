package main

import (
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"nfstricks/cmd/internal/filespec"
	"nfstricks/internal/bench"
	"nfstricks/internal/cluster"
	"nfstricks/internal/obs"
)

// runCluster is nfsserve's -cluster N mode: an in-process sharded
// cluster behind a control plane, the multi-machine deployment shape
// without the machines. Each shard is a full nfsd instance on its own
// port; the control plane hands any shard-aware client (internal/
// cluster.DialClient, nfsbench -exp cluster-scale) the versioned shard
// map. The single-server knobs (backend, gather, faults, DRC) don't
// apply here — shards run the default in-memory configuration.
func runCluster(n int, ctrlAddr, adminAddr string, files filespec.List, statsEvery time.Duration) {
	c, err := cluster.New(cluster.Config{Shards: n, CtrlAddr: ctrlAddr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nfsserve: cluster:", err)
		os.Exit(1)
	}
	defer c.Close()

	cl, err := cluster.DialClient("tcp", c.CtrlAddr())
	if err != nil {
		fmt.Fprintln(os.Stderr, "nfsserve: cluster:", err)
		os.Exit(1)
	}
	defer cl.Close()

	if len(files) == 0 {
		files = filespec.List{"demo=4"}
	}
	m := c.Map()
	for _, spec := range files {
		name, sizeMB, err := filespec.Parse(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nfsserve:", err)
			os.Exit(2)
		}
		if strings.Contains(name, "/") {
			fmt.Fprintf(os.Stderr, "nfsserve: cluster mode serves a flat namespace, cannot create %q\n", name)
			os.Exit(2)
		}
		fh, err := cl.Create(name, uint64(sizeMB)<<20)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfsserve: create %s: %v\n", name, err)
			os.Exit(1)
		}
		owner, _ := m.OwnerID(uint64(fh))
		fmt.Printf("serving %s (%d MB) as fh %d on shard %d\n", name, sizeMB, fh, owner)
	}

	var adm *obs.AdminServer
	if adminAddr != "" {
		// The admin endpoint serves the merged shard-labeled view: every
		// shard's registry plus the control plane's, one exposition.
		adm, err = obs.ServeAdminSnap(adminAddr, c.MergedSnapshot, bench.CollectEnvMeta())
		if err != nil {
			fmt.Fprintln(os.Stderr, "nfsserve: admin:", err)
			os.Exit(1)
		}
		defer adm.Close()
		fmt.Printf("admin on http://%s (/metrics /statsz /debug/pprof/)\n", adm.Addr())
	}

	fmt.Printf("cluster control plane on %s (map v%d)\n", c.CtrlAddr(), m.Version)
	for _, s := range m.Shards {
		fmt.Printf("shard %d on %s (udp+tcp)\n", s.ID, s.Addr)
	}

	printStats := func(prefix string) {
		for _, st := range c.Stats() {
			state := ""
			if st.Drained {
				state = " drained"
			}
			fmt.Printf("%sshard %d%s: executed=%d redirects=%d\n",
				prefix, st.ID, state, st.Executed, st.Redirects)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	var tick <-chan time.Time
	if statsEvery > 0 {
		ticker := time.NewTicker(statsEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-tick:
			printStats("")
		case <-stop:
			fmt.Printf("final: map v%d\n", c.Map().Version)
			printStats("final: ")
			return
		}
	}
}
