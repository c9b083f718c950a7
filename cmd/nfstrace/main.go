// Command nfstrace works with .nft trace files — captured live NFS
// request streams (see internal/tracefile for the format):
//
//	nfstrace capture -o out.nft -file demo=4 [-synthetic] [-duration 30s]
//	nfstrace info out.nft
//	nfstrace analyze out.nft
//	nfstrace replay -addr HOST:PORT [-network tcp] [-speed 1] [-open] out.nft
//
// capture serves a live file store with tracing enabled until the
// duration elapses or SIGINT arrives; with -synthetic it also drives a
// built-in multi-stream workload (reads plus an UNSTABLE-write/COMMIT
// stream) against itself and exits, which is the one-command way to
// produce a demo trace. info prints the header and summary counts,
// analyze runs the paper's reordering/sequentiality analysis plus the
// write-side view (stability mix, WRITE→COMMIT distances), and replay
// plays the trace back against a live server (nfsserve, or anything
// speaking the same protocol subset).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"

	"nfstricks/cmd/internal/filespec"
	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/nfstrace"
	"nfstricks/internal/replay"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/tracefile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "capture":
		err = cmdCapture(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "nfstrace: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nfstrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  nfstrace capture -o out.nft [-addr 127.0.0.1:0] [-file name=sizeMB]... [-synthetic] [-duration 0]
  nfstrace info TRACE.nft
  nfstrace analyze TRACE.nft
  nfstrace replay -addr HOST:PORT [-network tcp|udp] [-speed N] [-open] [-timeout 10s] TRACE.nft`)
}

// traceArg returns the single positional trace-file argument.
func traceArg(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("want exactly one trace file argument, have %d", fs.NArg())
	}
	return fs.Arg(0), nil
}

func cmdCapture(args []string) error {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	var (
		out       = fs.String("o", "", "trace file to write (required)")
		addr      = fs.String("addr", "127.0.0.1:0", "address to serve (UDP and TCP)")
		files     filespec.List
		synthetic = fs.Bool("synthetic", false, "drive a built-in multi-stream workload and exit")
		duration  = fs.Duration("duration", 0, "stop after this long (0 = until SIGINT)")
	)
	fs.Var(&files, "file", "file to serve, as name=sizeMB (repeatable; default demo=4)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("capture: -o is required")
	}

	store, names, err := filespec.BuildFS(files)
	if err != nil {
		return err
	}

	w, err := tracefile.Create(*out, time.Now())
	if err != nil {
		return err
	}
	capt := nfstrace.NewCapture(w)
	srv, err := nfsd.NewServer(*addr, nfsd.New(store, nfsd.Config{}), rpcnet.ServerOptions{Tap: capt.Tap})
	if err != nil {
		capt.Close()
		return err
	}
	fmt.Printf("capturing on %s (udp+tcp) to %s\n", srv.Addr(), *out)

	if *synthetic {
		if err := syntheticWorkload(srv.Addr(), names); err != nil {
			srv.Close()
			capt.Close()
			return err
		}
	} else {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt)
		if *duration > 0 {
			select {
			case <-time.After(*duration):
			case <-stop:
			}
		} else {
			<-stop
		}
	}
	srv.Close()
	if err := capt.Err(); err != nil {
		capt.Close()
		return err
	}
	if err := capt.Close(); err != nil {
		return err
	}
	fmt.Printf("captured %d records to %s\n", capt.Total(), *out)
	return nil
}

// syntheticWorkload reads every served file over a mix of transports
// with small think times, then rewrites a slice of each file as an
// UNSTABLE write-behind stream capped by a COMMIT, and finally runs a
// metadata stream (MKDIR/CREATE/RENAME/READDIR/REMOVE) — enough
// structure that analyze (reordering, stability mix, WRITE→COMMIT
// distances, op mix with namespace calls) and faithful replay have
// something to show.
func syntheticWorkload(addr string, built []filespec.File) error {
	errs := make(chan error, 2*len(built))
	n := 0
	for i, f := range built {
		for _, network := range []string{"udp", "tcp"} {
			n++
			go func(network, path string, stride int) {
				errs <- func() error {
					c, err := memfs.DialClient(network, addr)
					if err != nil {
						return err
					}
					defer c.Close()
					fh, size, err := c.LookupPath(path)
					if err != nil {
						return err
					}
					for off := uint64(0); off < uint64(size); off += 8192 * uint64(stride) {
						if _, _, err := c.Read(fh, off, 8192); err != nil {
							return err
						}
						time.Sleep(time.Millisecond)
					}
					if network != "tcp" {
						return nil
					}
					// The write stream: rewrite the file's head through a
					// write-behind window, one COMMIT per 16 writes.
					wb := c.NewWriteBehind(fh, 8)
					buf := make([]byte, 8192)
					for k := 0; k < 64; k++ {
						off := uint64(k) * 8192 % uint64(size)
						if err := wb.Write(off, buf); err != nil {
							return err
						}
						if (k+1)%16 == 0 {
							if _, err := wb.Commit(); err != nil {
								return err
							}
						}
					}
					_, err = wb.Commit()
					return err
				}()
			}(network, f.Path, 1+i%3)
		}
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return metadataStream(addr)
}

// metadataStream exercises the namespace procedures against the live
// server: a scratch directory filled with small files, stats, a few
// renames, a paged READDIR scan, then removal of everything — so a
// synthetic capture's op mix includes the metadata path.
func metadataStream(addr string) error {
	c, err := memfs.DialClient("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	dir, err := c.Mkdir(memfs.RootFH, "meta")
	if err != nil {
		return err
	}
	const files = 24
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("f%02d", i)
		if _, err := c.Create(dir, name, 512); err != nil {
			return err
		}
		fh, _, err := c.Lookup(dir, name)
		if err != nil {
			return err
		}
		if _, err := c.Getattr(fh); err != nil {
			return err
		}
	}
	for i := 0; i < files; i += 4 {
		from := fmt.Sprintf("f%02d", i)
		if err := c.Rename(dir, from, dir, from+".r"); err != nil {
			return err
		}
	}
	entries, err := c.ReaddirAll(dir, 8)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := c.Remove(dir, e.Name); err != nil {
			return err
		}
	}
	return c.Remove(memfs.RootFH, "meta")
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	path, err := traceArg(fs)
	if err != nil {
		return err
	}
	hdr, recs, err := tracefile.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: .nft version %d\n", path, hdr.Version)
	fmt.Printf("captured: %s\n", hdr.Start.Format(time.RFC3339))
	fmt.Printf("records:  %d\n", len(recs))
	if len(recs) == 0 {
		return nil
	}
	streams := make(map[uint32]int64)
	minWhen, maxWhen := recs[0].When, recs[0].When
	var rpcErrs, nfsErrs, retrans int64
	for _, r := range recs {
		streams[r.Stream]++
		if r.When < minWhen {
			minWhen = r.When
		}
		if r.When > maxWhen {
			maxWhen = r.When
		}
		if r.Status&tracefile.StatusRetransmit != 0 {
			retrans++
		}
		// Flag bits masked off: a retransmitted call's error still counts
		// by its underlying status.
		switch status := r.Status &^ uint32(tracefile.StatusFlags); {
		case r.Status&tracefile.StatusRPCError != 0:
			rpcErrs++
		case status != nfsproto.OK && r.Proc != nfsproto.ProcNull:
			nfsErrs++
		}
	}
	fmt.Printf("streams:  %d\n", len(streams))
	fmt.Printf("span:     %v\n", (maxWhen - minWhen).Round(time.Millisecond))
	fmt.Printf("errors:   %d rpc, %d nfs\n", rpcErrs, nfsErrs)
	fmt.Printf("retrans:  %d\n", retrans)
	mix := nfstrace.OpMix(nfstrace.FromTracefile(recs))
	fmt.Printf("op mix:   %s\n", nfstrace.FormatOpMix(mix, nfsproto.ProcName))
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	fs.Parse(args)
	path, err := traceArg(fs)
	if err != nil {
		return err
	}
	// One read, one arrival-order sort; both the merged analysis and
	// the per-stream view are derived from it.
	_, raw, err := tracefile.ReadFile(path)
	if err != nil {
		return err
	}
	sort.SliceStable(raw, func(i, j int) bool { return raw[i].When < raw[j].When })
	recs := nfstrace.FromTracefile(raw)
	a := nfstrace.Analyze(recs, nfsproto.ProcRead)
	fmt.Println(a.String())
	mean, max := nfstrace.InterarrivalStats(recs)
	fmt.Printf("interarrival: mean=%v max=%v\n", mean.Round(time.Microsecond), max.Round(time.Microsecond))

	// The write side of the capture: stability mix and how far WRITEs
	// sit from the COMMIT that makes them stable.
	if mix := nfstrace.WriteStabilityMix(raw); mix[0]+mix[1]+mix[2] > 0 {
		fmt.Printf("write stability: %s\n", nfstrace.FormatWriteStabilityMix(mix))
		fmt.Printf("write→commit: %s\n", nfstrace.CommitDistances(raw).String())
	}

	// Per-stream reorder fractions: the per-connection view of the
	// paper's §6 measurement.
	byStream := make(map[uint32][]nfstrace.Record)
	for i, r := range raw {
		byStream[r.Stream] = append(byStream[r.Stream], recs[i])
	}
	var ids []uint32
	for id := range byStream {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sa := nfstrace.Analyze(byStream[id], nfsproto.ProcRead)
		fmt.Printf("stream %d: %s\n", id, sa.String())
	}
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "", "target server address (required)")
		network = fs.String("network", "tcp", "transport: tcp or udp")
		speed   = fs.Float64("speed", 1, "schedule: 0 = as fast as possible, 1 = timestamp-faithful, N = gaps divided by N")
		open    = fs.Bool("open", false, "open-loop dispatch (fire on schedule without waiting for replies)")
		timeout = fs.Duration("timeout", 10*time.Second, "per-reply wait bound")
	)
	fs.Parse(args)
	path, err := traceArg(fs)
	if err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("replay: -addr is required")
	}
	opts := replay.Options{
		Network: *network, Addr: *addr,
		OpenLoop: *open, Timeout: *timeout,
	}
	switch {
	case *speed == 0:
		opts.Timing = replay.AsFast
	case *speed == 1:
		opts.Timing = replay.Faithful
	default:
		opts.Timing = replay.Scaled
		opts.Speed = *speed
	}
	st, err := replay.File(path, opts)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %s (%s, %s, %s loop)\n", path, opts.Timing, *network,
		map[bool]string{true: "open", false: "closed"}[*open])
	fmt.Println(st.String())
	return nil
}
