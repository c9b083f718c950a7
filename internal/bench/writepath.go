package bench

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/wgather"
)

// writePathWindows is the gather-window sweep, in milliseconds (the X
// axis). 0 is the degenerate write-through configuration — the
// synchronous behaviour the server had before the gathering engine.
var writePathWindows = []int{0, 1, 4, 16}

// writePathSinks is the sink-speed sweep: the fixed per-flush cost of
// stable storage. Gathering's win grows with the cost it amortizes.
var writePathSinks = []struct {
	label   string
	latency time.Duration
}{
	{"fast", 100 * time.Microsecond},
	{"slow", 600 * time.Microsecond},
}

// writePathClients is how many concurrent writers drive each cell, one
// file each.
const writePathClients = 2

// writePathBytes is how much each client writes per run at Scale 1.
const writePathBytes = 1 << 20

// writePathChunk is the per-WRITE payload (the paper's 8 KB request
// size).
const writePathChunk = 8192

// writePathCommitEvery is how many unstable writes ride between
// COMMITs in the gathered workload.
const writePathCommitEvery = 32

// writeBehindWindow bounds the client's in-flight unstable writes.
const writeBehindWindow = 8

// writePathPattern fills buf with the deterministic payload for offset
// off of client file i.
func writePathPattern(buf []byte, i int, off uint64) {
	for j := range buf {
		buf[j] = byte((int(off) + j*7 + i) * 31)
	}
}

// writePathEnv is one cell's server: a fresh store with one file per
// client, served through a gathering engine whose throttled sink has an
// inner MemSink retaining the stable image for integrity checks.
type writePathEnv struct {
	*live
	mem *wgather.MemSink
	fhs []nfsproto.FH
}

// withWritePathEnv runs body against a writePathEnv with the given
// gather window and per-flush sink latency.
func withWritePathEnv(window, sinkLatency time.Duration, perClient int, body func(*writePathEnv) error) error {
	fs := memfs.NewFS()
	fhs := make([]nfsproto.FH, writePathClients)
	for i := range fhs {
		// Pre-size the files so the sweep measures the write pipeline,
		// not allocator regrowth.
		fhs[i], _ = fs.Create(memfs.RootFH, fmt.Sprintf("w%d", i), make([]byte, perClient))
	}
	mem := wgather.NewMemSink()
	cfg := nfsd.Config{Gather: wgather.Config{
		Window: window,
		Sink:   &wgather.ThrottledSink{Inner: mem, Latency: sinkLatency},
	}}
	return withLive(fs, cfg, rpcnet.ServerOptions{}, nil, func(l *live) error {
		return body(&writePathEnv{live: l, mem: mem, fhs: fhs})
	})
}

// latPct returns the p-th percentile of ds (sorted in place).
func latPct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[int(p*float64(len(ds)-1))]
}

// writeAll drives every client's file concurrently, each from its own
// TCP client, written sequentially in writePathChunk pieces: FILE_SYNC
// writes, paying the sink's flush cost once per RPC (the synchronous
// baseline), or with unstable, UNSTABLE writes through a write-behind
// window with a COMMIT every writePathCommitEvery writes (the biod
// shape). It returns aggregate ops/s, COMMITs included, and per-WRITE
// latencies; an unstable write's latency is the pipelined client's
// issue-to-issue slot time.
func writeAll(env *writePathEnv, perClient int, unstable bool) (float64, []time.Duration, error) {
	type res struct {
		lats []time.Duration
		err  error
	}
	results := make(chan res, writePathClients)
	t0 := time.Now()
	for i := 0; i < writePathClients; i++ {
		go func(i int) {
			var r res
			r.err = func() error {
				c, err := memfs.DialClient("tcp", env.srv.Addr())
				if err != nil {
					return err
				}
				defer c.Close()
				write := func(off uint64, buf []byte) error { return c.Write(env.fhs[i], off, buf) }
				commit := func() error { return nil }
				if unstable {
					wb := c.NewWriteBehind(env.fhs[i], writeBehindWindow)
					write = wb.Write
					commit = func() error { _, err := wb.Commit(); return err }
				}
				buf := make([]byte, writePathChunk)
				for n, off := 1, uint64(0); off < uint64(perClient); n, off = n+1, off+writePathChunk {
					writePathPattern(buf, i, off)
					issued := time.Now()
					if err := write(off, buf); err != nil {
						return err
					}
					r.lats = append(r.lats, time.Since(issued))
					if unstable && n%writePathCommitEvery == 0 {
						if err := commit(); err != nil {
							return err
						}
					}
				}
				return commit()
			}()
			results <- r
		}(i)
	}
	var lats []time.Duration
	var firstErr error
	for i := 0; i < writePathClients; i++ {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		lats = append(lats, r.lats...)
	}
	elapsed := time.Since(t0)
	if firstErr != nil {
		return 0, nil, firstErr
	}
	ops := perClient / writePathChunk
	if unstable {
		ops += ops/writePathCommitEvery + 1
	}
	return float64(writePathClients*ops) / elapsed.Seconds(), lats, nil
}

// runHotspot rewrites one hot region UNSTABLE many times before a
// single COMMIT — the coalescing showcase: bytes gathered greatly
// exceed bytes flushed because overlapping dirty ranges absorb each
// other inside the window. Returns the flushed/gathered percentage
// (lower = more coalescing).
func runHotspot(env *writePathEnv) (float64, error) {
	c := env.c
	before := env.svc.WriteStats()
	const passes = 8
	const region = 16 * writePathChunk
	buf := make([]byte, writePathChunk)
	for p := 0; p < passes; p++ {
		for off := uint64(0); off < region; off += writePathChunk {
			writePathPattern(buf, 0, off)
			if _, err := c.WriteUnstable(env.fhs[0], off, buf); err != nil {
				return 0, err
			}
		}
	}
	if _, err := c.Commit(env.fhs[0], 0, 0); err != nil {
		return 0, err
	}
	after := env.svc.WriteStats()
	gathered := after.GatheredBytes - before.GatheredBytes
	flushed := after.FlushedBytes - before.FlushedBytes
	if gathered == 0 {
		return 100, nil
	}
	return 100 * float64(flushed) / float64(gathered), nil
}

// verifyStable checks the sink's stable image of every client file
// against the expected pattern — the integrity floor under every cell.
func verifyStable(env *writePathEnv, perClient int) error {
	want := make([]byte, perClient)
	for i := 0; i < writePathClients; i++ {
		for off := 0; off < perClient; off += writePathChunk {
			writePathPattern(want[off:off+writePathChunk], i, uint64(off))
		}
		got := env.mem.Bytes(uint64(env.fhs[i]))
		if len(got) < perClient {
			return fmt.Errorf("write-path: stable image of file %d is %d bytes, want %d", i, len(got), perClient)
		}
		if !bytes.Equal(got[:perClient], want) {
			return fmt.Errorf("write-path: stable image of file %d differs from written data", i)
		}
	}
	return nil
}

// checkWriteThroughEquivalence asserts the acceptance property of the
// zero-width window: on the in-memory sink, UNSTABLE writes behave
// bit-for-bit like the old synchronous server — every write reaches
// the sink before its reply (flushes == writes), is advertised
// FILE_SYNC, and the stable image equals the written bytes exactly.
func checkWriteThroughEquivalence() error {
	fs := memfs.NewFS()
	fh, _ := fs.Create(memfs.RootFH, "sync", nil)
	mem := wgather.NewMemSink()
	cfg := nfsd.Config{Gather: wgather.Config{Window: 0, Sink: mem}}
	return withLive(fs, cfg, rpcnet.ServerOptions{}, nil, func(l *live) error {
		const writes = 64
		want := make([]byte, writes*writePathChunk)
		buf := make([]byte, writePathChunk)
		for i := 0; i < writes; i++ {
			off := uint64(i * writePathChunk)
			writePathPattern(buf, 0, off)
			copy(want[off:], buf)
			res, err := l.c.WriteStable(fh, off, buf, nfsproto.WriteUnstable)
			if err != nil {
				return err
			}
			if res.Committed != nfsproto.WriteFileSync {
				return fmt.Errorf("write-path: zero window advertised stability %d, want FILE_SYNC", res.Committed)
			}
		}
		if st := l.svc.WriteStats(); st.Flushes != writes {
			return fmt.Errorf("write-path: zero window made %d flushes for %d writes, want one per write", st.Flushes, writes)
		}
		if got := mem.Bytes(uint64(fh)); !bytes.Equal(got, want) {
			return fmt.Errorf("write-path: zero-window stable image differs from written data")
		}
		return nil
	})
}

// WritePath is the asynchronous-write-pipeline experiment: it sweeps
// the server's gather window × the stable-storage sink's speed and
// compares the synchronous stability mix (FILE_SYNC, one sink flush
// per RPC) against the asynchronous one (UNSTABLE writes behind a
// biod-style write-behind window, COMMIT every 32 writes), reporting
// achieved ops/s per cell, per-WRITE p50/p99 reply latency on the slow
// sink, how many sink flushes 1000 client writes cost, and how much a
// hot-spot rewrite workload's flushed bytes shrink versus bytes
// gathered (coalescing). Every cell is integrity-checked against the
// sink's stable image, and the zero-width window is asserted to
// reproduce the old synchronous behaviour bit-for-bit on the in-memory
// sink.
func WritePath(p Params) (*Result, error) {
	p.fill()
	perClient := max(writePathBytes/p.Scale, 8*writePathChunk)
	// Round to whole chunks.
	perClient -= perClient % writePathChunk

	if err := checkWriteThroughEquivalence(); err != nil {
		return nil, err
	}

	r := &Result{
		ID: "write-path", Title: "Asynchronous write pipeline: gather window x sink speed vs synchronous writes",
		XLabel: "window (ms)", YLabel: "ops/s, latency (µs), flushes per 1k writes, flushed/gathered (%)",
		X: writePathWindows,
	}
	type cell struct {
		sink     string
		latency  time.Duration
		unstable bool
	}
	var cells []cell
	g := newGrid(r)
	for _, sk := range writePathSinks {
		cells = append(cells, cell{sk.label, sk.latency, false}, cell{sk.label, sk.latency, true})
		g.series(BetterHigher, "filesync ops/s ("+sk.label+" sink)", "unstable+commit ops/s ("+sk.label+" sink)")
	}
	g.series(BetterLower, "filesync write p99 (µs, slow sink)", "unstable write p50 (µs, slow sink)",
		"unstable write p99 (µs, slow sink)", "sink flushes per 1k writes", "hotspot flushed/gathered (%)")
	name := func(c cell) string {
		if c.unstable {
			return "unstable " + c.sink
		}
		return "filesync " + c.sink
	}
	err := sweep(p, g, r.X, cells, name, func(c cell, pt point) error {
		window := time.Duration(pt.x) * time.Millisecond
		return withWritePathEnv(window, c.latency, perClient, func(env *writePathEnv) error {
			ops, lats, err := writeAll(env, perClient, c.unstable)
			if err == nil {
				err = verifyStable(env, perClient)
			}
			if err != nil {
				return err
			}
			slow := c.sink == "slow"
			if !c.unstable {
				pt.put("filesync ops/s ("+c.sink+" sink)", ops)
				if slow {
					pt.put("filesync write p99 (µs, slow sink)", float64(latPct(lats, 0.99).Microseconds()))
				}
				return nil
			}
			pt.put("unstable+commit ops/s ("+c.sink+" sink)", ops)
			if !slow {
				return nil
			}
			st := env.svc.WriteStats()
			if writes := st.WritesUnstable + st.WritesDataSync + st.WritesFileSync; writes > 0 {
				pt.put("sink flushes per 1k writes", 1000*float64(st.Flushes)/float64(writes))
			}
			pt.put("unstable write p50 (µs, slow sink)", float64(latPct(lats, 0.50).Microseconds()))
			pt.put("unstable write p99 (µs, slow sink)", float64(latPct(lats, 0.99).Microseconds()))
			pct, err := runHotspot(env)
			if err != nil {
				return err
			}
			pt.put("hotspot flushed/gathered (%)", pct)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d clients x %d KB in %d KB FILE_SYNC or UNSTABLE(+COMMIT every %d) writes over loopback TCP",
			writePathClients, perClient>>10, writePathChunk>>10, writePathCommitEvery),
		"sinks: throttled per-flush latency fast=100us slow=600us (MemSink inner); every cell integrity-checked against the stable image",
		"window 0 = write-through: verified bit-for-bit equal to the old synchronous server on the in-memory sink",
		"unstable write latency is the pipelined per-request slot time (write-behind window 8)",
	)
	return g.result(), nil
}
