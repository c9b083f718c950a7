package bench

import (
	"fmt"
	"runtime"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
)

// allocSizes are the READ/WRITE transfer sizes profiled (bytes).
var allocSizes = []int{512, 8192, 32768}

// allocOpsPerSample is how many RPCs one allocator sample averages
// over.
const allocOpsPerSample = 512

// allocMeasure runs op repeatedly and returns the mean allocator cost
// per operation — objects allocated and bytes allocated — across the
// whole process: client marshalling, both transport endpoints, and the
// server. Go's allocation counters are exact and monotonic, so the
// delta over a quiesced loop is the true per-request allocator traffic,
// which is precisely the hidden data-touching overhead the paper warns
// benchmarks not to bury.
func allocMeasure(ops int, op func() error) (allocsPerOp, bytesPerOp float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < ops; i++ {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops), nil
}

// withAllocEnv serves one MaxData-byte file over loopback TCP and runs
// body with the NFS client, a raw RPC client beside it and the file's
// handle.
func withAllocEnv(body func(c *memfs.Client, rc *rpcnet.Client, fh nfsproto.FH) error) error {
	fs := memfs.NewFS()
	payload := make([]byte, nfsproto.MaxData)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	fs.Create(memfs.RootFH, "data", payload)
	return withLive(fs, nfsd.Config{}, rpcnet.ServerOptions{}, nil, func(l *live) error {
		rc, err := rpcnet.Dial("tcp", l.srv.Addr(), nfsproto.Program, nfsproto.Version3)
		if err != nil {
			return err
		}
		defer rc.Close()
		fh, _, err := l.c.Lookup(memfs.RootFH, "data")
		if err != nil {
			return err
		}
		return body(l.c, rc, fh)
	})
}

// AllocProfile measures allocator traffic per live RPC — allocs/op and
// B/op, end to end over loopback TCP — for READ and WRITE at several
// transfer sizes, with the fixed-size procedures reported in the notes.
// This is the repository's instrument against the paper's central trap:
// when per-request allocation and copying dominate, a "server
// throughput" benchmark is really measuring the harness. The READ reply
// pipeline is pooled and append-marshalled (one payload copy between
// storage and socket), so B/op should sit near the one client-side
// reply copy rather than at a multiple of the transfer size.
func AllocProfile(p Params) (*Result, error) {
	p.fill()
	r := &Result{
		ID: "alloc-profile", Title: "Allocator traffic per live RPC (loopback TCP)",
		XLabel: "bytes", YLabel: "allocs/op and KB/op",
		X: allocSizes,
	}
	g := newGrid(r).series(BetterLower, "READ allocs/op", "READ KB/op", "WRITE allocs/op", "WRITE KB/op")
	err := sweep(p, g, r.X, []string{"READ", "WRITE"}, ident, func(proc string, pt point) error {
		return withAllocEnv(func(c *memfs.Client, _ *rpcnet.Client, fh nfsproto.FH) error {
			op := func() error {
				_, _, err := c.Read(fh, 0, uint32(pt.x))
				return err
			}
			if proc == "WRITE" {
				block := make([]byte, pt.x)
				var off uint64
				op = func() error {
					// Appends, so the store's copy-on-write arm (whole-segment
					// copy on overlap) does not drown the wire-path signal.
					err := c.Write(fh, uint64(nfsproto.MaxData)+off, block)
					off += uint64(pt.x)
					return err
				}
			}
			a, b, err := allocMeasure(allocOpsPerSample, op)
			if err != nil {
				return err
			}
			pt.put(proc+" allocs/op", a)
			pt.put(proc+" KB/op", b/1024)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	// Fixed-size procedures, one line each in the notes.
	err = withAllocEnv(func(c *memfs.Client, rc *rpcnet.Client, fh nfsproto.FH) error {
		for _, fixed := range []struct {
			name string
			op   func() error
		}{
			{"NULL", func() error {
				_, err := rc.Call(nfsproto.ProcNull, nil)
				return err
			}},
			{"GETATTR", func() error {
				_, err := rc.Call(nfsproto.ProcGetattr, (&nfsproto.GetattrArgs{FH: fh}).Marshal())
				return err
			}},
			{"LOOKUP", func() error {
				_, _, err := c.Lookup(memfs.RootFH, "data")
				return err
			}},
		} {
			a, b, err := allocMeasure(allocOpsPerSample, fixed.op)
			if err != nil {
				return fmt.Errorf("%s: %w", fixed.name, err)
			}
			r.Notes = append(r.Notes, fmt.Sprintf("%s: %.1f allocs/op, %.0f B/op", fixed.name, a, b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("alloc-profile %w", err)
	}
	r.Notes = append(r.Notes,
		"whole-process allocator deltas (client+server share the process); READ B/op ≈ one reply-body copy",
		"WRITE uses appends; overlapping writes add a copy-on-write segment copy by design")
	return g.result(), nil
}
