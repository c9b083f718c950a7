package bench

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/nfstrace"
	"nfstricks/internal/replay"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/stats"
	"nfstricks/internal/tracefile"
)

// traceReplayStreams is how many concurrent client streams the captured
// workload runs.
const traceReplayStreams = 4

// traceReplayGap is the think time between a stream's requests in the
// captured workload — the inter-arrival structure faithful replay must
// reproduce.
const traceReplayGap = 2 * time.Millisecond

// traceReplayBytes is how much each stream reads at Scale 1.
const traceReplayBytes = 2 << 20

// traceReplaySpeeds are the replayed schedules: ×1 is
// timestamp-faithful, larger factors compress the captured gaps, and 0
// means as fast as possible.
var traceReplaySpeeds = []int{1, 4, 16, 0}

// traceReplayEnv builds the identical file store the capture ran
// against, so captured file handles replay under the identity mapping.
func traceReplayEnv(perStream int) (*memfs.FS, []nfsproto.FH) {
	fs := memfs.NewFS()
	payload := make([]byte, perStream)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	fhs := make([]nfsproto.FH, traceReplayStreams)
	for i := range fhs {
		fhs[i], _ = fs.Create(memfs.RootFH, fmt.Sprintf("s%d", i), payload)
	}
	return fs, fhs
}

// captureWorkload serves the store with capture enabled and drives the
// synthetic workload: traceReplayStreams concurrent TCP clients, each
// reading its file sequentially in 8 KB requests with traceReplayGap of
// think time. It returns the captured records and the workload's
// wall-clock ops/s.
func captureWorkload(perStream int) ([]tracefile.Record, float64, error) {
	fs, fhs := traceReplayEnv(perStream)
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf, time.Now())
	if err != nil {
		return nil, 0, err
	}
	capt := nfstrace.NewCapture(w)
	var elapsed time.Duration
	err = withLive(fs, nfsd.Config{}, rpcnet.ServerOptions{Tap: capt.Tap}, nil, func(l *live) error {
		errs := make(chan error, traceReplayStreams)
		t0 := time.Now()
		for _, fh := range fhs {
			go func(fh nfsproto.FH) {
				c, err := memfs.DialClient("tcp", l.srv.Addr())
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				for off := uint64(0); off < uint64(perStream); off += 8192 {
					if _, _, err := c.Read(fh, off, 8192); err != nil {
						errs <- err
						return
					}
					time.Sleep(traceReplayGap)
				}
				errs <- nil
			}(fh)
		}
		var firstErr error
		for range fhs {
			if err := <-errs; err != nil && firstErr == nil {
				firstErr = err
			}
		}
		elapsed = time.Since(t0)
		return firstErr
	})
	// The server is closed: the capture holds every record.
	if err != nil {
		capt.Close()
		return nil, 0, err
	}
	if err := capt.Err(); err != nil {
		return nil, 0, err
	}
	if err := capt.Close(); err != nil {
		return nil, 0, err
	}
	_, recs, err := tracefile.ReadAll(&buf)
	if err != nil {
		return nil, 0, err
	}
	return recs, float64(len(recs)) / elapsed.Seconds(), nil
}

// captures takes one capture per run, on the run's first call, so every
// cell of a run replays the same trace.
type captures struct {
	perStream, run int
	recs           []tracefile.Record
	// ops and reorderPct hold each capture's ops/s and READ reorder %.
	ops, reorderPct []float64
}

func newCaptures(perStream int) *captures { return &captures{perStream: perStream, run: -1} }

func (c *captures) of(run int) ([]tracefile.Record, error) {
	if run == c.run {
		return c.recs, nil
	}
	recs, ops, err := captureWorkload(c.perStream)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	if len(recs) == 0 {
		return nil, errors.New("empty capture")
	}
	a := nfstrace.Analyze(nfstrace.FromTracefile(recs), nfsproto.ProcRead)
	c.run, c.recs = run, recs
	c.ops = append(c.ops, ops)
	c.reorderPct = append(c.reorderPct, 100*a.ReorderFrac)
	return recs, nil
}

// traceSpan is the arrival span of a capture (first to last request).
func traceSpan(recs []tracefile.Record) time.Duration {
	if len(recs) == 0 {
		return 0
	}
	min, max := recs[0].When, recs[0].When
	for _, r := range recs {
		if r.When < min {
			min = r.When
		}
		if r.When > max {
			max = r.When
		}
	}
	return max - min
}

// replayOptions maps a speed cell to engine options: 0 = as fast as
// possible, 1 = timestamp-faithful, else scaled ×speed.
func replayOptions(addr string, speed int) replay.Options {
	opts := replay.Options{Network: "tcp", Addr: addr}
	switch speed {
	case 0:
		opts.Timing = replay.AsFast
	case 1:
		opts.Timing = replay.Faithful
	default:
		opts.Timing = replay.Scaled
		opts.Speed = float64(speed)
	}
	return opts
}

// TraceReplay is the live capture→replay experiment: it records a
// real multi-stream workload over loopback TCP into the .nft trace
// format, then replays the trace against a fresh live server at several
// schedules — timestamp-faithful, speed-scaled and unthrottled —
// reporting achieved ops/s and reply-latency percentiles per schedule,
// plus how closely each schedule reproduced the captured arrival span.
// It is the anti-synthetic-benchmark instrument the paper asks for:
// the workload driving the server is a recorded request stream, not a
// loop the harness invented, and the trace file is a reusable artifact
// (`cmd/nfstrace` analyzes and replays the same format).
func TraceReplay(p Params) (*Result, error) {
	p.fill()
	perStream := max(traceReplayBytes/p.Scale, 64*1024)
	r := &Result{
		ID: "trace-replay", Title: "Trace capture & replay: achieved load vs replay schedule",
		XLabel: "speed", YLabel: "ops/s, latency (µs), span error (%)",
		X: traceReplaySpeeds,
	}
	g := newGrid(r).series(BetterHigher, "achieved ops/s").
		series(BetterLower, "p50 latency (µs)", "p99 latency (µs)", "span error (%)")
	caps := newCaptures(perStream)
	err := sweep(p, g, r.X, []string{"replay"}, ident, func(_ string, pt point) error {
		recs, err := caps.of(pt.run)
		if err != nil {
			return err
		}
		// A fresh server over an identically built store: captured
		// handles replay under the identity mapping.
		fs, _ := traceReplayEnv(perStream)
		return withLive(fs, nfsd.Config{}, rpcnet.ServerOptions{}, nil, func(l *live) error {
			st, err := replay.Run(recs, replayOptions(l.srv.Addr(), pt.x))
			if err != nil {
				return err
			}
			if st.Errors > 0 || st.NFSErrors > 0 {
				return fmt.Errorf("%d transport / %d NFS errors", st.Errors, st.NFSErrors)
			}
			pt.put("achieved ops/s", st.OpsPerSec)
			pt.put("p50 latency (µs)", float64(st.P50.Microseconds()))
			pt.put("p99 latency (µs)", float64(st.P99.Microseconds()))
			spanErr := 0.0
			if pt.x > 0 {
				want := time.Duration(float64(traceSpan(recs)) / float64(pt.x))
				spanErr = math.Abs(100 * (st.IssueSpan - want).Seconds() / want.Seconds())
			}
			pt.put("span error (%)", spanErr)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	capSum := stats.Summarize(caps.ops)
	r.Notes = append(r.Notes,
		fmt.Sprintf("captured workload: %d streams, %.0f ops/s mean over %d runs, READ reorder %.2f%%",
			traceReplayStreams, capSum.Mean, capSum.N, stats.Summarize(caps.reorderPct).Mean),
		"speed 1 = timestamp-faithful (span error is the timing-fidelity check), 0 = as fast as possible",
		"replays run closed-loop over TCP against a fresh server built identically to the captured one")
	return g.result(), nil
}
