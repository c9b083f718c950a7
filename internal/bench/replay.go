package bench

import (
	"bytes"
	"fmt"
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
	srv, err := nfsd.NewServer("127.0.0.1:0", nfsd.New(fs, nfsd.Config{}), rpcnet.ServerOptions{Tap: capt.Tap})
	if err != nil {
		return nil, 0, err
	}

	errs := make(chan error, traceReplayStreams)
	t0 := time.Now()
	for i := 0; i < traceReplayStreams; i++ {
		go func(fh nfsproto.FH) {
			c, err := memfs.DialClient("tcp", srv.Addr())
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
		}(fhs[i])
	}
	var firstErr error
	for i := 0; i < traceReplayStreams; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	elapsed := time.Since(t0)
	srv.Close()
	if firstErr != nil {
		capt.Close()
		return nil, 0, firstErr
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
	perStream := traceReplayBytes / p.Scale
	if perStream < 64*1024 {
		perStream = 64 * 1024
	}
	r := &Result{
		ID: "trace-replay", Title: "Trace capture & replay: achieved load vs replay schedule",
		XLabel: "speed", YLabel: "ops/s, latency (µs), span error (%)",
		X: traceReplaySpeeds,
	}

	opsSeries := Series{Label: "achieved ops/s", Better: BetterHigher}
	p50Series := Series{Label: "p50 latency (µs)", Better: BetterLower}
	p99Series := Series{Label: "p99 latency (µs)", Better: BetterLower}
	spanSeries := Series{Label: "span error (%)", Better: BetterLower}

	var captureOps []float64
	var captureReorder []float64
	cells := make(map[int][]*replay.Stats)
	spans := make(map[int][]float64)
	for run := 0; run < p.Runs; run++ {
		recs, opsPerSec, err := captureWorkload(perStream)
		if err != nil {
			return nil, fmt.Errorf("trace-replay capture: %w", err)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("trace-replay: empty capture")
		}
		captureOps = append(captureOps, opsPerSec)
		a := nfstrace.Analyze(nfstrace.FromTracefile(recs), nfsproto.ProcRead)
		captureReorder = append(captureReorder, 100*a.ReorderFrac)
		span := traceSpan(recs)

		for _, speed := range traceReplaySpeeds {
			// A fresh server over an identically built store: captured
			// handles replay under the identity mapping.
			fs, _ := traceReplayEnv(perStream)
			srv, err := nfsd.NewServer("127.0.0.1:0", nfsd.New(fs, nfsd.Config{}), rpcnet.ServerOptions{})
			if err != nil {
				return nil, fmt.Errorf("trace-replay: %w", err)
			}
			st, err := replay.Run(recs, replayOptions(srv.Addr(), speed))
			srv.Close()
			if err != nil {
				return nil, fmt.Errorf("trace-replay speed=%d: %w", speed, err)
			}
			if st.Errors > 0 || st.NFSErrors > 0 {
				return nil, fmt.Errorf("trace-replay speed=%d: %d transport / %d NFS errors", speed, st.Errors, st.NFSErrors)
			}
			cells[speed] = append(cells[speed], st)
			if speed > 0 {
				want := time.Duration(float64(span) / float64(speed))
				errPct := 100 * (st.IssueSpan - want).Seconds() / want.Seconds()
				if errPct < 0 {
					errPct = -errPct
				}
				spans[speed] = append(spans[speed], errPct)
			} else {
				spans[speed] = append(spans[speed], 0)
			}
		}
	}

	for _, speed := range traceReplaySpeeds {
		var ops, p50, p99 []float64
		for _, st := range cells[speed] {
			ops = append(ops, st.OpsPerSec)
			p50 = append(p50, float64(st.P50.Microseconds()))
			p99 = append(p99, float64(st.P99.Microseconds()))
		}
		opsSeries.Samples = append(opsSeries.Samples, stats.Summarize(ops))
		p50Series.Samples = append(p50Series.Samples, stats.Summarize(p50))
		p99Series.Samples = append(p99Series.Samples, stats.Summarize(p99))
		spanSeries.Samples = append(spanSeries.Samples, stats.Summarize(spans[speed]))
	}
	r.Series = append(r.Series, opsSeries, p50Series, p99Series, spanSeries)

	capSum := stats.Summarize(captureOps)
	r.Notes = append(r.Notes,
		fmt.Sprintf("captured workload: %d streams, %.0f ops/s mean over %d runs, READ reorder %.2f%%",
			traceReplayStreams, capSum.Mean, capSum.N, stats.Summarize(captureReorder).Mean),
		"speed 1 = timestamp-faithful (span error is the timing-fidelity check), 0 = as fast as possible",
		"replays run closed-loop over TCP against a fresh server built identically to the captured one")
	return r, nil
}
