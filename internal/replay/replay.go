// Package replay turns captured .nft traces (internal/tracefile) into
// live load: it replays a recorded request stream against a real server
// over UDP or TCP, preserving each client stream's request order while
// letting streams race each other — which is exactly how the paper's
// observed request reordering arises, now reproducible on demand from a
// file. Three timing policies are supported (as fast as possible,
// timestamp-faithful, speed-scaled) under either closed-loop dispatch
// (the next request waits for the previous reply, like a synchronous
// client) or open-loop dispatch (requests fire on the captured
// schedule regardless of outstanding replies, like independent client
// processes behind a kernel RPC pipeline).
package replay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/tracefile"
)

// Timing selects the replay schedule.
type Timing int

const (
	// AsFast ignores captured timestamps: each stream issues its next
	// request as soon as dispatch allows (back-to-back in closed loop).
	AsFast Timing = iota
	// Faithful reproduces the captured inter-arrival gaps.
	Faithful
	// Scaled reproduces the captured gaps divided by Options.Speed
	// (2 = twice as fast, 0.5 = half speed).
	Scaled
)

func (t Timing) String() string {
	switch t {
	case AsFast:
		return "as-fast-as-possible"
	case Faithful:
		return "faithful"
	case Scaled:
		return "scaled"
	default:
		return fmt.Sprintf("Timing(%d)", int(t))
	}
}

// Options configures a replay run.
type Options struct {
	// Network is "udp" or "tcp" (default "tcp").
	Network string
	// Addr is the target server.
	Addr string
	// Timing is the schedule policy; Speed applies when Timing is
	// Scaled (must be > 0).
	Timing Timing
	Speed  float64
	// OpenLoop fires requests on schedule without waiting for earlier
	// replies (bounded by Window); the default closed loop issues each
	// stream's next request only after the previous reply.
	OpenLoop bool
	// Window bounds outstanding requests per stream in open loop
	// (default 128).
	Window int
	// Timeout bounds each reply wait (default 10s).
	Timeout time.Duration
	// Amplify replays the trace as this many independent tenants
	// (default 1): every captured stream runs once per tenant,
	// concurrently, on the shared schedule — one laptop capture
	// becomes an M× cluster-scale load. Combined with Scaled timing
	// (K× speed) this is the paper-honest way to scale load: the op
	// mix, per-stream ordering and burstiness stay those of the
	// capture, only the tenant count and clock change. Amplify > 1
	// needs a Dial: one dedicated connection per tenant×stream would
	// exhaust ephemeral ports.
	Amplify int
	// TenantFH remaps a captured handle for one tenant, giving each
	// tenant its own file set (nil = identity, for replays against the
	// same store; tenants then share files).
	TenantFH func(tenant int, fh uint64) nfsproto.FH
	// Dial supplies the transport for a replay stream (nil = dedicated
	// rpcnet connection per stream to Network/Addr). Transports
	// returned by a custom Dial are not closed by Run; their owner
	// closes them.
	Dial func(stream uint32) (Transport, error)
}

// Pending is one in-flight replayed call. *rpcnet.Pending satisfies
// it; so does a shard-aware client's redirect-chasing pending.
type Pending interface {
	Wait(d time.Duration) ([]byte, error)
}

// Transport issues a replay stream's calls. fh is the handle the call
// is routed by — a cluster transport hashes it to pick the shard; the
// plain transport ignores it.
type Transport interface {
	Go(proc uint32, fh nfsproto.FH, args []byte) Pending
	Close() error
}

// conn is the plain transport: one dedicated rpcnet connection.
type conn struct{ c *rpcnet.Client }

func (t conn) Go(proc uint32, fh nfsproto.FH, args []byte) Pending {
	return t.c.Go(proc, args)
}

func (t conn) Close() error { return t.c.Close() }

// dialConn opens a dedicated connection transport. The client-side
// timeout stays armed: it puts a write deadline on each send, so a
// stalled TCP target (accepting but never reading) fails the transport
// and the run finishes with errors counted instead of wedging forever
// in the writer.
func dialConn(opts *Options) (Transport, error) {
	c, err := rpcnet.Dial(opts.Network, opts.Addr, nfsproto.Program, nfsproto.Version3)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(opts.Timeout)
	return conn{c}, nil
}

func (o *Options) fill() error {
	if o.Network == "" {
		o.Network = "tcp"
	}
	if o.Network != "udp" && o.Network != "tcp" {
		return fmt.Errorf("replay: unsupported network %q", o.Network)
	}
	if o.Addr == "" {
		return errors.New("replay: no target address")
	}
	switch o.Timing {
	case AsFast, Faithful:
	case Scaled:
		if !(o.Speed > 0) {
			return fmt.Errorf("replay: scaled timing needs Speed > 0, have %g", o.Speed)
		}
	default:
		return fmt.Errorf("replay: unknown timing policy %d", int(o.Timing))
	}
	if o.Window <= 0 {
		o.Window = 128
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Amplify <= 0 {
		o.Amplify = 1
	}
	if o.Amplify > 1 && o.Dial == nil {
		return fmt.Errorf("replay: Amplify %d needs a Dial", o.Amplify)
	}
	return nil
}

// Stats summarizes a replay run.
type Stats struct {
	Ops        int64 // requests issued
	Errors     int64 // transport or RPC-layer failures
	NFSErrors  int64 // replies carrying a non-OK NFS status
	Surrogates int64 // ops without replayable args, sent as GETATTR
	Streams    int   // concurrent client streams (captured × tenants)
	Tenants    int   // amplification factor applied
	// Duration spans first issue to last completion; IssueSpan spans
	// first to last issue — under Faithful timing it should match the
	// captured trace's arrival span within scheduling noise.
	Duration  time.Duration
	IssueSpan time.Duration
	OpsPerSec float64
	// Reply latency percentiles (includes queueing delay in open loop).
	P50, P90, P99 time.Duration
}

// String renders the stats on one line.
func (s *Stats) String() string {
	return fmt.Sprintf("ops=%d streams=%d errors=%d nfserrors=%d surrogates=%d ops/s=%.0f span=%v p50=%v p99=%v",
		s.Ops, s.Streams, s.Errors, s.NFSErrors, s.Surrogates, s.OpsPerSec,
		s.IssueSpan.Round(time.Millisecond),
		s.P50.Round(time.Microsecond), s.P99.Round(time.Microsecond))
}

// streamResult is one stream goroutine's contribution.
type streamResult struct {
	ops, errors, nfsErrors, surrogates int64
	latencies                          []time.Duration
	firstIssue, lastIssue, lastDone    time.Time
	err                                error // dial failure; ops were not attempted
}

// File replays a trace file (see Run).
func File(path string, opts Options) (*Stats, error) {
	_, recs, err := tracefile.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Run(recs, opts)
}

// Run replays records against opts.Addr. Each captured stream gets its
// own connection and issues its records in captured order; streams run
// concurrently and race each other exactly as the original clients did.
// READ, WRITE, COMMIT, GETATTR, SETATTR, READDIR, READDIRPLUS and NULL
// are replayed natively (WRITE payloads are zero-filled to the captured
// length, at the captured stability level; READDIR scans restart from
// cookie 0 since captured cookies belong to the original server);
// procedures whose arguments a trace cannot reconstruct (LOOKUP,
// MKDIR, REMOVE and RENAME names, ACCESS bits, ...) are sent as
// GETATTR on the captured handle to preserve the request's slot in the
// schedule, and counted in Stats.Surrogates.
func Run(records []tracefile.Record, opts Options) (*Stats, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return &Stats{}, nil
	}

	// Split into per-stream schedules. The file stores records in
	// completion order (arrival times regress by up to a service
	// latency when the captured clients pipelined), so each stream is
	// stable-sorted by arrival time to recover the client's send order —
	// the order the transport delivered and the schedule to reproduce.
	streams := make(map[uint32][]tracefile.Record)
	var order []uint32
	origin := records[0].When
	for _, r := range records {
		if r.When < origin {
			origin = r.When
		}
		if _, ok := streams[r.Stream]; !ok {
			order = append(order, r.Stream)
		}
		streams[r.Stream] = append(streams[r.Stream], r)
	}
	for _, recs := range streams {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].When < recs[j].When })
	}

	// Transport plumbing: a custom Dial wins; otherwise each stream
	// gets a dedicated connection, closed when the stream ends.
	dial := opts.Dial
	ownTransports := dial == nil
	if dial == nil {
		dial = func(uint32) (Transport, error) { return dialConn(&opts) }
	}

	start := time.Now()
	results := make(chan streamResult, len(order)*opts.Amplify)
	var wg sync.WaitGroup
	for tenant := 0; tenant < opts.Amplify; tenant++ {
		var mapFH func(uint64) nfsproto.FH
		if opts.TenantFH != nil {
			t := tenant
			mapFH = func(fh uint64) nfsproto.FH { return opts.TenantFH(t, fh) }
		}
		for i, id := range order {
			wg.Add(1)
			// Distinct transport identity per (tenant, stream) so a
			// Dial can spread them; record order within the stream is
			// preserved per goroutine.
			streamID := uint32(tenant*len(order) + i)
			go func(recs []tracefile.Record, streamID uint32, mapFH func(uint64) nfsproto.FH) {
				defer wg.Done()
				results <- replayStream(recs, origin, start, &opts, dial, streamID, ownTransports, mapFH)
			}(streams[id], streamID, mapFH)
		}
	}
	wg.Wait()
	close(results)

	st := &Stats{Streams: len(order) * opts.Amplify, Tenants: opts.Amplify}
	var all []time.Duration
	var firstIssue, lastIssue, lastDone time.Time
	for r := range results {
		if r.err != nil {
			return nil, r.err
		}
		st.Ops += r.ops
		st.Errors += r.errors
		st.NFSErrors += r.nfsErrors
		st.Surrogates += r.surrogates
		all = append(all, r.latencies...)
		if firstIssue.IsZero() || r.firstIssue.Before(firstIssue) {
			firstIssue = r.firstIssue
		}
		if r.lastIssue.After(lastIssue) {
			lastIssue = r.lastIssue
		}
		if r.lastDone.After(lastDone) {
			lastDone = r.lastDone
		}
	}
	if !firstIssue.IsZero() {
		st.Duration = lastDone.Sub(firstIssue)
		st.IssueSpan = lastIssue.Sub(firstIssue)
	}
	if st.Duration > 0 {
		st.OpsPerSec = float64(st.Ops) / st.Duration.Seconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	st.P50, st.P90, st.P99 = pct(0.50), pct(0.90), pct(0.99)
	return st, nil
}

// inflight is one open-loop request awaiting its reply.
type inflight struct {
	p         Pending
	issued    time.Time
	surrogate bool
}

// replayStream drives one captured stream over its transport.
func replayStream(recs []tracefile.Record, origin time.Duration, start time.Time,
	opts *Options, dial func(uint32) (Transport, error), streamID uint32,
	ownTransport bool, mapFH func(uint64) nfsproto.FH) streamResult {
	var res streamResult
	t, err := dial(streamID)
	if err != nil {
		res.err = err
		return res
	}
	if ownTransport {
		defer t.Close()
	}

	res.latencies = make([]time.Duration, 0, len(recs))
	settle := func(fl inflight) {
		body, err := fl.p.Wait(opts.Timeout)
		now := time.Now()
		res.latencies = append(res.latencies, now.Sub(fl.issued))
		if now.After(res.lastDone) {
			res.lastDone = now
		}
		switch {
		case err != nil:
			res.errors++
		case !fl.surrogate && len(body) >= 4:
			// nfsstat3 opens every non-NULL result.
			if binary.BigEndian.Uint32(body) != nfsproto.OK {
				res.nfsErrors++
			}
		}
	}

	var pending chan inflight
	var drained sync.WaitGroup
	if opts.OpenLoop {
		// The collector settles replies while the scheduler keeps
		// firing; the channel capacity is the outstanding-request
		// window.
		pending = make(chan inflight, opts.Window)
		drained.Add(1)
		go func() {
			defer drained.Done()
			for fl := range pending {
				settle(fl)
			}
		}()
	}

	for _, rec := range recs {
		// Schedule: captured offset from the trace origin, scaled.
		switch opts.Timing {
		case Faithful:
			time.Sleep(time.Until(start.Add(rec.When - origin)))
		case Scaled:
			time.Sleep(time.Until(start.Add(time.Duration(float64(rec.When-origin) / opts.Speed))))
		}
		proc, fh, args, surrogate := buildCall(rec, mapFH)
		if surrogate {
			res.surrogates++
		}
		issued := time.Now()
		if res.firstIssue.IsZero() {
			res.firstIssue = issued
		}
		res.lastIssue = issued
		res.ops++
		fl := inflight{p: t.Go(proc, fh, args), issued: issued, surrogate: surrogate}
		if opts.OpenLoop {
			pending <- fl
		} else {
			settle(fl)
		}
	}
	if opts.OpenLoop {
		close(pending)
		drained.Wait()
	}
	return res
}

// buildCall reconstructs a request's procedure, routing handle and
// arguments from its trace record. NULL proc replays with no arguments
// even when recorded with stray fields.
func buildCall(rec tracefile.Record, mapFH func(uint64) nfsproto.FH) (proc uint32, fh nfsproto.FH, args []byte, surrogate bool) {
	fh = nfsproto.FH(rec.FH)
	if mapFH != nil {
		fh = mapFH(rec.FH)
	}
	switch rec.Proc {
	case nfsproto.ProcNull:
		return nfsproto.ProcNull, fh, nil, false
	case nfsproto.ProcGetattr:
		return rec.Proc, fh, (&nfsproto.GetattrArgs{FH: fh}).Marshal(), false
	case nfsproto.ProcRead:
		return rec.Proc, fh, (&nfsproto.ReadArgs{FH: fh, Offset: rec.Offset, Count: rec.Count}).Marshal(), false
	case nfsproto.ProcWrite:
		// The captured payload is not stored; a zero-fill of the same
		// length exercises the same wire and storage path. The recorded
		// stability is replayed faithfully (v1 traces surface FILE_SYNC,
		// what their era's client sent), so a captured asynchronous
		// write stream drives the target's gathering engine the same way
		// the original did.
		w := &nfsproto.WriteArgs{FH: fh, Offset: rec.Offset, Count: rec.Count,
			Stable: rec.Stable, DataLen: rec.Count}
		return rec.Proc, fh, w.Marshal(), false
	case nfsproto.ProcCommit:
		return rec.Proc, fh, (&nfsproto.CommitArgs{FH: fh, Offset: rec.Offset, Count: rec.Count}).Marshal(), false
	case nfsproto.ProcSetattr:
		// Capture stores the requested size in Offset.
		return rec.Proc, fh, (&nfsproto.SetattrArgs{FH: fh, Size: rec.Offset}).Marshal(), false
	case nfsproto.ProcReaddir:
		// Captured cookies belong to the original server's scan state;
		// replaying them verbatim against a fresh store would draw
		// BAD_COOKIE. A fresh scan (cookie 0) at the captured count
		// exercises the same directory and reply-size path.
		return rec.Proc, fh, (&nfsproto.ReaddirArgs{Dir: fh, Count: rec.Count}).Marshal(), false
	case nfsproto.ProcReaddirplus:
		return rec.Proc, fh, (&nfsproto.ReaddirplusArgs{Dir: fh, DirCount: rec.Count, MaxCount: rec.Count}).Marshal(), false
	default:
		// LOOKUP names, ACCESS bits and CREATE/MKDIR/REMOVE/RENAME name
		// arguments are not in the trace; a GETATTR on the captured
		// (directory) handle keeps the request's slot (and its handle
		// locality) in the replayed schedule.
		return nfsproto.ProcGetattr, fh, (&nfsproto.GetattrArgs{FH: fh}).Marshal(), true
	}
}
