package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"net/netip"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"nfstricks/internal/nfsproto"
)

// Span kinds. Client-side spans are recorded by the benchmark's own
// client code around the public nfsproto and rpcnet calls; server,
// backend and flush spans by the wrappers in live.go.
const (
	kindEncode  uint8 = iota // nfsproto AppendTo/Marshal of the call's arguments
	kindCall                 // rpcnet.Client.Call (or memfs.Client method) round trip
	kindDecode               // nfsproto Unmarshal of the reply
	kindServer               // the InfoHandler around svc.InfoHandler()
	kindBackend              // one vfs.Backend call into memfs
	kindFlush                // observer Sink.Flush through the backend Commit it precedes
	numKinds
)

var kindNames = [numKinds]string{"encode", "call", "decode", "server", "backend", "flush"}

// maxSpans bounds the in-memory span store (40 MB); spans past it are
// counted as dropped and left out of the per-layer figures.
const maxSpans = 1 << 20

// span is one timed interval, in nowNS readings. conn is the client
// connection (client side) or the index of the client address (server
// side); server spans of one request are
// identified by (conn, xid), and a client call is paired with the
// server span it caused by connection, procedure and order.
type span struct {
	start, end int64
	// aux is the backend Commit's start for a flush span.
	aux    int64
	parent int32
	conn   int32
	xid    uint32
	op     uint16 // procedure number, or backend call index
	kind   uint8
}

// tracer keeps spans in memory while recording is on and turns them
// into per-layer metrics and a span file at the end of the run.
type tracer struct {
	on      atomic.Bool
	dropped atomic.Int64
	// entries counts directory entries delivered to the client while
	// recording, the denominator of memfs.readdir_ns_per_entry.
	entries atomic.Int64

	// spans is allocated whole by newTracer; next reserves
	// slots in it, so recording takes no lock. Each slot is written only
	// by the goroutine that reserved it, and read only after the load
	// that produced it has finished.
	spans []span
	next  atomic.Int64

	// gmu guards active and flushAt, both keyed by goroutine (gid).
	// active maps a server goroutine to the server span it is
	// executing, so backend calls made synchronously inside the handler
	// find their parent; flushAt holds the start of an observer-sink
	// flush whose backend Commit has not yet run.
	gmu     sync.Mutex
	active  map[uintptr]int32
	flushAt map[uintptr]int64

	addrMu sync.Mutex
	addrs  map[netip.AddrPort]int32
}

// newTracer allocates the whole span store up front. Allocated when
// recording starts instead, its 40 MB raised the GC heap goal for the
// traced half only, and the allocation-heavy metadata rounds then ran
// 45% faster traced than untraced.
func newTracer() *tracer {
	return &tracer{spans: make([]span, maxSpans), addrs: map[netip.AddrPort]int32{},
		active: map[uintptr]int32{}, flushAt: map[uintptr]int64{}}
}

func (t *tracer) start() { t.on.Store(true) }

func (t *tracer) stop() { t.on.Store(false) }

// recording reports whether spans are being kept (false on a nil
// tracer, so untraced code paths can call it unconditionally).
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// recorded returns the spans kept so far. A server span and its
// backend children are written before the handler's exit takes gmu, so
// taking gmu here orders those writes before the read; client spans are
// written by goroutines the load generator has already joined.
func (t *tracer) recorded() []span {
	t.gmu.Lock()
	defer t.gmu.Unlock()
	return t.spans[:min(t.next.Load(), maxSpans)]
}

// add stores s and returns its index (-1 when the store is full).
func (t *tracer) add(s span) int32 {
	i := t.next.Add(1) - 1
	if i >= maxSpans {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = s
	return int32(i)
}

func (t *tracer) setEnd(i int32, end int64) {
	if i >= 0 {
		t.spans[i].end = end
	}
}

// connOf maps a client address to a small connection index, in the
// order addresses are first seen. Workloads with several connections
// make each one call in turn before any load, so index i is the
// client's connection i.
func (t *tracer) connOf(a netip.AddrPort) int32 {
	t.addrMu.Lock()
	defer t.addrMu.Unlock()
	i, ok := t.addrs[a]
	if !ok {
		i = int32(len(t.addrs))
		t.addrs[a] = i
	}
	return i
}

// client records the client side of one call: encode [t0,t1), the
// round trip [t1,t2), and decode [t2,t3). A zero-width encode or decode
// (not timed for this call) is left out.
func (t *tracer) client(proc uint32, conn int32, t0, t1, t2, t3 int64) {
	if !t.recording() {
		return
	}
	if t1 > t0 {
		t.add(span{start: t0, end: t1, parent: -1, conn: conn, op: uint16(proc), kind: kindEncode})
	}
	t.add(span{start: t1, end: t2, parent: -1, conn: conn, op: uint16(proc), kind: kindCall})
	if t3 > t2 {
		t.add(span{start: t2, end: t3, parent: -1, conn: conn, op: uint16(proc), kind: kindDecode})
	}
}

// codec records one encode or decode timed apart from a call (the
// pipelined write path marshals inside memfs.WriteBehind).
func (t *tracer) codec(kind uint8, proc uint32, t0, t1 int64) {
	if !t.recording() {
		return
	}
	t.add(span{start: t0, end: t1, parent: -1, conn: -1, op: uint16(proc), kind: kind})
}

// enter and exit bracket the server span goroutine g executes.
func (t *tracer) enter(g uintptr, span int32) {
	t.gmu.Lock()
	t.active[g] = span
	t.gmu.Unlock()
}

func (t *tracer) exit(g uintptr) {
	t.gmu.Lock()
	delete(t.active, g)
	t.gmu.Unlock()
}

// parentOf returns the server span goroutine g is executing (-1 for
// none) and takes the start of a flush g handed the sink (-1 for none).
func (t *tracer) parentOf(g uintptr, takeFlush bool) (int32, int64) {
	t.gmu.Lock()
	defer t.gmu.Unlock()
	parent, ok := t.active[g]
	if !ok {
		parent = -1
	}
	flush := int64(-1)
	if takeFlush {
		if v, ok := t.flushAt[g]; ok {
			flush = v
			delete(t.flushAt, g)
		}
	}
	return parent, flush
}

// flushing notes that goroutine g handed the observer sink a flush.
func (t *tracer) flushing(g uintptr) {
	t.gmu.Lock()
	t.flushAt[g] = nowNS()
	t.gmu.Unlock()
}

// opStat accumulates durations for one (kind, op) cell.
type opStat struct {
	n   int64
	sum int64
}

func (s opStat) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// aggregate turns the recorded spans into per-layer metrics: mean
// encode/decode time per procedure, rpcnet self time (client call
// minus the server span it caused), nfsd self time (server span minus
// its backend and flush children), mean backend call time, Readdir cost
// per entry and the flush time seen through the observer sink.
func (t *tracer) aggregate(layers map[string]float64) {
	spans := t.recorded()

	var codec [2][256]opStat
	var backend [numCalls]opStat
	var flush opStat
	childNS := make(map[int32]int64)
	type key struct {
		conn int32
		op   uint16
	}
	calls := map[key][]int32{}
	servers := map[key][]int32{}
	for i := range spans {
		s := &spans[i]
		d := s.end - s.start
		switch s.kind {
		case kindEncode:
			codec[0][s.op].n++
			codec[0][s.op].sum += d
		case kindDecode:
			codec[1][s.op].n++
			codec[1][s.op].sum += d
		case kindCall:
			k := key{s.conn, s.op}
			calls[k] = append(calls[k], int32(i))
		case kindServer:
			k := key{s.conn, s.op}
			servers[k] = append(servers[k], int32(i))
		case kindBackend:
			backend[s.op].n++
			backend[s.op].sum += d
			if s.parent >= 0 {
				childNS[s.parent] += d
			}
		case kindFlush:
			flush.n++
			flush.sum += d
			// The flush span ends with the backend Commit, which is a
			// child span of its own: only the part before it is extra.
			if s.parent >= 0 {
				childNS[s.parent] += s.aux - s.start
			}
		}
	}

	var nfsdSelf [256]opStat
	for _, idx := range servers {
		for _, i := range idx {
			s := &spans[i]
			if s.end <= s.start {
				continue
			}
			nfsdSelf[s.op].n++
			nfsdSelf[s.op].sum += s.end - s.start - childNS[i]
		}
	}

	// Pair the k-th client call on a connection with the k-th server
	// span from that connection, per procedure, in start order.
	var rpcSelf [256]opStat
	var paired int64
	for k, cs := range calls {
		ss := servers[k]
		sort.Slice(ss, func(a, b int) bool { return spans[ss[a]].start < spans[ss[b]].start })
		n := min(len(cs), len(ss))
		for j := 0; j < n; j++ {
			c, s := &spans[cs[j]], &spans[ss[j]]
			rpcSelf[k.op].n++
			rpcSelf[k.op].sum += (c.end - c.start) - (s.end - s.start)
		}
		paired += int64(n)
	}

	layers["rpcnet.calls"] = float64(paired)
	for _, p := range clientProcs {
		layers["rpcnet.self_us."+nfsproto.ProcName(p)] = rpcSelf[p].mean() / 1e3
		layers["nfsproto.decode_ns."+nfsproto.ProcName(p)] = codec[1][p].mean()
	}
	for _, p := range serverProcs {
		layers["nfsproto.encode_ns."+nfsproto.ProcName(p)] = codec[0][p].mean()
		layers["nfsd.self_us."+nfsproto.ProcName(p)] = nfsdSelf[p].mean() / 1e3
	}
	for _, c := range reportedCalls {
		layers["memfs.us."+callNames[c]] = backend[c].mean() / 1e3
	}
	if n := t.entries.Load(); n > 0 {
		layers["memfs.readdir_ns_per_entry"] = float64(backend[callReaddir].sum) / float64(n)
	}
	layers["wgather.flush_us"] = flush.mean() / 1e3
	layers["trace.spans"] = float64(len(spans))
}

// dump writes every recorded span as gzipped CSV.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "index,kind,name,conn,xid,parent,start_ns,end_ns,aux")
	for i, s := range t.recorded() {
		name := nfsproto.ProcName(uint32(s.op))
		if s.kind == kindBackend {
			name = "memfs." + callNames[s.op]
		} else if s.kind == kindFlush {
			name = "wgather.flush"
		}
		fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d,%d,%d,%d\n",
			i, kindNames[s.kind], name, s.conn, s.xid, s.parent, s.start, s.end, s.aux)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
