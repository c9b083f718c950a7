// Package rpcnet runs ONC RPC over real sockets (UDP and TCP with
// record marking) using the same wire encodings as the simulator. It
// exists to prove the protocol stack against an actual network path and
// to make the library usable as a tiny userspace NFS-like file service
// (see internal/memfs and cmd/nfsserve).
package rpcnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nfstricks/internal/obs"
	"nfstricks/internal/sunrpc"
)

// maxUDPMessage bounds datagram buffers (rsize 32 KB + headers).
const maxUDPMessage = 64 * 1024

// recordReadBuffer sizes the read buffer in front of each TCP
// connection, on the server and the client. Without it every record
// costs two reads, one for the mark and one for the body; with it a
// mark and its body arrive in one read, and records queued back to back
// share one.
const recordReadBuffer = 64 * 1024

// newRecordReader buffers a TCP stream for sunrpc.ReadRecordInto.
func newRecordReader(r io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(r, recordReadBuffer)
}

// CallInfo identifies one call on the wire: which client sent it and
// under which XID. A duplicate request cache needs exactly this —
// (client, XID) is the retransmission identity ONC RPC gives us.
type CallInfo struct {
	// XID is the call's transaction id from the RPC header.
	XID uint32
	// Client is the peer address: the datagram source on UDP, the
	// connection's remote address on TCP.
	Client netip.AddrPort
	// TCP reports the transport (false = UDP).
	TCP bool
	// Span is the request's latency span, nil unless the server was
	// built with ServerOptions.Spans. Handlers mark the stages they own
	// (obs.Span methods are nil-safe, so no guard is needed); the server
	// finishes the span after the reply's socket write.
	Span *obs.Span
}

// InfoHandler serves one RPC call: given the call's wire identity, the
// procedure number, the XDR-encoded argument body and the partially
// built reply, it appends the XDR-encoded result to reply and returns
// the extended slice plus an accept status. Appending into the caller's
// buffer — which already holds the record mark and RPC header — is what
// makes the reply path single-copy: a READ payload moves from storage
// to the wire buffer exactly once.
//
// body may alias a pooled receive buffer and is valid only for the
// duration of the call; handlers must not retain it (or views decoded
// from it) after returning. Handlers must only append to reply and must
// be safe for concurrent use.
//
// Returning StatDrop as the accept status suppresses the reply
// entirely — the server behaves as if the request were lost, which is
// how a duplicate request cache answers a retransmission whose original
// is still executing.
type InfoHandler func(info CallInfo, proc uint32, body []byte, reply []byte) ([]byte, uint32)

// StatDrop is the sentinel accept status an InfoHandler returns to
// drop a call without replying. It never appears on the wire.
const StatDrop = ^uint32(0)

// wireBufs is the message arena: recycled buffers for everything that
// crosses a socket — datagrams read, TCP records read, calls and
// replies marshalled. Entries start at the maximum wire size
// (maxUDPMessage) and, when an append outgrows one, the grown storage
// is what returns to the pool, so entries converge on the true peak
// wire size instead of being re-allocated per message.
var wireBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, maxUDPMessage)
		return &b
	},
}

// getBuf fetches a zero-length arena buffer.
func getBuf() *[]byte { return wireBufs.Get().(*[]byte) }

// putBuf recycles an arena buffer. The caller must be done with every
// view into it.
func putBuf(b *[]byte) {
	*b = (*b)[:0]
	wireBufs.Put(b)
}

// TapEvent describes one served RPC to a capture tap: when the request
// arrived, which client stream carried it, what was called, how the
// server answered and how long service took. Body and Result alias
// pooled wire buffers and are valid only for the duration of the tap
// call — taps must parse what they need before returning, never retain
// the slices.
type TapEvent struct {
	// Stream identifies the client connection: TCP connections get one
	// id each for their lifetime, UDP peers one id per distinct source
	// address. Ids are unique within a Server, never reused.
	Stream uint32
	// XID is the call's transaction id — the key a capture needs to
	// recognize a retransmission (same stream, same XID, again).
	XID uint32
	// When is the request's arrival time (read off the socket).
	When time.Time
	// Latency is the service time: handler plus decode, excluding the
	// reply's socket write.
	Latency time.Duration
	// Proc is the procedure number from the call header.
	Proc uint32
	// Stat is the RPC accept status of the reply.
	Stat uint32
	// Body is the XDR argument payload of the call.
	Body []byte
	// Result is the XDR result the handler appended (nil when the call
	// was rejected before dispatch, e.g. program mismatch).
	Result []byte
}

// Tap observes served RPCs for trace capture. It is called after the
// handler returns, concurrently from the serving goroutines, so
// implementations must be safe for concurrent use. A nil Tap on the
// server costs one pointer check per request — capture is free when
// disabled.
type Tap func(ev TapEvent)

// Server serves one RPC program on a UDP socket and a TCP listener
// bound to the same address.
type Server struct {
	prog, vers uint32
	handler    InfoHandler
	tap        Tap
	faults     *FaultInjector // nil = perfect network
	spans      *obs.SpanTable // nil = no span recording

	udp *net.UDPConn
	tcp net.Listener
	// datagrams serves every UDP request; serveUDP owns it.
	datagrams *workers

	// nextStream allocates tap stream ids; udpStreams maps datagram
	// peers to theirs (only touched when a tap is installed).
	nextStream atomic.Uint32
	streamMu   sync.Mutex
	udpStreams map[netip.AddrPort]uint32

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServerOptions carries the optional knobs of NewServerInfo. The zero
// value is a plain server: no capture, perfect network, no spans.
type ServerOptions struct {
	// Tap observes every served RPC (see Tap).
	Tap Tap
	// Faults, when non-nil, injects faults on both wire directions of
	// this server: inbound requests and outbound replies.
	Faults *FaultInjector
	// Spans, when non-nil, records a per-request stage span for every
	// call: recv (socket read to decode, queueing and injected holds
	// included), decode, the handler's own stages (via CallInfo.Span),
	// and the reply's socket write. Dropped calls (garbage, StatDrop)
	// are discarded unrecorded.
	Spans *obs.SpanTable
}

// NewServerInfo binds addr (e.g. "127.0.0.1:0") for program prog
// version vers and starts serving handler, which sees each call's wire
// identity (and may drop calls via StatDrop); opts adds capture, fault
// injection and stage spans. Close shuts it down.
func NewServerInfo(addr string, prog, vers uint32, handler InfoHandler, opts ServerOptions) (*Server, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: %w", err)
	}
	udp, tcp, err := bindBoth(udpAddr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		prog: prog, vers: vers, handler: handler, tap: opts.Tap,
		faults: opts.Faults, spans: opts.Spans,
		udp: udp, tcp: tcp,
		conns: make(map[net.Conn]struct{}),
	}
	if s.tap != nil {
		s.udpStreams = make(map[netip.AddrPort]uint32)
	}
	s.datagrams = newWorkers(&s.wg, s.replyDatagram)
	s.wg.Add(2)
	go s.serveUDP()
	go s.serveTCP()
	return s, nil
}

// maxUDPStreams bounds the peer→stream-id map: a long-running traced
// server facing ephemeral-port churn must not grow it forever. At the
// cap the map is reset; ids stay unique (never reused), so a peer that
// spans a reset continues as a new stream — for trace consumers that is
// a connection epoch, same as a TCP reconnect.
const maxUDPStreams = 65536

// udpStream resolves the tap stream id for a datagram peer.
func (s *Server) udpStream(from *net.UDPAddr) uint32 {
	key := from.AddrPort()
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	id, ok := s.udpStreams[key]
	if !ok {
		if len(s.udpStreams) >= maxUDPStreams {
			s.udpStreams = make(map[netip.AddrPort]uint32)
		}
		id = s.nextStream.Add(1)
		s.udpStreams[key] = id
	}
	return id
}

// bindBoth acquires a UDP socket and a TCP listener on the same port.
// With an explicit port one attempt is made; with port 0 the kernel
// picks the UDP port, and since the matching TCP port may independently
// be in use (e.g. as some client's ephemeral port), the pair is retried
// on a fresh port a few times before giving up.
func bindBoth(udpAddr *net.UDPAddr) (*net.UDPConn, net.Listener, error) {
	attempts := 1
	if udpAddr.Port == 0 {
		attempts = 16
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		udp, err := net.ListenUDP("udp", udpAddr)
		if err != nil {
			return nil, nil, fmt.Errorf("rpcnet: %w", err)
		}
		// A server socket facing pipelined writers sees bursts of
		// near-wsize datagrams; the kernel default receive buffer
		// (~200 KB) drops part of such a burst. Ask for more — the
		// kernel caps the request at rmem_max, and clients recover
		// from any residual loss by retransmitting (UDP NFS's
		// contract), so a failure here is not an error.
		udp.SetReadBuffer(udpReadBuffer)
		tcp, err := net.Listen("tcp", udp.LocalAddr().String())
		if err == nil {
			return udp, tcp, nil
		}
		udp.Close()
		lastErr = err
	}
	return nil, nil, fmt.Errorf("rpcnet: %w", lastErr)
}

// udpReadBuffer is the receive buffer requested for UDP sockets (the
// kernel may cap it lower).
const udpReadBuffer = 4 << 20

// Addr returns the bound address (identical for UDP and TCP).
func (s *Server) Addr() string { return s.udp.LocalAddr().String() }

// Close stops the server and waits for its goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.udp.Close()
	s.tcp.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) serveUDP() {
	defer s.wg.Done()
	defer s.datagrams.stop()
	for {
		// Each datagram lands in its own pooled buffer, so handing it to
		// a worker needs no copy; the buffer is recycled once the reply
		// hits the socket.
		bp := getBuf()
		buf := (*bp)[:cap(*bp)]
		n, from, err := s.udp.ReadFromUDP(buf)
		if err != nil {
			putBuf(bp)
			if s.isClosed() {
				return
			}
			continue
		}
		// Inbound fault decision, drawn on the read loop so the decision
		// order matches datagram arrival order.
		act := s.faults.datagram(DirIn, n)
		if act.drop {
			putBuf(bp)
			continue
		}
		if act.truncate >= 0 {
			n = act.truncate
		}
		if act.dup {
			// The network delivered the datagram twice: serve a private
			// copy as a second, independent request. This is the
			// retransmission the duplicate request cache exists for,
			// injected without needing the client to time out.
			dp := getBuf()
			*dp = append(*dp, buf[:n]...)
			s.serveDatagram(dp, (*dp)[:n], from, 0)
		}
		s.serveDatagram(bp, buf[:n], from, act.delay)
	}
}

// serveDatagram hands one UDP request to the server's datagram workers,
// which recycle bp when the reply (if any) has hit the socket. delay,
// when nonzero, is an injected inbound hold applied before decoding.
func (s *Server) serveDatagram(bp *[]byte, msg []byte, from *net.UDPAddr, delay time.Duration) {
	// Arrival time and stream id are resolved on the read loop (the
	// peer address is at hand here) but only when capture is on.
	var ev *TapEvent
	if s.tap != nil {
		ev = &TapEvent{Stream: s.udpStream(from), When: time.Now()}
	}
	// The span is stamped with the arrival time here on the read loop, so
	// StageRecv covers scheduling delay and injected holds; Acquire on a
	// nil table hands out a nil span, which every mark downstream accepts.
	info := CallInfo{Client: from.AddrPort(), Span: s.spans.Acquire()}
	s.datagrams.dispatch(request{bp: bp, msg: msg, hold: delay, ev: ev, info: info, from: from})
}

// replyDatagram serves one UDP request on a datagram worker: the inbound
// hold, dispatch, and the reply datagram with its outbound faults.
func (s *Server) replyDatagram(r request) {
	defer putBuf(r.bp)
	if r.hold > 0 {
		time.Sleep(r.hold)
	}
	rp := getBuf()
	defer putBuf(rp)
	reply, ok := s.process(r.msg, *rp, r.ev, r.info)
	if !ok {
		s.spans.Discard(r.info.Span)
		return
	}
	*rp = reply
	s.emit(r.ev)
	// The reply stage covers the outbound fault decision and the
	// socket write — everything between the handler's last mark and
	// the datagram leaving (or being dropped by) the server.
	defer func() {
		r.info.Span.Mark(obs.StageReply)
		s.spans.Finish(r.info.Span)
	}()
	// Outbound fault decision: the reply datagram crosses the wire
	// too.
	act := s.faults.datagram(DirOut, len(reply))
	if act.drop {
		return
	}
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	if act.truncate >= 0 {
		reply = reply[:act.truncate]
	}
	s.udp.WriteToUDP(reply, r.from)
	if act.dup {
		s.udp.WriteToUDP(reply, r.from)
	}
}

// emit delivers a populated tap event; ev is nil when capture is off or
// the message was dropped as garbage.
func (s *Server) emit(ev *TapEvent) {
	if ev != nil {
		ev.Latency = time.Since(ev.When)
		s.tap(*ev)
	}
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			if s.isClosed() {
				return
			}
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// One tap stream id covers the connection's whole life.
	var stream uint32
	if s.tap != nil {
		stream = s.nextStream.Add(1)
	}
	// The connection's remote address is resolved once; every call on it
	// shares the identity.
	var peer netip.AddrPort
	if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		peer = ta.AddrPort()
	}
	var writeMu sync.Mutex
	// Records are served by the connection's own workers; when the read
	// loop ends they finish their current record and exit.
	w := newWorkers(&s.wg, func(r request) { s.replyRecord(conn, &writeMu, r) })
	defer w.stop()
	rd := newRecordReader(conn)
	for {
		bp := getBuf()
		msg, err := sunrpc.ReadRecordInto(rd, *bp)
		if err != nil {
			putBuf(bp)
			return
		}
		*bp = msg
		// Inbound record fault: a reset tears the connection down (the
		// client sees ECONNRESET/EOF mid-stream), a stall holds the
		// record before dispatch — the sender's half-written record
		// arriving late.
		act := s.faults.record(DirIn)
		if act.reset {
			putBuf(bp)
			return
		}
		var ev *TapEvent
		if s.tap != nil {
			ev = &TapEvent{Stream: stream, When: time.Now()}
		}
		// Arrival-stamped here (post record read), as in serveDatagram.
		info := CallInfo{Client: peer, TCP: true, Span: s.spans.Acquire()}
		w.dispatch(request{bp: bp, msg: msg, hold: act.stall, ev: ev, info: info})
	}
}

// replyRecord serves one TCP record on a connection worker: the inbound
// stall, dispatch, and the reply record written under the connection's
// write lock with its outbound faults.
func (s *Server) replyRecord(conn net.Conn, writeMu *sync.Mutex, r request) {
	defer putBuf(r.bp)
	if r.hold > 0 {
		time.Sleep(r.hold)
	}
	rp := getBuf()
	defer putBuf(rp)
	// Record mark, RPC header and result are appended into one
	// pooled buffer and written in a single call — no re-framing
	// copy, no per-reply allocation.
	reply, ok := s.process(r.msg, sunrpc.BeginRecord(*rp), r.ev, r.info)
	if !ok {
		s.spans.Discard(r.info.Span)
		return
	}
	*rp = reply
	sunrpc.FinishRecord(reply, 0)
	s.emit(r.ev)
	// The reply stage covers write-lock wait (head-of-line
	// blocking behind a stalled reply shows up here), injected
	// faults and the record's socket write.
	defer func() {
		r.info.Span.Mark(obs.StageReply)
		s.spans.Finish(r.info.Span)
	}()
	writeMu.Lock()
	defer writeMu.Unlock()
	// Outbound record fault. A stall writes half the record,
	// holds the write lock through the pause, then completes it:
	// genuine head-of-line blocking — every reply behind this one
	// on the connection waits too, which is exactly the TCP
	// failure mode the paper's transport comparison is about. A
	// reset abandons the record mid-write and kills the
	// connection.
	wact := s.faults.record(DirOut)
	if wact.stall > 0 {
		half := len(reply) / 2
		if _, err := conn.Write(reply[:half]); err != nil {
			return
		}
		time.Sleep(wact.stall)
		reply = reply[half:]
	}
	if wact.reset {
		if len(reply) > 1 {
			conn.Write(reply[:len(reply)/2])
		}
		conn.Close()
		return
	}
	conn.Write(reply)
}

// process decodes a call, dispatches it and appends the encoded reply
// to out. ok == false means "drop" (undecodable garbage, or the handler
// returned StatDrop), like a real server. When ev is non-nil (capture
// on) the call's procedure, accept status, argument body and result
// region are recorded into it.
func (s *Server) process(msg []byte, out []byte, ev *TapEvent, info CallInfo) (reply []byte, ok bool) {
	// Everything from arrival to here — worker handoff, injected
	// inbound holds — is the receive stage.
	info.Span.Mark(obs.StageRecv)
	call, err := sunrpc.UnmarshalCall(msg)
	if err != nil {
		return out, false
	}
	info.Span.SetProc(call.Proc)
	info.Span.Mark(obs.StageDecode)
	info.XID = call.XID
	hdr := &sunrpc.Reply{XID: call.XID, Verf: sunrpc.AuthNoneCred()}
	switch {
	case call.Prog != s.prog:
		hdr.Stat = sunrpc.AcceptProgUnavail
	case call.Vers != s.vers:
		hdr.Stat = sunrpc.AcceptProgMismatch
	default:
		// The accept status precedes the result on the wire but the
		// handler produces both together, so the header goes out with a
		// success placeholder that is patched once the handler returns.
		out = hdr.AppendTo(out)
		statOff := len(out) - 4
		resultStart := len(out)
		out, hdr.Stat = s.handler(info, call.Proc, call.Body, out)
		if hdr.Stat == StatDrop {
			return out, false
		}
		binary.BigEndian.PutUint32(out[statOff:], hdr.Stat)
		if ev != nil {
			ev.XID, ev.Proc, ev.Stat, ev.Body = call.XID, call.Proc, hdr.Stat, call.Body
			ev.Result = out[resultStart:]
		}
		return out, true
	}
	if ev != nil {
		ev.XID, ev.Proc, ev.Stat, ev.Body = call.XID, call.Proc, hdr.Stat, call.Body
	}
	return hdr.AppendTo(out), true
}

// Client is a pipelining RPC client over UDP or TCP. It is safe for
// concurrent use by multiple goroutines: calls issued concurrently are
// all in flight at once over the single connection. Each caller writes
// its own request under one write lock, as the server writes its
// replies; there is no writer goroutine. A reader goroutine
// demultiplexes replies to the matching call by XID, and each call
// waits only on its own reply (or its deadline), holding no lock.
type Client struct {
	network string
	conn    net.Conn
	prog    uint32
	vers    uint32
	xid     atomic.Uint32
	timeout atomic.Int64 // per-call deadline for Call, in nanoseconds

	// wslot is the write lock: a one-slot semaphore rather than a
	// mutex, so a caller queued behind other writes can give up at its
	// own deadline. deadlineArmed, guarded by it, remembers whether a
	// previous send left a write deadline on the socket, so switching
	// to SetTimeout(0) disarms it once instead of letting the stale
	// deadline fail a later send.
	wslot         chan struct{}
	deadlineArmed bool

	mu      sync.Mutex
	pending map[uint32]chan callReply
	err     error // first terminal transport error; nil while healthy
	closing sync.Once
}

// callReply is what the reader delivers to a waiting call.
type callReply struct {
	body []byte
	err  error
}

// Dial connects to an RPC server. network is "udp" or "tcp".
func Dial(network, addr string, prog, vers uint32) (*Client, error) {
	if network != "udp" && network != "tcp" {
		return nil, fmt.Errorf("rpcnet: unsupported network %q", network)
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		if isResourceExhausted(err) {
			return nil, fmt.Errorf("rpcnet: %w: %v", ErrConnExhausted, err)
		}
		return nil, fmt.Errorf("rpcnet: %w", err)
	}
	// Pipelined READ streams burst wsize replies at the client; the
	// same buffer courtesy as the server side (capped by the kernel).
	if uc, ok := conn.(*net.UDPConn); ok {
		uc.SetReadBuffer(udpReadBuffer)
	}
	c := &Client{
		network: network, conn: conn, prog: prog, vers: vers,
		pending: make(map[uint32]chan callReply),
		wslot:   make(chan struct{}, 1),
	}
	c.timeout.Store(int64(5 * time.Second))
	c.xid.Store(uint32(time.Now().UnixNano()))
	go c.reader()
	return c, nil
}

// SetTimeout sets the per-call deadline used by Call and the write
// deadline applied to each socket send.
func (c *Client) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// ErrClientClosed is returned for calls on a closed client.
var ErrClientClosed = errors.New("rpcnet: client closed")

// ErrConnExhausted tags dial failures caused by local resource limits —
// ephemeral ports (EADDRNOTAVAIL, EADDRINUSE) or file descriptors
// (EMFILE, ENFILE). High-fan-out callers (amplified replay, per-shard
// pools) hit these long before the server does; the typed error lets
// them fail the run with a diagnosis instead of retrying into a hang.
var ErrConnExhausted = errors.New("connection resources exhausted")

// isResourceExhausted classifies a dial error as local resource
// exhaustion.
func isResourceExhausted(err error) bool {
	for _, target := range []error{
		syscall.EADDRNOTAVAIL, syscall.EADDRINUSE, syscall.EMFILE, syscall.ENFILE,
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// ErrSendFailed marks a call that failed before reaching the wire: the
// socket write errored (e.g. ECONNREFUSED surfacing on a connected UDP
// socket — a dead server, not a lossy path). Errors wrap it together
// with the underlying socket error.
var ErrSendFailed = errors.New("rpcnet: send failed")

// ErrReplyTimeout marks a call whose request was sent but whose reply
// never arrived within the deadline — a lossy or slow path, or a
// silently dead server. Timeout errors wrap both ErrReplyTimeout and
// context.DeadlineExceeded.
var ErrReplyTimeout = errors.New("rpcnet: reply timeout")

// Close releases the connection and fails any in-flight calls with
// ErrClientClosed. It returns the socket close error, if this call is
// the one that actually closed it.
func (c *Client) Close() error {
	return c.fail(ErrClientClosed)
}

// fail marks the transport dead with err (first error wins), closes the
// socket to unblock the reader and any blocked sender, and fails every
// pending call (sent or not — nothing can complete on a dead
// transport). It returns the socket close error when this invocation
// performed the close, nil otherwise.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	c.mu.Unlock()
	var closeErr error
	c.closing.Do(func() { closeErr = c.conn.Close() })
	c.drainPending(err)
	return closeErr
}

// drainPending removes every pending call and fails it with err.
func (c *Client) drainPending(err error) {
	c.mu.Lock()
	stale := c.pending
	c.pending = make(map[uint32]chan callReply)
	c.mu.Unlock()
	for _, ch := range stale {
		ch <- callReply{err: err}
	}
}

// failed returns the terminal transport error: ErrClientClosed after
// Close, the first fatal error after a transport failure, nil while
// healthy.
func (c *Client) failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// replyChans recycles per-call reply channels. A channel may return to
// the pool only when no send can ever reach it again: either its one
// value was received, or it was removed from the pending map before any
// sender saw it (senders remove a channel from the map, under the
// client mutex, before their single send).
var replyChans = sync.Pool{
	New: func() any { return make(chan callReply, 1) },
}

// register installs a pooled reply channel for xid, or reports the
// terminal error if the transport is already dead.
func (c *Client) register(xid uint32) (chan callReply, error) {
	ch := replyChans.Get().(chan callReply)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		replyChans.Put(ch)
		return nil, c.err
	}
	c.pending[xid] = ch
	return ch, nil
}

// abandon removes xid's reply channel (deadline passed, or the request
// never reached the wire); a reply arriving later is dropped by the
// demultiplexer. The channel is recycled only if it was still
// registered — then no sender can ever reach it; otherwise a send is
// (or was) in flight and the channel is left to the garbage collector.
func (c *Client) abandon(xid uint32, ch chan callReply) {
	c.mu.Lock()
	_, ok := c.pending[xid]
	if ok {
		delete(c.pending, xid)
	}
	c.mu.Unlock()
	if ok {
		replyChans.Put(ch)
	}
}

// send writes one marshalled call (record mark included on TCP) with a
// single socket write under the write lock, then recycles bp. A caller
// waiting for the lock gives up when expired fires, and one that gets
// the lock after expired has fired skips the write: a call abandoned
// at its deadline never reaches the wire, and a backlog of writes ahead
// of it delays it by at most its own deadline (a nil expired waits as
// long as it takes). A write deadline of the SetTimeout value keeps a
// stalled TCP peer (accepting but never reading, send buffer full) from
// wedging the writer: the blocked write errors out and fails the
// transport. On TCP any send error kills the transport (the stream is
// dead); on UDP it fails only this call — a connected UDP socket's
// write error (ECONNREFUSED from a momentarily gone server) is
// transient and later calls may succeed. A send on a dead client
// returns the client's terminal error (ErrClientClosed after Close),
// not the socket's.
func (c *Client) send(bp *[]byte, expired <-chan time.Time) error {
	select {
	case c.wslot <- struct{}{}:
	case <-expired:
		putBuf(bp)
		return errCallTimeout
	}
	// The select above picks at random when both cases are ready.
	select {
	case <-expired:
		<-c.wslot
		putBuf(bp)
		return errCallTimeout
	default:
	}
	var err error
	if d := time.Duration(c.timeout.Load()); d > 0 {
		err = c.conn.SetWriteDeadline(time.Now().Add(d))
		c.deadlineArmed = true
	} else if c.deadlineArmed {
		err = c.conn.SetWriteDeadline(time.Time{})
		c.deadlineArmed = false
	}
	if err == nil {
		_, err = c.conn.Write(*bp)
	}
	<-c.wslot
	putBuf(bp)
	if err == nil {
		return nil
	}
	err = fmt.Errorf("%w: %w", ErrSendFailed, err)
	if c.network == "tcp" {
		c.fail(err)
	}
	if dead := c.failed(); dead != nil {
		return dead
	}
	return err
}

// reader demultiplexes replies to pending calls by XID. Garbage and
// replies to abandoned calls are dropped, like a real client facing
// stale datagrams. TCP read errors are terminal. A UDP read error
// (ICMP port-unreachable surfacing as ECONNREFUSED) names no XID, so
// it fails no one: punishing every in-flight call would drop replies
// already queued in the socket buffer, and any call whose datagram
// really was lost is bounded by its own deadline.
func (c *Client) reader() {
	// One pooled arena buffer serves the reader's whole life: datagrams
	// land in it directly, TCP records are appended into it (growing it
	// at most once to the peak record size). UnmarshalReply copies the
	// body out — the client's one payload copy — before the next read
	// overwrites the buffer.
	bp := getBuf()
	defer putBuf(bp)
	var rd *bufio.Reader
	if c.network == "tcp" {
		rd = newRecordReader(c.conn)
	}
	for {
		var raw []byte
		var err error
		if rd != nil {
			raw, err = sunrpc.ReadRecordInto(rd, *bp)
			if raw != nil {
				*bp = raw
			}
		} else {
			buf := (*bp)[:cap(*bp)]
			var n int
			n, err = c.conn.Read(buf)
			raw = buf[:n]
		}
		if err != nil {
			if c.network == "tcp" || c.failed() != nil {
				c.fail(fmt.Errorf("rpcnet: recv: %w", err))
				return
			}
			// A connected-UDP read error normally just drains a queued
			// ICMP error and the next read blocks; the pause guards
			// against hot-spinning on a socket that errors persistently.
			time.Sleep(time.Millisecond)
			continue
		}
		c.deliver(raw)
	}
}

// deliver decodes one reply message and hands it to the pending call it
// answers. Garbage and replies to abandoned calls are dropped.
func (c *Client) deliver(raw []byte) {
	reply, err := sunrpc.UnmarshalReply(raw)
	if err != nil {
		return
	}
	c.mu.Lock()
	ch, ok := c.pending[reply.XID]
	if ok {
		delete(c.pending, reply.XID)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	if reply.Stat != sunrpc.AcceptSuccess {
		ch <- callReply{err: fmt.Errorf("%w: accept status %d", ErrRPC, reply.Stat)}
		return
	}
	ch <- callReply{body: reply.Body}
}

// ErrRPC is returned for non-success accept statuses.
var ErrRPC = errors.New("rpcnet: rpc error")

// authUnixCred is the constant credential every call carries, built
// once so marshalling a call allocates nothing.
var authUnixCred = sunrpc.AuthUnixCred("nfstricks", 0, 0)

// callTimers recycles the deadline timers Call arms per invocation —
// building a context.WithTimeout per call costs several allocations on
// a path that otherwise makes none.
var callTimers = sync.Pool{
	New: func() any {
		t := time.NewTimer(time.Hour)
		t.Stop()
		return t
	},
}

func acquireTimer(d time.Duration) *time.Timer {
	t := callTimers.Get().(*time.Timer)
	t.Reset(d)
	return t
}

func releaseTimer(t *time.Timer) {
	// A failed Stop means the timer fired (or is firing): under Go 1.22
	// timer semantics a tick may still be in flight to t.C, and a
	// non-blocking drain cannot rule that out. Pooling such a timer
	// would hand the stale tick to a later call, expiring it instantly —
	// so only cleanly stopped timers are recycled; fired ones (the rare
	// timeout and timeout-adjacent paths) go to the garbage collector.
	if t.Stop() {
		callTimers.Put(t)
	}
}

// Call performs one RPC and returns the reply body, waiting at most the
// SetTimeout deadline (forever when the timeout is zero). Calls from
// multiple goroutines are pipelined.
func (c *Client) Call(proc uint32, args []byte) ([]byte, error) {
	var expired <-chan time.Time
	if d := time.Duration(c.timeout.Load()); d > 0 {
		t := acquireTimer(d)
		defer releaseTimer(t)
		expired = t.C
	}
	xid, ch, err := c.start(proc, args, expired)
	if err != nil {
		return nil, err
	}
	return c.await(xid, ch, expired)
}

// marshalCall assigns an XID and marshals record mark (TCP), RPC
// header and arguments in one shot into a pooled buffer, recycled by
// send after the socket write.
func (c *Client) marshalCall(proc uint32, args []byte) (uint32, *[]byte) {
	xid := c.xid.Add(1)
	return xid, c.marshalCallXID(xid, proc, args)
}

// marshalCallXID marshals a call under a caller-chosen XID. The retry
// layer re-marshals each retransmission under the original XID (send
// recycles its buffer, so the bytes must be rebuilt) — same XID on the
// wire is what lets the server's duplicate request cache recognize the
// retry.
func (c *Client) marshalCallXID(xid uint32, proc uint32, args []byte) *[]byte {
	call := sunrpc.Call{
		XID: xid, Prog: c.prog, Vers: c.vers, Proc: proc,
		Cred: authUnixCred,
		Verf: sunrpc.AuthNoneCred(),
		Body: args,
	}
	bp := getBuf()
	buf := *bp
	if c.network == "tcp" {
		buf = sunrpc.BeginRecord(buf)
	}
	buf = call.AppendTo(buf)
	if c.network == "tcp" {
		sunrpc.FinishRecord(buf, 0)
	}
	*bp = buf
	return bp
}

// start issues one call: marshal, register the reply channel, write the
// request (unless expired fires first; see send). On error nothing
// stays registered.
func (c *Client) start(proc uint32, args []byte, expired <-chan time.Time) (uint32, chan callReply, error) {
	xid, bp := c.marshalCall(proc, args)
	ch, err := c.register(xid)
	if err != nil {
		putBuf(bp)
		return 0, nil, err
	}
	if err := c.send(bp, expired); err != nil {
		c.abandon(xid, ch)
		return 0, nil, err
	}
	return xid, ch, nil
}

// await waits for xid's reply on ch. The call is abandoned when expired
// fires (a nil channel never selects).
func (c *Client) await(xid uint32, ch chan callReply, expired <-chan time.Time) ([]byte, error) {
	select {
	case r := <-ch:
		// The single possible send has been received, so the channel is
		// empty and unreferenced: recycle it.
		replyChans.Put(ch)
		return r.body, r.err
	case <-expired:
		c.abandon(xid, ch)
		return nil, errCallTimeout
	}
}

// errCallTimeout is the error of a call abandoned at its deadline.
var errCallTimeout = fmt.Errorf("%w: %w", ErrReplyTimeout, context.DeadlineExceeded)

// Pending is an in-flight asynchronous call started by Go. Exactly one
// Wait must be made on each Pending.
type Pending struct {
	c   *Client
	xid uint32
	ch  chan callReply
	err error // immediate failure (transport already dead), or Wait consumed
}

// Go starts an RPC and returns without waiting for the reply, which a
// later Wait collects. Unlike spawning Call in a goroutine, Go writes
// the request before returning: calls made by one goroutine through Go
// reach the socket in program order, which is what lets an open-loop
// trace replay fire a stream's requests on schedule while preserving
// the stream's send order. Go blocks for the socket write (behind any
// concurrent caller's write), never for a reply.
func (c *Client) Go(proc uint32, args []byte) *Pending {
	xid, ch, err := c.start(proc, args, nil)
	return &Pending{c: c, xid: xid, ch: ch, err: err}
}

// errWaited poisons a Pending whose single Wait already ran.
var errWaited = errors.New("rpcnet: reply already consumed")

// Wait blocks for the reply body, at most d when d > 0 (forever
// otherwise). On timeout the call is abandoned and its late reply
// dropped, exactly like an expired Call.
func (p *Pending) Wait(d time.Duration) ([]byte, error) {
	if p.ch == nil {
		return nil, p.err
	}
	ch := p.ch
	p.ch, p.err = nil, errWaited
	var expired <-chan time.Time
	if d > 0 {
		t := acquireTimer(d)
		defer releaseTimer(t)
		expired = t.C
	}
	return p.c.await(p.xid, ch, expired)
}
