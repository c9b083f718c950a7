// Package nfsclient implements the simulated NFS client: a block cache,
// a client-side sequentiality heuristic that drives read-ahead, and a
// pool of nfsiod processes that issue those read-aheads. Each nfsiod
// burns a jittered slice of (possibly contended) client CPU marshalling
// before it transmits, so requests that were generated in order can
// reach the wire out of order — the reordering mechanism the paper
// traces to "queuing issues in the client nfsiod daemon" (§6). A TCP
// mount serializes sends through a connection send-lock (FreeBSD's
// nfs_sndlock), which is why the paper measures far less reordering
// over TCP than over UDP.
package nfsclient

import (
	"container/list"
	"fmt"
	"time"

	"nfstricks/internal/netsim"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/nfsserver"
	"nfstricks/internal/readahead"
	"nfstricks/internal/sim"
)

// BlockSize is the NFS read granularity (8 KB, matching the server FS).
const BlockSize = 8192

// Config tunes a mount.
type Config struct {
	// NumNFSIOD is the nfsiod pool size. The paper runs eight.
	NumNFSIOD int
	// ReadAhead is the client read-ahead window ceiling in blocks.
	ReadAhead int
	// MarshalCPU is the mean client CPU cost to build and send one RPC.
	MarshalCPU time.Duration
	// MarshalJitter is the maximum uniform extra CPU added to a
	// marshal; this is the reordering knob.
	MarshalJitter time.Duration
	// PreemptJitter is additional maximum jitter per background process
	// on the client CPU: a loaded client preempts nfsiods mid-marshal,
	// which is why "the frequency of packet reordering increases in
	// tandem with the number of active processes on the client" (§6.1).
	PreemptJitter time.Duration
	// SocketCPU is the serialized cost of the socket enqueue step; it
	// staggers concurrent marshals so most bursts stay in order.
	SocketCPU time.Duration
	// RecvCPU is the client CPU cost to receive one reply.
	RecvCPU time.Duration
	// PerBlockCPU is the client CPU spent per block delivered to the
	// application (copyout, syscall return). With background load this
	// is where the busy client loses throughput.
	PerBlockCPU time.Duration
	// PerSegCPU is the additional CPU per TCP segment.
	PerSegCPU time.Duration
	// UseTCP selects the transport ("The RPC transport protocol used by
	// each file system mounted via NFS is chosen when the file system
	// is mounted", §5.4).
	UseTCP bool
	// RetransTimeout is the UDP retransmission timeout.
	RetransTimeout time.Duration
	// CacheBlocks sizes the client block cache (1 GB RAM worth by
	// default, like the paper's clients).
	CacheBlocks int
}

func (c *Config) fill() {
	if c.NumNFSIOD == 0 {
		c.NumNFSIOD = 8
	}
	if c.ReadAhead == 0 {
		c.ReadAhead = 8
	}
	if c.MarshalCPU == 0 {
		c.MarshalCPU = 50 * time.Microsecond
	}
	if c.MarshalJitter == 0 {
		c.MarshalJitter = 16 * time.Microsecond
	}
	if c.PreemptJitter == 0 {
		c.PreemptJitter = 2 * time.Microsecond
	}
	if c.PerBlockCPU == 0 {
		c.PerBlockCPU = 60 * time.Microsecond
	}
	if c.SocketCPU == 0 {
		c.SocketCPU = 10 * time.Microsecond
	}
	if c.RecvCPU == 0 {
		c.RecvCPU = 40 * time.Microsecond
	}
	if c.PerSegCPU == 0 {
		c.PerSegCPU = 25 * time.Microsecond
	}
	if c.RetransTimeout == 0 {
		c.RetransTimeout = 900 * time.Millisecond
	}
	if c.CacheBlocks == 0 {
		c.CacheBlocks = 131072 // 1 GB of 8 KB blocks
	}
}

// Stats aggregates client counters.
type Stats struct {
	Calls      int64
	Retrans    int64
	CacheHits  int64
	CacheWaits int64 // demand reads that joined an in-flight fetch
	DemandRPCs int64
	ReadAheads int64
}

type pendingCall struct {
	done    *sim.Event
	res     nfsserver.Message
	msg     netsim.Message
	retries int
}

type blockKey struct {
	fh    nfsproto.FH
	block int64
}

type iodJob struct {
	fh    nfsproto.FH
	block int64
	count uint32
}

// Mount is one NFS mount: a transport to a server plus client state.
type Mount struct {
	k       *sim.Kernel
	cpu     *sim.CPU
	cfg     Config
	server  netsim.Addr
	host    *netsim.Host
	udp     *netsim.UDPSocket
	conn    *netsim.Conn
	sndlock *sim.Semaphore

	nextXID uint32
	pending map[uint32]*pendingCall
	iodq    *sim.Chan[iodJob]

	lru      *list.List
	resident map[blockKey]*list.Element
	inflight map[blockKey]*sim.Event

	stats Stats
}

// New creates a mount on host targeting server. port is the local UDP
// port to bind (distinct per mount). cpu is the client machine's CPU
// resource, shared with any background load.
func New(k *sim.Kernel, cpu *sim.CPU, host *netsim.Host, port int, server netsim.Addr, cfg Config) *Mount {
	cfg.fill()
	m := &Mount{
		k:        k,
		cpu:      cpu,
		cfg:      cfg,
		server:   server,
		host:     host,
		sndlock:  sim.NewSemaphore(k, 1),
		pending:  make(map[uint32]*pendingCall),
		iodq:     sim.NewChan[iodJob](k),
		lru:      list.New(),
		resident: make(map[blockKey]*list.Element),
		inflight: make(map[blockKey]*sim.Event),
	}
	if !cfg.UseTCP {
		m.udp = host.UDP(port)
	}
	return m
}

// Stats returns a copy of the counters.
func (m *Mount) Stats() Stats { return m.stats }

// Config returns the mount configuration in effect.
func (m *Mount) Config() Config { return m.cfg }

// CPU returns the client CPU resource.
func (m *Mount) CPU() *sim.CPU { return m.cpu }

// Flush drops the client block cache (between benchmark runs).
func (m *Mount) Flush() {
	m.lru.Init()
	m.resident = make(map[blockKey]*list.Element)
}

// Start connects (TCP) and spawns the reply demultiplexer and nfsiods.
func (m *Mount) Start() error {
	if m.cfg.UseTCP {
		conn, err := m.host.Dial(m.server)
		if err != nil {
			return fmt.Errorf("nfsclient: %w", err)
		}
		m.conn = conn
		m.k.Go("nfs-demux-tcp", func(p *sim.Proc) {
			for {
				msg := m.conn.Recv(p)
				m.cpu.Use(p, m.cfg.RecvCPU+time.Duration(segsFor(msg.Size))*m.cfg.PerSegCPU)
				m.complete(msg.Payload.(nfsserver.Reply))
			}
		})
	} else {
		m.k.Go("nfs-demux-udp", func(p *sim.Proc) {
			for {
				pkt := m.udp.Recv(p)
				m.cpu.Use(p, m.cfg.RecvCPU)
				m.complete(pkt.Msg.Payload.(nfsserver.Reply))
			}
		})
	}
	for i := 0; i < m.cfg.NumNFSIOD; i++ {
		m.k.Go(fmt.Sprintf("nfsiod%d", i), m.nfsiod)
	}
	return nil
}

func segsFor(size int) int {
	segs := (size + 4 + 1447) / 1448
	if segs < 1 {
		segs = 1
	}
	return segs
}

// complete routes a reply to its waiting caller. Unknown XIDs (replies
// to retransmitted calls that already completed) are dropped.
func (m *Mount) complete(r nfsserver.Reply) {
	pc, ok := m.pending[r.XID]
	if !ok {
		return
	}
	delete(m.pending, r.XID)
	pc.res = r.Res
	pc.done.Fire()
}

// call performs one RPC from process p and returns the result.
func (m *Mount) call(p *sim.Proc, proc uint32, args nfsserver.Message) nfsserver.Message {
	m.stats.Calls++
	m.nextXID++
	xid := m.nextXID
	msg := netsim.Message{
		Payload: nfsserver.Call{XID: xid, Proc: proc, Args: args},
		Size:    nfsserver.CallSize(args),
	}
	pc := &pendingCall{done: sim.NewEvent(m.k), msg: msg}
	m.pending[xid] = pc

	jitter := time.Duration(0)
	maxJitter := m.cfg.MarshalJitter +
		time.Duration(m.cpu.Background())*m.cfg.PreemptJitter
	if maxJitter > 0 {
		jitter = time.Duration(m.k.Rand().Int63n(int64(maxJitter)))
	}
	if m.cfg.UseTCP {
		// The connection send-lock (FreeBSD's nfs_sndlock) serializes
		// marshal+send: requests reach the stream in the order the lock
		// is granted (FIFO), so a TCP mount barely reorders.
		m.sndlock.Acquire(p)
		m.cpu.Use(p, m.cfg.SocketCPU+m.cfg.MarshalCPU+jitter+
			time.Duration(segsFor(msg.Size))*m.cfg.PerSegCPU)
		m.conn.Send(msg)
		m.sndlock.Release()
	} else {
		// UDP: a short serialized step (request dequeue + socket
		// bookkeeping) staggers concurrent senders, then the marshals
		// race on the shared CPU. A burst of read-aheads handed to
		// several nfsiods can therefore swap order when one marshal
		// runs long — the paper's reordering mechanism.
		m.sndlock.Acquire(p)
		m.cpu.Use(p, m.cfg.SocketCPU)
		m.sndlock.Release()
		m.cpu.Use(p, m.cfg.MarshalCPU+jitter)
		m.udp.SendTo(m.server, msg)
		m.scheduleRetrans(xid, m.cfg.RetransTimeout)
	}
	pc.done.Wait(p)
	return pc.res
}

// scheduleRetrans re-sends a still-pending UDP call after the timeout,
// with exponential backoff.
func (m *Mount) scheduleRetrans(xid uint32, timeout time.Duration) {
	m.k.Schedule(timeout, func() {
		pc, ok := m.pending[xid]
		if !ok {
			return
		}
		pc.retries++
		m.stats.Retrans++
		m.udp.SendTo(m.server, pc.msg)
		m.scheduleRetrans(xid, 2*timeout)
	})
}

// nfsiod services asynchronous read-ahead jobs.
func (m *Mount) nfsiod(p *sim.Proc) {
	for {
		job := m.iodq.Recv(p)
		res := m.call(p, nfsproto.ProcRead, &nfsproto.ReadArgs{
			FH: job.fh, Offset: uint64(job.block) * BlockSize, Count: job.count,
		})
		m.finishFetch(blockKey{job.fh, job.block}, res)
	}
}

// finishFetch installs a fetched block and wakes demand readers.
func (m *Mount) finishFetch(key blockKey, res nfsserver.Message) {
	if ev, ok := m.inflight[key]; ok {
		delete(m.inflight, key)
		ev.Fire()
	}
	if _, ok := res.(*nfsproto.ReadRes); ok {
		m.insert(key)
	}
}

// insert adds a block to the client cache with LRU eviction.
func (m *Mount) insert(key blockKey) {
	if el, ok := m.resident[key]; ok {
		m.lru.MoveToFront(el)
		return
	}
	m.resident[key] = m.lru.PushFront(key)
	for m.lru.Len() > m.cfg.CacheBlocks {
		tail := m.lru.Back()
		m.lru.Remove(tail)
		delete(m.resident, tail.Value.(blockKey))
	}
}

// RemoteFile is an open file on the mount, carrying the client-side
// sequentiality state that drives client read-ahead.
type RemoteFile struct {
	m     *Mount
	fh    nfsproto.FH
	size  int64
	state readahead.State
	h     readahead.Heuristic
}

// Open looks up name under the export root and returns a descriptor.
func (m *Mount) Open(p *sim.Proc, root nfsproto.FH, name string) (*RemoteFile, error) {
	res := m.call(p, nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: root, Name: name})
	lr, ok := res.(*nfsproto.LookupRes)
	if !ok || lr.Status != nfsproto.OK {
		return nil, fmt.Errorf("nfsclient: lookup %q failed", name)
	}
	rf := &RemoteFile{m: m, fh: lr.FH, h: readahead.Default{}}
	if lr.Attrs != nil {
		rf.size = int64(lr.Attrs.Size)
	}
	rf.state.Reset()
	return rf, nil
}

// FH returns the file's handle.
func (rf *RemoteFile) FH() nfsproto.FH { return rf.fh }

// Size returns the file size learned at open time.
func (rf *RemoteFile) Size() int64 { return rf.size }

// Read reads length bytes at off through the client cache, blocking p
// as needed, and schedules client read-ahead via the nfsiods. It
// returns the byte count (short at EOF).
func (rf *RemoteFile) Read(p *sim.Proc, off, length int64) int64 {
	if off >= rf.size {
		return 0
	}
	if off+length > rf.size {
		length = rf.size - off
	}
	m := rf.m
	seq := rf.h.Update(&rf.state, uint64(off), uint64(length))

	first := off / BlockSize
	last := (off + length - 1) / BlockSize
	m.cpu.Use(p, time.Duration(last-first+1)*m.cfg.PerBlockCPU)
	for b := first; b <= last; b++ {
		key := blockKey{rf.fh, b}
		if el, ok := m.resident[key]; ok {
			m.lru.MoveToFront(el)
			m.stats.CacheHits++
			continue
		}
		if ev, ok := m.inflight[key]; ok {
			m.stats.CacheWaits++
			ev.Wait(p)
			continue
		}
		// Demand fetch by the reading process itself.
		m.stats.DemandRPCs++
		m.inflight[key] = sim.NewEvent(m.k)
		res := m.call(p, nfsproto.ProcRead, &nfsproto.ReadArgs{
			FH: rf.fh, Offset: uint64(b) * BlockSize, Count: rf.countFor(b),
		})
		m.finishFetch(key, res)
	}

	// Client read-ahead: when the demand read approaches the prefetch
	// frontier, hand a whole window of fetches to the nfsiods at once.
	// The burst makes several nfsiods marshal concurrently, which is
	// exactly how requests come to be reordered on a UDP mount.
	window := int64(readahead.Window(seq, m.cfg.ReadAhead))
	if window > 0 {
		frontier := rf.h.Frontier(&rf.state)
		demandEnd := last + 1
		front := int64(*frontier)
		if front < demandEnd {
			front = demandEnd
		}
		if demandEnd+window/2 >= front {
			newFront := demandEnd + window
			if lastBlock := (rf.size-1)/BlockSize + 1; newFront > lastBlock {
				newFront = lastBlock
			}
			for b := front; b < newFront; b++ {
				key := blockKey{rf.fh, b}
				if _, ok := m.resident[key]; ok {
					continue
				}
				if _, ok := m.inflight[key]; ok {
					continue
				}
				m.inflight[key] = sim.NewEvent(m.k)
				m.stats.ReadAheads++
				m.iodq.Send(iodJob{fh: rf.fh, block: b, count: rf.countFor(b)})
			}
			if newFront > front {
				*frontier = uint64(newFront)
			}
		}
	}
	return length
}

// countFor returns the request size for block b (short at EOF).
func (rf *RemoteFile) countFor(b int64) uint32 {
	n := rf.size - b*BlockSize
	if n >= BlockSize {
		return BlockSize
	}
	return uint32(n)
}

// Write issues a WRITE for length bytes at off (FILE_SYNC) and reports
// success.
func (rf *RemoteFile) Write(p *sim.Proc, off, length int64) bool {
	res := rf.m.call(p, nfsproto.ProcWrite, &nfsproto.WriteArgs{
		FH: rf.fh, Offset: uint64(off), Count: uint32(length),
		Stable: nfsproto.WriteFileSync, DataLen: uint32(length),
	})
	wr, ok := res.(*nfsproto.WriteRes)
	if ok && wr.Status == nfsproto.OK && int64(wr.Count) >= length {
		if off+length > rf.size {
			rf.size = off + length
		}
		return true
	}
	return false
}

// GetAttr fetches attributes for fh.
func (m *Mount) GetAttr(p *sim.Proc, fh nfsproto.FH) (*nfsproto.Fattr, error) {
	res := m.call(p, nfsproto.ProcGetattr, &nfsproto.GetattrArgs{FH: fh})
	gr, ok := res.(*nfsproto.GetattrRes)
	if !ok || gr.Status != nfsproto.OK {
		return nil, fmt.Errorf("nfsclient: getattr failed")
	}
	return &gr.Attrs, nil
}

// Create makes a file of the given size under root.
func (m *Mount) Create(p *sim.Proc, root nfsproto.FH, name string, size int64) (*RemoteFile, error) {
	res := m.call(p, nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: root, Name: name, Size: uint64(size)})
	cr, ok := res.(*nfsproto.CreateRes)
	if !ok || cr.Status != nfsproto.OK {
		return nil, fmt.Errorf("nfsclient: create %q failed", name)
	}
	rf := &RemoteFile{m: m, fh: cr.FH, size: size, h: readahead.Default{}}
	rf.state.Reset()
	return rf, nil
}
