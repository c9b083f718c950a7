package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/replay"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/xdr"
)

const (
	// poolSize is the connection count per shard. Streams share these
	// round-robin — amplified replay must not dial per tenant or it
	// exhausts ephemeral ports.
	poolSize = 4
	// callTimeout bounds each call and map fetch.
	callTimeout = 10 * time.Second
	// maxRedirects bounds wrong-shard retries per call — a map changing
	// faster than a client can chase it should fail loudly, not loop.
	maxRedirects = 8
)

// ErrRedirectLoop marks a call still redirected after maxRedirects
// map refreshes.
var ErrRedirectLoop = errors.New("cluster: redirected past retry budget")

// ClientStats counts the coordination work a client performed — the
// overhead side of the cluster-scale ledger.
type ClientStats struct {
	Redirects    int64  // wrong-shard replies received
	MapRefreshes int64  // control-plane map fetches triggered
	Dials        int64  // shard connections opened
	MapVersion   uint64 // currently held map version
}

// shardPool is one shard's shared connections.
type shardPool struct {
	conns []*rpcnet.Client
	next  atomic.Uint32
}

// Client routes NFS calls to the owning shard by consistent hash on
// the file handle. It holds a versioned map from the control plane and
// a bounded connection pool per shard; on a wrong-shard redirect it
// refreshes the map (single-flight), re-routes, and re-issues —
// callers never see the redirect, only the final reply.
type Client struct {
	network string
	ctrl    *rpcnet.Client
	cur     atomic.Pointer[Map]

	mu    sync.Mutex // pools growth + refresh single-flight
	pools map[uint32]*shardPool

	redirects atomic.Int64
	refreshes atomic.Int64
	dials     atomic.Int64

	allocMu   sync.Mutex
	allocNext uint64
	allocEnd  uint64
}

// DialClient connects to a cluster via its control plane.
func DialClient(network, ctrlAddr string) (*Client, error) {
	ctrl, err := rpcnet.Dial(network, ctrlAddr, CtrlProgram, CtrlVersion)
	if err != nil {
		return nil, err
	}
	ctrl.SetTimeout(callTimeout)
	m, err := fetchMap(ctrl, 0)
	if err != nil {
		ctrl.Close()
		return nil, err
	}
	c := &Client{
		network: network,
		ctrl:    ctrl,
		pools:   make(map[uint32]*shardPool),
	}
	c.cur.Store(m)
	return c, nil
}

// MapVersion is the version of the map the client currently routes by.
func (c *Client) MapVersion() uint64 { return c.cur.Load().Version }

// Stats returns the client's coordination counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Redirects:    c.redirects.Load(),
		MapRefreshes: c.refreshes.Load(),
		Dials:        c.dials.Load(),
		MapVersion:   c.MapVersion(),
	}
}

// conn returns a pooled connection to the shard owning fh, plus the
// map consulted (for error messages).
func (c *Client) conn(fh nfsproto.FH) (*rpcnet.Client, error) {
	m := c.cur.Load()
	owner, ok := m.Owner(uint64(fh))
	if !ok {
		return nil, fmt.Errorf("cluster: empty map v%d", m.Version)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pools[owner.ID]
	if p == nil {
		p = &shardPool{}
		c.pools[owner.ID] = p
	}
	if len(p.conns) < poolSize {
		cl, err := rpcnet.Dial(c.network, owner.Addr, nfsproto.Program, nfsproto.Version3)
		if err != nil {
			// rpcnet typed the exhaustion case (ErrConnExhausted);
			// surface it as-is so amplified callers can diagnose.
			return nil, err
		}
		cl.SetTimeout(callTimeout)
		c.dials.Add(1)
		p.conns = append(p.conns, cl)
		return cl, nil
	}
	return p.conns[p.next.Add(1)%uint32(len(p.conns))], nil
}

// ensureVersion refreshes the map if the held version is older than
// min. Concurrent callers collapse to one fetch.
func (c *Client) ensureVersion(min uint64) error {
	if c.cur.Load().Version >= min {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur.Load().Version >= min {
		return nil
	}
	m, err := fetchMap(c.ctrl, c.cur.Load().Version)
	if err != nil {
		return err
	}
	c.refreshes.Add(1)
	if m.Version > c.cur.Load().Version {
		c.cur.Store(m)
	}
	return nil
}

// Pending is one routed in-flight call; Wait resolves redirects before
// returning, so the body a caller sees is always from the owning
// shard.
type Pending struct {
	c    *Client
	proc uint32
	fh   nfsproto.FH
	args []byte
	p    *rpcnet.Pending
	err  error
}

// Go issues proc with args, routed by fh.
func (c *Client) Go(proc uint32, fh nfsproto.FH, args []byte) *Pending {
	p := &Pending{c: c, proc: proc, fh: fh, args: args}
	cl, err := c.conn(fh)
	if err != nil {
		p.err = err
		return p
	}
	p.p = cl.Go(proc, args)
	return p
}

// Wait blocks for the reply, chasing wrong-shard redirects: refresh
// the map to at least the redirect's version, re-route, re-issue.
func (p *Pending) Wait(d time.Duration) ([]byte, error) {
	if p.err != nil {
		return nil, p.err
	}
	for attempt := 0; ; attempt++ {
		body, err := p.p.Wait(d)
		if err != nil {
			return nil, err
		}
		version, redirected := parseRedirect(body)
		if !redirected {
			return body, nil
		}
		p.c.redirects.Add(1)
		if attempt >= maxRedirects {
			return nil, fmt.Errorf("%w: proc %d fh %d", ErrRedirectLoop, p.proc, p.fh)
		}
		if err := p.c.ensureVersion(version); err != nil {
			return nil, err
		}
		cl, err := p.c.conn(p.fh)
		if err != nil {
			return nil, err
		}
		p.p = cl.Go(p.proc, p.args)
	}
}

// Call is Go + Wait.
func (c *Client) Call(proc uint32, fh nfsproto.FH, args []byte) ([]byte, error) {
	return c.Go(proc, fh, args).Wait(callTimeout)
}

// AllocFH returns one cluster-allocated handle, drawing batches from
// the control plane so placement-heavy callers don't serialize on RPC.
func (c *Client) AllocFH() (nfsproto.FH, error) {
	c.allocMu.Lock()
	defer c.allocMu.Unlock()
	if c.allocNext >= c.allocEnd {
		const batch = 256
		body, err := c.ctrl.Call(CtrlAllocFH, xdr.AppendUint32(nil, batch))
		if err != nil {
			return 0, err
		}
		d := xdr.NewDecoder(body)
		if st := d.Uint32(); d.Err() != nil || st != ctrlOK {
			return 0, fmt.Errorf("cluster: allocfh status %d (%v)", st, d.Err())
		}
		first := d.Uint64()
		if err := d.Err(); err != nil {
			return 0, err
		}
		c.allocNext, c.allocEnd = first, first+batch
	}
	fh := nfsproto.FH(c.allocNext)
	c.allocNext++
	return fh, nil
}

// Create places a zero-filled file of the given size in the cluster,
// at a freshly allocated handle, and returns the handle. The ring
// decides which shard stores it; redirects are chased like any call.
func (c *Client) Create(name string, size uint64) (nfsproto.FH, error) {
	fh, err := c.AllocFH()
	if err != nil {
		return 0, err
	}
	args := (&clusterCreateArgs{FH: fh, Name: name, Size: size}).Marshal()
	body, err := c.Call(ProcClusterCreate, fh, args)
	if err != nil {
		return 0, err
	}
	if len(body) < 4 {
		return 0, fmt.Errorf("cluster: short create reply")
	}
	if st := binary.BigEndian.Uint32(body); st != nfsproto.OK {
		return 0, fmt.Errorf("cluster: create %q: nfs status %d", name, st)
	}
	return fh, nil
}

// Drain asks the control plane to drain a shard; it returns the new
// map version.
func (c *Client) Drain(id uint32) (uint64, error) {
	body, err := c.ctrl.Call(CtrlDrain, xdr.AppendUint32(nil, id))
	if err != nil {
		return 0, err
	}
	d := xdr.NewDecoder(body)
	if st := d.Uint32(); d.Err() != nil || st != ctrlOK {
		return 0, fmt.Errorf("cluster: drain status %d (%v)", st, d.Err())
	}
	v := d.Uint64()
	return v, d.Err()
}

// AddShard asks the control plane to grow the cluster; it returns the
// new shard and map version.
func (c *Client) AddShard() (ShardInfo, uint64, error) {
	body, err := c.ctrl.Call(CtrlAddShard, nil)
	if err != nil {
		return ShardInfo{}, 0, err
	}
	d := xdr.NewDecoder(body)
	if st := d.Uint32(); d.Err() != nil || st != ctrlOK {
		return ShardInfo{}, 0, fmt.Errorf("cluster: addshard status %d (%v)", st, d.Err())
	}
	info := ShardInfo{ID: d.Uint32(), Addr: d.String(256)}
	v := d.Uint64()
	return info, v, d.Err()
}

// transport adapts the client to replay.Transport: one shared routed
// client serves every replay stream, which is the connection-churn fix
// — per-shard pools instead of a dial per tenant×stream.
type transport struct{ c *Client }

// ReplayDial is a replay.Options.Dial: every stream shares this
// client.
func (c *Client) ReplayDial(stream uint32) (replay.Transport, error) {
	return transport{c}, nil
}

func (t transport) Go(proc uint32, fh nfsproto.FH, args []byte) replay.Pending {
	return t.c.Go(proc, fh, args)
}

// Close here is a no-op: the transport is a view of the shared client,
// whose lifetime the caller owns.
func (t transport) Close() error { return nil }

// Close closes every pooled connection and the control-plane link.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, p := range c.pools {
		for _, cl := range p.conns {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if err := c.ctrl.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
