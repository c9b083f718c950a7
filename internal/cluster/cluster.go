package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsd"
	"nfstricks/internal/nfsheur"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
	"nfstricks/internal/readahead"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/vfs"
)

// Config sizes an in-process cluster.
type Config struct {
	// Shards is the initial shard count (default 1).
	Shards int
	// Addr is the bind address for each shard's NFS server (default
	// "127.0.0.1:0" — a fresh port per shard).
	Addr string
	// CtrlAddr is the control plane's bind address (default
	// "127.0.0.1:0").
	CtrlAddr string
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.CtrlAddr == "" {
		c.CtrlAddr = "127.0.0.1:0"
	}
}

// tableShards is the nfsheur stripe count inside each shard process.
// One is deliberate: one lock per process is the serialization the
// cluster exists to stripe — each added shard adds a whole process
// worth of lock, heap, and socket capacity, which is the nfsheur
// striping pattern lifted one level up.
const tableShards = 1

// shard is one nfsd instance plus its cluster guard.
type shard struct {
	info    ShardInfo
	fs      *memfs.FS
	svc     *nfsd.Service
	guard   *guard
	srv     *rpcnet.Server
	reg     *obs.Registry
	drained bool

	migratedIn  *obs.Counter
	migratedOut *obs.Counter
}

// Cluster is an in-process shard group: N guarded nfsd instances, each
// with its own store, heuristics table, registry and listening
// sockets, plus the control plane. Membership changes (AddShard,
// Drain) rebalance with minimal key movement: only handles whose ring
// owner changes are copied, under a migration hold that keeps their
// bytes identical on both owners until the new map is published (see
// rebalance).
type Cluster struct {
	cfg   Config
	cp    *ControlPlane
	cpReg *obs.Registry

	mu     sync.Mutex // serializes membership changes
	shards map[uint32]*shard
	nextID uint32

	// hook is a test seam run at each rebalance phase boundary; nil
	// outside tests.
	hook func(phase)
}

// phase names a rebalance boundary, in the order rebalance crosses
// them.
type phase int

const (
	phaseInstalled phase = iota // migration held on every member
	phaseCopied                 // every moving file shipped to its new owner
	phaseFlipped                // next map on the control plane and every guard
	phaseReleased               // migration cleared, held mutations re-routed
	phasePruned                 // moved files dropped from their old owners
)

func (c *Cluster) reached(p phase) {
	if c.hook != nil {
		c.hook(p)
	}
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	cfg.fill()
	c := &Cluster{cfg: cfg, shards: make(map[uint32]*shard)}
	empty := NewMap(0, nil)
	var members []ShardInfo
	for i := 0; i < cfg.Shards; i++ {
		s, err := c.newShard(empty)
		if err != nil {
			c.Close()
			return nil, err
		}
		members = append(members, s.info)
	}
	initial := NewMap(1, members)
	c.cpReg = obs.NewRegistry()
	// c.cp must be set before serve: the membership callbacks reach back
	// through it, and a client may connect the moment the listener is up.
	c.cp = newControlPlane(initial, c.cpReg, c.Drain, c.AddShard)
	c.flip(initial)
	if err := c.cp.serve(cfg.CtrlAddr); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// newShard starts one guarded nfsd instance (caller holds c.mu or is
// still single-threaded in New).
func (c *Cluster) newShard(view *Map) (*shard, error) {
	id := c.nextID
	c.nextID++
	reg := obs.NewRegistry()
	fs := memfs.NewFS()
	tp := nfsheur.ScaledParams()
	tp.Shards = tableShards
	svc := nfsd.New(fs, nfsd.Config{
		Heuristic: readahead.SlowDown{},
		Table:     nfsheur.New(tp),
		Obs:       reg,
	})
	g := newGuard(id, view, svc.InfoHandler(), fs, reg)
	srv, err := rpcnet.NewServerInfo(c.cfg.Addr, nfsproto.Program, nfsproto.Version3,
		g.handler, rpcnet.ServerOptions{Spans: svc.SpanTable()})
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &shard{
		info:        ShardInfo{ID: id, Addr: srv.Addr()},
		fs:          fs,
		svc:         svc,
		guard:       g,
		srv:         srv,
		reg:         reg,
		migratedIn:  reg.Counter("cluster_migrated_in_total"),
		migratedOut: reg.Counter("cluster_migrated_out_total"),
	}
	c.shards[id] = s
	return s, nil
}

// CtrlAddr is the control plane's address — what clients dial.
func (c *Cluster) CtrlAddr() string { return c.cp.Addr() }

// Map returns the current shard map.
func (c *Cluster) Map() *Map { return c.cp.Current() }

// AddShard brings up a fresh shard, rebalances ~1/(N+1) of the key
// space onto it, and returns its entry and the new map version.
func (c *Cluster) AddShard() (ShardInfo, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.cp.Current()
	s, err := c.newShard(cur)
	if err != nil {
		return ShardInfo{}, 0, err
	}
	next := NewMap(cur.Version+1, append(append([]ShardInfo(nil), cur.Shards...), s.info))
	if err := c.rebalance(cur, next); err != nil {
		return ShardInfo{}, 0, err
	}
	return s.info, next.Version, nil
}

// Drain moves shard id's keys to the remaining members and removes it
// from the map. The drained instance keeps serving — every request it
// sees from then on is answered with a redirect to the new map, which
// is what lets clients holding the old map catch up without a single
// failed operation.
func (c *Cluster) Drain(id uint32) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.shards[id]
	if !ok || s.drained {
		return 0, fmt.Errorf("cluster: no active shard %d", id)
	}
	cur := c.cp.Current()
	var rest []ShardInfo
	for _, m := range cur.Shards {
		if m.ID != id {
			rest = append(rest, m)
		}
	}
	if len(rest) == 0 {
		return 0, fmt.Errorf("cluster: cannot drain the last shard")
	}
	next := NewMap(cur.Version+1, rest)
	if err := c.rebalance(cur, next); err != nil {
		return 0, err
	}
	s.drained = true
	return next.Version, nil
}

// active returns the non-drained shards (caller holds c.mu).
func (c *Cluster) active() []*shard {
	var out []*shard
	for _, s := range c.shards {
		if !s.drained {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].info.ID < out[j].info.ID })
	return out
}

// rebalance migrates from the cur map to the next (caller holds c.mu):
//
//  1. install the migration on every member: from then on, a mutation
//     to a handle whose owner changes waits (see guard.handler), and
//     the install returns only once mutations admitted earlier have
//     replied;
//  2. copy every file whose owner changes to its new owner, while the
//     old map keeps serving reads;
//  3. flip: publish next on the control plane and every guard at once;
//  4. release: clear the migration and wake the held mutations, which
//     redirect or run on the new owner;
//  5. prune files from shards that no longer own them.
//
// A moving file cannot change between its copy and the flip, so its old
// and new owner hold the same bytes for that whole window: a reader on
// either map sees the last acked write, and no write is lost.
func (c *Cluster) rebalance(cur, next *Map) error {
	members := c.active()
	mig := &migration{from: cur, to: next, done: make(chan struct{})}
	for _, s := range members {
		s.guard.setMigration(mig)
	}
	// Clear before closing done, so a woken mutation never finds the
	// finished migration still installed.
	release := func() {
		for _, s := range members {
			s.guard.setMigration(nil)
		}
		close(mig.done)
	}
	c.reached(phaseInstalled)
	if err := c.copyPass(members, next); err != nil {
		release()
		return err
	}
	c.reached(phaseCopied)

	c.flip(next)
	c.reached(phaseFlipped)
	release()
	c.reached(phaseReleased)

	for _, s := range members {
		page, err := s.fs.Readdir(vfs.RootFH, 0, 0, 0)
		if err != nil {
			return err
		}
		for _, e := range page.Entries {
			if e.Attr.Dir {
				continue
			}
			if owner, ok := next.OwnerID(uint64(e.FH)); ok && owner != s.info.ID {
				if _, err := s.fs.Remove(vfs.RootFH, e.Name); err != nil {
					return err
				}
			}
		}
	}
	c.reached(phasePruned)
	return nil
}

// flip publishes next on the control plane and every guard at once. It
// holds every guard's lock before changing anything, so no request runs
// while a guard and the control plane disagree: a client that fetched
// next is never redirected back by a guard still serving cur.
func (c *Cluster) flip(next *Map) {
	for _, s := range c.shards {
		s.guard.mu.Lock()
	}
	c.cp.cur.Store(next)
	for _, s := range c.shards {
		s.guard.view = next
		s.guard.mu.Unlock()
	}
}

// copyPass ships every file on the given shards whose next-map owner
// differs.
func (c *Cluster) copyPass(from []*shard, next *Map) error {
	for _, s := range from {
		page, err := s.fs.Readdir(vfs.RootFH, 0, 0, 0)
		if err != nil {
			return err
		}
		for _, e := range page.Entries {
			if e.Attr.Dir {
				continue
			}
			owner, ok := next.OwnerID(uint64(e.FH))
			if !ok || owner == s.info.ID {
				continue
			}
			dst, ok := c.shards[owner]
			if !ok {
				return fmt.Errorf("cluster: map names unknown shard %d", owner)
			}
			if err := migrate(s, dst, e); err != nil {
				return err
			}
		}
	}
	return nil
}

// migrate copies one file between stores at the same handle. The bytes
// are cloned rather than shared: the source object is about to be
// pruned and the two stores must not alias COW segments.
func migrate(src, dst *shard, e vfs.DirEntry) error {
	data, _, err := src.fs.Read(e.FH, 0, uint32(e.Attr.Size))
	if err != nil {
		return err
	}
	if err := dst.fs.CreateAt(vfs.RootFH, e.Name, e.FH, append([]byte(nil), data...)); err != nil {
		return err
	}
	src.migratedOut.Add(1)
	dst.migratedIn.Add(1)
	return nil
}

// MergedSnapshot merges every shard's registry (and the control
// plane's, labeled "cp") into one snapshot with a `shard` label — the
// single view the bench report and an admin endpoint export.
func (c *Cluster) MergedSnapshot() obs.Snapshot {
	c.mu.Lock()
	ids := make([]uint32, 0, len(c.shards))
	for id := range c.shards {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]obs.LabeledSnapshot, 0, len(ids)+1)
	for _, id := range ids {
		parts = append(parts, obs.LabeledSnapshot{
			Value: strconv.FormatUint(uint64(id), 10),
			Snap:  c.shards[id].reg.Dump(),
		})
	}
	c.mu.Unlock()
	parts = append(parts, obs.LabeledSnapshot{Value: "cp", Snap: c.cpReg.Dump()})
	return obs.MergeLabeled("shard", parts)
}

// ShardStat is one shard's contribution to a merged report.
type ShardStat struct {
	ID        uint32
	Drained   bool
	Executed  int64
	Redirects int64
}

// Stats summarizes per-shard load — how evenly the ring spread the
// work, and how much of it was redirect coordination.
func (c *Cluster) Stats() []ShardStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ShardStat
	for _, s := range c.active() {
		out = append(out, c.statLocked(s))
	}
	for _, s := range c.shards {
		if s.drained {
			out = append(out, c.statLocked(s))
		}
	}
	return out
}

func (c *Cluster) statLocked(s *shard) ShardStat {
	snap := s.reg.Dump()
	st := ShardStat{ID: s.info.ID, Drained: s.drained}
	for name, v := range snap.Counters {
		base, _ := splitName(name)
		switch base {
		case "nfsd_executed_total":
			st.Executed += v
		case "cluster_redirects_total":
			st.Redirects += v
		}
	}
	return st
}

// splitName strips a label block off a metric name.
func splitName(name string) (base, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i], name[i:]
		}
	}
	return name, ""
}

// Close shuts down every shard (including drained ones) and the
// control plane.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	if c.cp != nil {
		if err := c.cp.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range c.shards {
		if err := s.srv.Close(); err != nil && first == nil {
			first = err
		}
		if err := s.svc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
