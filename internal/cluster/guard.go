package cluster

import (
	"errors"
	"sync"

	"nfstricks/internal/memfs"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/obs"
	"nfstricks/internal/rpcnet"
	"nfstricks/internal/sunrpc"
	"nfstricks/internal/vfs"
	"nfstricks/internal/xdr"
)

// guard fronts one shard's nfsd dispatch with the cluster's ownership
// check: requests whose leading handle hashes to another shard under
// the guard's current map view are answered with a wrong-shard
// redirect carrying that view's version — the client refreshes and
// re-routes; the server never proxies. The guard also serves
// ProcClusterCreate (placement at a cluster-allocated handle) and holds
// the one piece of rebalance state: the migration in progress, during
// which mutations to moving handles wait (see handler).
//
// Every request holds mu shared from its ownership check to its reply;
// a state change (setMigration, Cluster.flip) holds it exclusively, so
// it completes only after every request admitted under the old state
// has replied — that exclusive take is the rebalance's quiesce.
type guard struct {
	id    uint32
	inner rpcnet.InfoHandler
	fs    *memfs.FS

	mu   sync.RWMutex
	view *Map
	mig  *migration

	redirects *obs.Counter
	creates   *obs.Counter

	// hookBeforeExec is a test seam run just before a request executes
	// (admitted, shared lock held); nil outside tests.
	hookBeforeExec func(proc uint32)
}

// migration is one rebalance from map `from` to map `to`. While it is
// installed on a guard, mutations to handles whose owner differs
// between the two maps wait on done, so a moving file's bytes cannot
// change between its copy and the flip.
type migration struct {
	from, to *Map
	done     chan struct{}
}

// moving reports whether fh changes owner across the migration.
func (m *migration) moving(fh uint64) bool {
	a, _ := m.from.OwnerID(fh)
	b, _ := m.to.OwnerID(fh)
	return a != b
}

func newGuard(id uint32, initial *Map, inner rpcnet.InfoHandler, fs *memfs.FS, reg *obs.Registry) *guard {
	return &guard{
		id:        id,
		inner:     inner,
		fs:        fs,
		view:      initial,
		redirects: reg.Counter("cluster_redirects_total"),
		creates:   reg.Counter("cluster_creates_total"),
	}
}

// setMigration installs m (nil clears it), once every request admitted
// under the old state has replied.
func (g *guard) setMigration(m *migration) {
	g.mu.Lock()
	g.mig = m
	g.mu.Unlock()
}

// handler is the rpcnet.InfoHandler served by the shard.
func (g *guard) handler(info rpcnet.CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
	if proc == nfsproto.ProcNull {
		return g.inner(info, proc, body, reply)
	}
	fh, ok := peekFH(body)
	if !ok {
		// Unroutable garbage; let the NFS layer reject it.
		return g.inner(info, proc, body, reply)
	}
	for {
		g.mu.RLock()
		if owner, ok := g.view.OwnerID(uint64(fh)); ok && owner != g.id {
			version := g.view.Version
			g.mu.RUnlock()
			g.redirects.Add(1)
			info.Span.Mark(obs.StageExec)
			return appendRedirect(reply, version), sunrpc.AcceptSuccess
		}
		mig := g.mig
		if mig == nil || !mutates(proc) || !mig.moving(uint64(fh)) {
			break
		}
		// A moving file must hold the same bytes on both owners until
		// the flip: wait out the migration, then redirect or run on
		// whichever shard owns the handle by then.
		g.mu.RUnlock()
		<-mig.done
	}
	defer g.mu.RUnlock()
	if g.hookBeforeExec != nil {
		g.hookBeforeExec(proc)
	}
	if proc == ProcClusterCreate {
		return g.clusterCreate(info, body, reply)
	}
	return g.inner(info, proc, body, reply)
}

// mutates reports whether proc can change the bytes or size of the
// file its leading handle names — the set a migration holds.
func mutates(proc uint32) bool {
	switch proc {
	case nfsproto.ProcWrite, nfsproto.ProcSetattr, ProcClusterCreate:
		return true
	}
	return false
}

// clusterCreate places a zero-filled file at a cluster-allocated
// handle, flat under the shard's root.
func (g *guard) clusterCreate(info rpcnet.CallInfo, body, reply []byte) ([]byte, uint32) {
	var args clusterCreateArgs
	if err := args.Unmarshal(body); err != nil {
		info.Span.Mark(obs.StageExec)
		return reply, sunrpc.AcceptGarbageArgs
	}
	err := g.fs.CreateAt(vfs.RootFH, args.Name, args.FH, make([]byte, args.Size))
	info.Span.Mark(obs.StageExec)
	if err != nil {
		st := uint32(nfsproto.ErrIO)
		if errors.Is(err, vfs.ErrExist) {
			st = nfsproto.ErrExist
		}
		return xdr.AppendUint32(reply, st), sunrpc.AcceptSuccess
	}
	g.creates.Add(1)
	return xdr.AppendUint32(reply, nfsproto.OK), sunrpc.AcceptSuccess
}
