package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/rpcnet"
)

func newTestCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := New(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func readOK(t *testing.T, cl *Client, fh nfsproto.FH, size uint64) {
	t.Helper()
	body, err := cl.Call(nfsproto.ProcRead,
		fh, (&nfsproto.ReadArgs{FH: fh, Offset: 0, Count: uint32(size)}).Marshal())
	if err != nil {
		t.Fatalf("read fh %d: %v", fh, err)
	}
	if st := binary.BigEndian.Uint32(body); st != nfsproto.OK {
		t.Fatalf("read fh %d: nfs status %d", fh, st)
	}
}

// TestClusterCreateAndRead places files across shards and reads them
// back through the routed client.
func TestClusterCreateAndRead(t *testing.T) {
	c := newTestCluster(t, 3)
	cl, err := DialClient("tcp", c.CtrlAddr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 60
	fhs := make([]nfsproto.FH, n)
	for i := range fhs {
		fh, err := cl.Create(fmt.Sprintf("f%d", i), 4096)
		if err != nil {
			t.Fatal(err)
		}
		fhs[i] = fh
	}
	for _, fh := range fhs {
		readOK(t, cl, fh, 4096)
	}
	// The ring must have spread both placement and reads: more than one
	// shard executed work.
	busy := 0
	for _, st := range c.Stats() {
		if st.Executed > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("expected ≥2 busy shards, stats %+v", c.Stats())
	}
}

// TestDrainUnderLoad drains a shard while readers hammer the cluster;
// the bar is zero failed operations — every request either lands on
// the owner or is redirected and retried, never errored.
func TestDrainUnderLoad(t *testing.T) {
	c := newTestCluster(t, 4)
	cl, err := DialClient("tcp", c.CtrlAddr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 80
	fhs := make([]nfsproto.FH, n)
	for i := range fhs {
		fh, err := cl.Create(fmt.Sprintf("g%d", i), 1024)
		if err != nil {
			t.Fatal(err)
		}
		fhs[i] = fh
	}
	v1 := cl.MapVersion()

	var stop atomic.Bool
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				fh := fhs[(i*7+w)%n]
				body, err := cl.Call(nfsproto.ProcRead,
					fh, (&nfsproto.ReadArgs{FH: fh, Count: 1024}).Marshal())
				if err != nil || binary.BigEndian.Uint32(body) != nfsproto.OK {
					failures.Add(1)
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	target := c.Map().Shards[0].ID
	v2, err := cl.Drain(target)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if got := failures.Load(); got != 0 {
		t.Fatalf("%d failed ops during drain", got)
	}
	if v2 <= v1 {
		t.Fatalf("drain version %d not above %d", v2, v1)
	}
	if cl.Stats().Redirects == 0 {
		t.Fatal("expected redirects while the client's map was stale")
	}
	if cl.MapVersion() != v2 {
		t.Fatalf("client converged to v%d, want v%d", cl.MapVersion(), v2)
	}
	// The drained shard must have shipped its files; all reads still OK.
	for _, fh := range fhs {
		readOK(t, cl, fh, 1024)
	}
}

// TestStaleRedirectCarriesNewVersion talks to a shard directly (as a
// client with a frozen map would) and checks the redirect names the
// version to refresh to.
func TestStaleRedirectCarriesNewVersion(t *testing.T) {
	c := newTestCluster(t, 3)
	cl, err := DialClient("tcp", c.CtrlAddr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Find a file owned by shard 0, then drain shard 0 so it moves.
	m1 := c.Map()
	var fh nfsproto.FH
	for i := 0; ; i++ {
		f, err := cl.Create(fmt.Sprintf("h%d", i), 64)
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := m1.OwnerID(uint64(f)); owner == m1.Shards[0].ID {
			fh = f
			break
		}
	}
	v2, err := cl.Drain(m1.Shards[0].ID)
	if err != nil {
		t.Fatal(err)
	}

	direct, err := rpcnet.Dial("tcp", m1.Shards[0].Addr, nfsproto.Program, nfsproto.Version3)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	body, err := direct.Call(nfsproto.ProcGetattr, (&nfsproto.GetattrArgs{FH: fh}).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	ver, redirected := parseRedirect(body)
	if !redirected {
		t.Fatalf("drained shard served fh %d instead of redirecting", fh)
	}
	if ver != v2 {
		t.Fatalf("redirect carries v%d, want v%d", ver, v2)
	}
	if ver <= m1.Version {
		t.Fatalf("redirect version %d not above stale %d", ver, m1.Version)
	}
}

// TestVersionsMonotonic: every membership change must bump the version
// by exactly observing strictly increasing values at the control
// plane.
func TestVersionsMonotonic(t *testing.T) {
	c := newTestCluster(t, 2)
	last := c.Map().Version
	for i := 0; i < 3; i++ {
		info, v, err := c.AddShard()
		if err != nil {
			t.Fatal(err)
		}
		if v <= last {
			t.Fatalf("add: version %d after %d", v, last)
		}
		last = v
		v, err = c.Drain(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v <= last {
			t.Fatalf("drain: version %d after %d", v, last)
		}
		last = v
	}
}

// TestMergedSnapshotLabels: per-shard registries merge under a shard
// label, and the same counter from different shards stays distinct.
func TestMergedSnapshotLabels(t *testing.T) {
	c := newTestCluster(t, 2)
	cl, err := DialClient("tcp", c.CtrlAddr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		fh, err := cl.Create(fmt.Sprintf("m%d", i), 128)
		if err != nil {
			t.Fatal(err)
		}
		readOK(t, cl, fh, 128)
	}
	snap := c.MergedSnapshot()
	perShard := 0
	for name := range snap.Counters {
		base, labels := splitName(name)
		if base == "nfsd_executed_total" && labels != "" {
			perShard++
		}
	}
	if perShard < 2 {
		t.Fatalf("merged snapshot has %d labeled executed counters; want ≥2", perShard)
	}
	if _, ok := snap.Gauges[`cluster_map_version{shard="cp"}`]; !ok {
		t.Fatalf("control-plane gauge missing from merge: %v", keys(snap.Gauges))
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRebalancePreservesRacingWrites hammers a small file set with
// writers (each owning a private 8-byte slot per file) while shards are
// added and drained. The delta copy pass re-ships bytes written during
// the migration window; a write that lands on the gaining shard after
// the map flip must park on the migration fence until that delta has
// landed, or the re-ship silently reverts it. The bar: every slot ends
// holding the last value its writer was ACKed for, and no write errors.
func TestRebalancePreservesRacingWrites(t *testing.T) {
	c := newTestCluster(t, 2)
	cl, err := DialClient("tcp", c.CtrlAddr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Enough files of enough size that the delta copy pass has real
	// work: the lost-update window (post-flip write vs its handle's
	// delta re-ship) is only open while the delta pass runs.
	const nFiles = 96
	const fileSize = 64 << 10
	const writers = 8
	fhs := make([]nfsproto.FH, nFiles)
	for i := range fhs {
		fh, err := cl.Create(fmt.Sprintf("w%d", i), fileSize)
		if err != nil {
			t.Fatal(err)
		}
		fhs[i] = fh
	}

	var stop atomic.Bool
	var failures atomic.Int64
	var lastAcked [writers][nFiles]uint64
	// pause parks every writer between ops so the checker can read a
	// quiescent store: writers hold the read side across one RPC, the
	// checker takes the write side.
	var pause sync.RWMutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := uint64(1); !stop.Load(); i++ {
				j := int(i*2654435761+uint64(w)) % nFiles
				binary.BigEndian.PutUint64(buf, i)
				pause.RLock()
				body, err := cl.Call(nfsproto.ProcWrite, fhs[j], (&nfsproto.WriteArgs{
					FH: fhs[j], Offset: uint64(w * 8), Count: 8,
					Stable: nfsproto.WriteFileSync, Data: buf,
				}).Marshal())
				if err != nil || binary.BigEndian.Uint32(body) != nfsproto.OK {
					failures.Add(1)
					pause.RUnlock()
					continue
				}
				lastAcked[w][j] = i
				pause.RUnlock()
			}
		}(w)
	}

	// verify runs with writers parked: every slot must hold the last
	// value its writer was acked for. It must run right after each
	// membership change — a later successful write to a slot would mask
	// an update the rebalance lost.
	verify := func(tag string) {
		pause.Lock()
		defer pause.Unlock()
		m := c.Map()
		for j, fh := range fhs {
			owner, ok := m.OwnerID(uint64(fh))
			if !ok {
				t.Fatalf("%s: file %d has no owner", tag, j)
			}
			for w := 0; w < writers; w++ {
				want := lastAcked[w][j]
				if want == 0 {
					continue
				}
				data, _, err := c.shards[owner].fs.Read(fh, uint64(w*8), 8)
				if err != nil {
					t.Fatalf("%s: read back file %d slot %d: %v", tag, j, w, err)
				}
				if got := binary.BigEndian.Uint64(data); got != want {
					t.Fatalf("%s: lost update: file %d writer %d holds %d, last acked %d",
						tag, j, w, got, want)
				}
			}
		}
	}

	// Churn membership: each cycle adds a shard and drains the oldest
	// active one, so ownership keeps moving among survivors.
	for cycle := 0; cycle < 3; cycle++ {
		time.Sleep(5 * time.Millisecond)
		if _, _, err := c.AddShard(); err != nil {
			t.Fatal(err)
		}
		verify(fmt.Sprintf("cycle %d add", cycle))
		time.Sleep(5 * time.Millisecond)
		if _, err := c.Drain(c.Map().Shards[0].ID); err != nil {
			t.Fatal(err)
		}
		verify(fmt.Sprintf("cycle %d drain", cycle))
	}
	stop.Store(true)
	wg.Wait()

	if got := failures.Load(); got != 0 {
		t.Fatalf("%d failed writes during rebalance", got)
	}
	verify("final")
}

// TestFenceParksPostFlipWriteUntilDelta drives the exact interleaving
// of the rebalance lost-update race deterministically, via the
// schedule seams: a write dirties a migrating handle at its source
// during the copy window, then — after the flip and quiesce, with the
// delta copy still pending — a second write to the same handle reaches
// the gaining shard. The fence must park that write until the delta
// lands; were it admitted first, the delta's CreateAt would replace the
// file with the pre-flip bytes and silently revert an acked write.
func TestFenceParksPostFlipWriteUntilDelta(t *testing.T) {
	c := newTestCluster(t, 2)
	cl, err := DialClient("tcp", c.CtrlAddr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// A file owned by the shard we will drain, so it must migrate.
	m1 := c.Map()
	srcID := m1.Shards[0].ID
	var fh nfsproto.FH
	for i := 0; ; i++ {
		f, err := cl.Create(fmt.Sprintf("park%d", i), 8)
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := m1.OwnerID(uint64(f)); owner == srcID {
			fh = f
			break
		}
	}

	write := func(val uint64) error {
		buf := make([]byte, 8)
		binary.BigEndian.PutUint64(buf, val)
		body, err := cl.Call(nfsproto.ProcWrite, fh, (&nfsproto.WriteArgs{
			FH: fh, Count: 8, Stable: nfsproto.WriteFileSync, Data: buf,
		}).Marshal())
		if err != nil {
			return err
		}
		if st := binary.BigEndian.Uint32(body); st != nfsproto.OK {
			return fmt.Errorf("nfs status %d", st)
		}
		return nil
	}

	var w2done atomic.Bool
	var w2err error
	var wg sync.WaitGroup
	c.hookAfterTracking = func() {
		// Pre-flip write: lands on the source, marking fh dirty so the
		// delta pass will re-ship it.
		if err := write(1); err != nil {
			t.Errorf("pre-flip write: %v", err)
		}
	}
	c.hookAfterQuiesce = func() {
		// Post-flip write: chases the redirect to the gaining shard while
		// fh's delta copy is still pending. It must park on the fence.
		wg.Add(1)
		go func() {
			defer wg.Done()
			w2err = write(2)
			w2done.Store(true)
		}()
		deadline := time.Now().Add(100 * time.Millisecond)
		for time.Now().Before(deadline) {
			if w2done.Load() {
				t.Error("post-flip write committed before the delta pass — fence did not park it")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := c.Drain(srcID); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if w2err != nil {
		t.Fatalf("post-flip write: %v", w2err)
	}

	owner, ok := c.Map().OwnerID(uint64(fh))
	if !ok {
		t.Fatal("no owner after drain")
	}
	data, _, err := c.shards[owner].fs.Read(fh, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(data); got != 2 {
		t.Fatalf("delta pass reverted the post-flip write: file holds %d, want 2", got)
	}
}

// TestRebalanceReshipsWriteParkedAcrossTracking drives the lost-update
// interleaving behind TestRebalancePreservesRacingWrites's rare
// failures, deterministically and on both legs: a WRITE to a migrating
// handle is admitted on its source shard while dirty tracking is still
// off, then held at the guard's pre-execute seam while the rebalance
// turns tracking on (hookAfterTracking) and copies the file. Released
// once the new map is published, it executes on the source before the
// quiesce completes. Only a dirty mark taken after executing puts it in
// the delta pass; a mark taken at admission, with tracking off, loses
// the acked write on the new owner.
func TestRebalanceReshipsWriteParkedAcrossTracking(t *testing.T) {
	for _, leg := range []string{"add", "drain"} {
		t.Run(leg, func(t *testing.T) {
			c := newTestCluster(t, 2)
			cl, err := DialClient("tcp", c.CtrlAddr(), ClientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// The map the membership change will publish: ownership
			// depends on shard ids alone, and an added shard takes the
			// next id.
			cur := c.Map()
			var next *Map
			if leg == "add" {
				next = NewMap(cur.Version+1, append(append([]ShardInfo(nil), cur.Shards...), ShardInfo{ID: c.nextID}))
			} else {
				next = NewMap(cur.Version+1, cur.Shards[1:])
			}
			var fh nfsproto.FH
			var src uint32
			for i := 0; ; i++ {
				f, err := cl.Create(fmt.Sprintf("m%d", i), 8)
				if err != nil {
					t.Fatal(err)
				}
				from, _ := cur.OwnerID(uint64(f))
				to, _ := next.OwnerID(uint64(f))
				if from != to {
					fh, src = f, from
					break
				}
			}

			entered := make(chan struct{})
			release := make(chan struct{})
			var once sync.Once
			c.shards[src].guard.hookBeforeExec = func() {
				once.Do(func() {
					close(entered)
					<-release
				})
			}
			done := make(chan error, 1)
			go func() {
				body, err := cl.Call(nfsproto.ProcWrite, fh, (&nfsproto.WriteArgs{
					FH: fh, Count: 8, Stable: nfsproto.WriteFileSync,
					Data: binary.BigEndian.AppendUint64(nil, 1),
				}).Marshal())
				if err == nil && binary.BigEndian.Uint32(body) != nfsproto.OK {
					err = fmt.Errorf("nfs status %d", binary.BigEndian.Uint32(body))
				}
				done <- err
			}()
			<-entered // admitted under cur, tracking off

			c.hookAfterTracking = func() {
				// Hold the write until the copy pass has shipped the
				// file's old bytes and the flip is published; the
				// quiesce that follows waits for it.
				go func() {
					for c.Map().Version != next.Version {
						time.Sleep(100 * time.Microsecond)
					}
					close(release)
				}()
			}
			if leg == "add" {
				_, _, err = c.AddShard()
			} else {
				_, err = c.Drain(cur.Shards[0].ID)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("write: %v", err)
			}

			owner, _ := c.Map().OwnerID(uint64(fh))
			data, _, err := c.shards[owner].fs.Read(fh, 0, 8)
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.BigEndian.Uint64(data); got != 1 {
				t.Fatalf("lost update: new owner %d holds %d, last acked 1", owner, got)
			}
		})
	}
}
