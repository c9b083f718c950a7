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
	cl, err := DialClient("tcp", c.CtrlAddr())
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
	cl, err := DialClient("tcp", c.CtrlAddr())
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
	cl, err := DialClient("tcp", c.CtrlAddr())
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
	cl, err := DialClient("tcp", c.CtrlAddr())
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
// added and drained. Writes to moving files wait out the migration
// while their old bytes are copied, then land on the new owner. The
// bar: every slot ends holding the last value its writer was ACKed for,
// and no write errors.
func TestRebalancePreservesRacingWrites(t *testing.T) {
	c := newTestCluster(t, 2)
	cl, err := DialClient("tcp", c.CtrlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Enough files of enough size that the copy pass has real work,
	// so writers keep arriving while the migration is installed.
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

// phaseNames labels the rebalance phase boundaries, indexed by phase.
var phaseNames = []string{"installed", "copied", "flipped", "released", "pruned"}

// scheduleHold bounds the waits behind the schedule test's "has not
// happened yet" checks: how long a held write waits for a phase the
// rebalance cannot reach while it is held, and how long an arriving
// write is watched for an early ack. Neither wait is a pass condition.
const scheduleHold = 50 * time.Millisecond

// TestRebalanceSchedule walks one WRITE to a moving handle through
// every rebalance phase boundary, on both legs, in two modes:
//
//   - arrive: the write is issued through the client when the phase is
//     reached; while the migration is installed it must not be acked;
//   - held: the write is admitted on its source before the rebalance
//     starts and parked at the guard's pre-execute seam until the phase
//     is reached — or, since no phase can pass a migration install
//     while a mutation admitted before it is in flight, for a bounded
//     wait, after which the install must still not have happened.
//
// Each case asserts that the rebalance completes, the acked value is on
// the final owner, and every READ through the client that starts after
// the ack — right after it, at each later phase boundary, and after the
// rebalance — returns that value.
func TestRebalanceSchedule(t *testing.T) {
	for _, leg := range []string{"add", "drain"} {
		for p, name := range phaseNames {
			for _, mode := range []string{"arrive", "held"} {
				t.Run(leg+"/"+name+"/"+mode, func(t *testing.T) {
					runSchedule(t, leg, phase(p), mode == "held")
				})
			}
		}
	}
}

func runSchedule(t *testing.T, leg string, at phase, held bool) {
	c := newTestCluster(t, 2)
	cl, err := DialClient("tcp", c.CtrlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The map the membership change will publish: ownership depends on
	// shard ids alone, and an added shard takes the next id.
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
		f, err := cl.Create(fmt.Sprintf("s%d", i), 8)
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

	acked := make(chan struct{})    // closed once the write is acked
	finished := make(chan struct{}) // closed once the write and the read after it returned
	var writeErr, readErr error
	var readAfter uint64
	write := func() {
		defer close(finished)
		body, err := cl.Call(nfsproto.ProcWrite, fh, (&nfsproto.WriteArgs{
			FH: fh, Count: 8, Stable: nfsproto.WriteFileSync,
			Data: binary.BigEndian.AppendUint64(nil, 1),
		}).Marshal())
		if err == nil && binary.BigEndian.Uint32(body) != nfsproto.OK {
			err = fmt.Errorf("nfs status %d", binary.BigEndian.Uint32(body))
		}
		if writeErr = err; err != nil {
			return
		}
		close(acked)
		readAfter, readErr = readValue(cl, fh)
	}
	// checkRead reads through the client: the file holds 0 until the
	// write is acked and 1 from then on.
	checkRead := func(where string) {
		ackedBefore := closed(acked)
		v, err := readValue(cl, fh)
		switch {
		case err != nil:
			t.Errorf("%s: read: %v", where, err)
		case ackedBefore && v != 1:
			t.Errorf("%s: read after the ack returned %d, want 1", where, v)
		case v > 1:
			t.Errorf("%s: read returned %d, want 0 or 1", where, v)
		}
	}

	reached := make([]chan struct{}, len(phaseNames))
	for i := range reached {
		reached[i] = make(chan struct{})
	}
	c.hook = func(p phase) {
		close(reached[p])
		checkRead(phaseNames[p])
		if held || p != at {
			return
		}
		go write()
		if p < phaseReleased {
			select {
			case <-acked:
				t.Errorf("write to a moving file acked at %s, before the migration was released", phaseNames[p])
			case <-time.After(scheduleHold):
			}
		}
	}

	if held {
		entered := make(chan struct{})
		var once sync.Once
		c.shards[src].guard.hookBeforeExec = func(proc uint32) {
			if proc != nfsproto.ProcWrite {
				return
			}
			once.Do(func() {
				close(entered)
				select {
				case <-reached[at]:
				case <-time.After(scheduleHold):
				}
				if closed(reached[phaseInstalled]) {
					t.Error("migration installed while a write admitted before it was in flight")
				}
			})
		}
		go write()
		select {
		case <-entered:
		case <-finished:
			t.Fatalf("write finished without being held: %v", writeErr)
		}
	}

	if leg == "add" {
		_, _, err = c.AddShard()
	} else {
		_, err = c.Drain(cur.Shards[0].ID)
	}
	if err != nil {
		t.Fatal(err)
	}
	<-finished // the client's call timeout bounds this
	if writeErr != nil {
		t.Fatalf("write: %v", writeErr)
	}
	if readErr != nil || readAfter != 1 {
		t.Fatalf("read right after the ack: %d, %v; want 1", readAfter, readErr)
	}
	owner, _ := c.Map().OwnerID(uint64(fh))
	data, _, err := c.shards[owner].fs.Read(fh, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(data); got != 1 {
		t.Fatalf("lost update: final owner %d holds %d, last acked 1", owner, got)
	}
	checkRead("after the rebalance")
}

// readValue reads fh's first 8 bytes through the routed client.
func readValue(cl *Client, fh nfsproto.FH) (uint64, error) {
	body, err := cl.Call(nfsproto.ProcRead, fh, (&nfsproto.ReadArgs{FH: fh, Count: 8}).Marshal())
	if err != nil {
		return 0, err
	}
	res, err := nfsproto.UnmarshalReadRes(body)
	if err != nil {
		return 0, err
	}
	if res.Status != nfsproto.OK || len(res.Data) != 8 {
		return 0, fmt.Errorf("read: status %d, %d bytes", res.Status, len(res.Data))
	}
	return binary.BigEndian.Uint64(res.Data), nil
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
