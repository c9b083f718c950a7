package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"nfstricks/internal/cluster"
	"nfstricks/internal/nfsproto"
	"nfstricks/internal/replay"
	"nfstricks/internal/stats"
	"nfstricks/internal/tracefile"
)

// clusterShardCounts is the X axis: how many nfsd shards serve the
// namespace.
var clusterShardCounts = []int{1, 2, 4, 8}

const (
	// clusterAmpLow/High are the trace amplification factors: the
	// captured 4-stream workload replayed as that many independent
	// tenants, open-loop.
	clusterAmpLow  = 4
	clusterAmpHigh = 16
	// clusterKneeGain is the marginal speedup below which a shard
	// doubling is declared to have hit the coordination knee.
	clusterKneeGain = 1.15
	// clusterUDPWindow caps per-stream inflight for the UDP cells;
	// loopback datagram buffers overflow long before TCP backpressure
	// would kick in.
	clusterUDPWindow = 8
	// clusterChurnShards is the shard count the drain-under-load cell
	// runs at.
	clusterChurnShards = 4
)

// clusterEnv is one cell's serving side: an n-shard cluster, routed
// clients for both transports, and a per-tenant namespace mirroring
// the captured workload's files.
type clusterEnv struct {
	c     *cluster.Cluster
	tcp   *cluster.Client
	udp   *cluster.Client
	mapFH func(tenant int, fh uint64) nfsproto.FH
}

// newClusterEnv stands up the cluster and creates, for each of
// `tenants` tenants, one file per captured stream sized to cover the
// captured reads. The returned mapFH sends each (tenant, captured
// handle) pair to that tenant's copy, so amplified replay reads
// distinct handles that the ring spreads across shards.
func newClusterEnv(shards, tenants, perStream int) (*clusterEnv, error) {
	c, err := cluster.New(cluster.Config{Shards: shards})
	if err != nil {
		return nil, err
	}
	env := &clusterEnv{c: c}
	if env.tcp, err = cluster.DialClient("tcp", c.CtrlAddr()); err != nil {
		c.Close()
		return nil, err
	}
	if env.udp, err = cluster.DialClient("udp", c.CtrlAddr()); err != nil {
		env.Close()
		return nil, err
	}
	// The capture store assigns handles deterministically (payload size
	// does not affect allocation), so rebuilding a unit-sized twin
	// recovers the handles the trace records carry.
	_, srcFHs := traceReplayEnv(1)
	perTenant := make([]map[uint64]nfsproto.FH, tenants)
	for t := 0; t < tenants; t++ {
		perTenant[t] = make(map[uint64]nfsproto.FH, len(srcFHs))
		for i, src := range srcFHs {
			fh, err := env.tcp.Create(fmt.Sprintf("t%d_s%d", t, i), uint64(perStream))
			if err != nil {
				env.Close()
				return nil, fmt.Errorf("create tenant %d stream %d: %w", t, i, err)
			}
			perTenant[t][uint64(src)] = fh
		}
	}
	env.mapFH = func(tenant int, fh uint64) nfsproto.FH {
		if mapped, ok := perTenant[tenant][fh]; ok {
			return mapped
		}
		return nfsproto.FH(fh)
	}
	return env, nil
}

func (e *clusterEnv) Close() {
	if e.udp != nil {
		e.udp.Close()
	}
	if e.tcp != nil {
		e.tcp.Close()
	}
	e.c.Close()
}

// clusterReplayOpts builds the open-loop amplified replay options for
// one cell. The shard-aware client is the transport: it routes each
// call by handle and chases redirects, so the replay engine never sees
// the topology.
func (e *clusterEnv) clusterReplayOpts(network string, amp int) replay.Options {
	opts := replay.Options{
		// Addr is unused with a custom Dial but required by the
		// options contract; the control plane address documents intent.
		Network: network, Addr: e.c.CtrlAddr(),
		Timing: replay.AsFast, OpenLoop: true,
		Amplify: amp, TenantFH: e.mapFH,
	}
	if network == "udp" {
		opts.Dial = e.udp.ReplayDial
		opts.Window = clusterUDPWindow
	} else {
		opts.Dial = e.tcp.ReplayDial
	}
	return opts
}

// clusterBalance renders per-shard executed counts from the merged
// labeled snapshot — the same numbers an admin endpoint would scrape,
// proving the label merge end-to-end.
func clusterBalance(env *clusterEnv) string {
	snap := env.c.MergedSnapshot()
	perShard := make(map[string]int64)
	for name, v := range snap.Counters {
		base, labels, _ := strings.Cut(name, "{")
		if base != "nfsd_executed_total" {
			continue
		}
		// The counter may carry other labels (proc=...); pick out the
		// shard value the merge spliced in and sum across the rest.
		if _, rest, ok := strings.Cut(labels, `shard="`); ok {
			if id, _, ok := strings.Cut(rest, `"`); ok {
				perShard[id] += v
			}
		}
	}
	parts := make([]string, 0, len(perShard))
	for id, v := range perShard {
		parts = append(parts, fmt.Sprintf("%s=%d", id, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// ClusterScale is the scale-out experiment: the captured multi-stream
// workload, amplified to M independent tenants at open-loop speed,
// replayed against {1,2,4,8} in-process nfsd shards behind the
// consistent-hash map. It reports ops/s and p99 per shard count for
// both amplification factors and both transports, merges the per-shard
// obs registries into the report, and hunts the negative result the
// paper trains us to expect: the shard doubling where map coordination
// (redirect chasing, refresh round-trips, migration copies) eats the
// speedup. One extra cell drains a shard mid-replay; its bar is zero
// failed operations — stale clients must be redirected and retried,
// never errored.
func ClusterScale(p Params) (*Result, error) {
	p.fill()
	perStream := traceReplayBytes / p.Scale
	if perStream < 64*1024 {
		perStream = 64 * 1024
	}
	r := &Result{
		ID: "cluster-scale", Title: "Scale-out: shard count vs amplified open-loop replay",
		XLabel: "shards", YLabel: "ops/s, p99 latency (µs)",
		X: clusterShardCounts,
	}

	type cellKey struct {
		shards int
		label  string
	}
	cells := make(map[cellKey][]float64)
	add := func(n int, label string, v float64) {
		k := cellKey{n, label}
		cells[k] = append(cells[k], v)
	}
	labels := []struct {
		name   string
		better string
	}{
		{fmt.Sprintf("ops/s tcp amp=%d", clusterAmpLow), BetterHigher},
		{fmt.Sprintf("ops/s tcp amp=%d", clusterAmpHigh), BetterHigher},
		{fmt.Sprintf("ops/s udp amp=%d", clusterAmpLow), BetterHigher},
		{fmt.Sprintf("p99 µs tcp amp=%d", clusterAmpHigh), BetterLower},
	}

	var udpErrs, udpOps int64
	var churnRedirects, churnRefreshes, churnMigrated int64
	var churnRuns int
	balance := ""
	for run := 0; run < p.Runs; run++ {
		recs, _, err := captureWorkload(perStream)
		if err != nil {
			return nil, fmt.Errorf("cluster-scale capture: %w", err)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("cluster-scale: empty capture")
		}
		for _, n := range clusterShardCounts {
			env, err := newClusterEnv(n, clusterAmpHigh, perStream)
			if err != nil {
				return nil, fmt.Errorf("cluster-scale shards=%d: %w", n, err)
			}
			for _, cell := range []struct {
				network string
				amp     int
			}{
				{"tcp", clusterAmpLow}, {"tcp", clusterAmpHigh}, {"udp", clusterAmpLow},
			} {
				st, err := replay.Run(recs, env.clusterReplayOpts(cell.network, cell.amp))
				if err != nil {
					env.Close()
					return nil, fmt.Errorf("cluster-scale shards=%d %s amp=%d: %w", n, cell.network, cell.amp, err)
				}
				if cell.network == "udp" {
					// Datagrams are allowed to drop (that is the trap the
					// transport axis exists to show) but not wholesale.
					udpErrs += st.Errors
					udpOps += st.Ops
					if st.Errors*100 > st.Ops {
						env.Close()
						return nil, fmt.Errorf("cluster-scale shards=%d udp: %d/%d ops lost", n, st.Errors, st.Ops)
					}
				} else if st.Errors > 0 || st.NFSErrors > 0 {
					env.Close()
					return nil, fmt.Errorf("cluster-scale shards=%d %s amp=%d: %d transport / %d NFS errors",
						n, cell.network, cell.amp, st.Errors, st.NFSErrors)
				}
				add(n, fmt.Sprintf("ops/s %s amp=%d", cell.network, cell.amp), st.OpsPerSec)
				if cell.network == "tcp" && cell.amp == clusterAmpHigh {
					add(n, fmt.Sprintf("p99 µs tcp amp=%d", clusterAmpHigh), float64(st.P99.Microseconds()))
				}
			}
			if n == clusterChurnShards {
				balance = clusterBalance(env)
				red, ref, mig, err := clusterChurn(env, recs)
				if err != nil {
					env.Close()
					return nil, err
				}
				churnRedirects += red
				churnRefreshes += ref
				churnMigrated += mig
				churnRuns++
			}
			env.Close()
		}
	}

	for _, l := range labels {
		s := Series{Label: l.name, Better: l.better}
		for _, n := range clusterShardCounts {
			s.Samples = append(s.Samples, stats.Summarize(cells[cellKey{n, l.name}]))
		}
		r.Series = append(r.Series, s)
	}

	// The headline and the negative result, from the high-pressure TCP
	// series: speedup at each doubling, and the first doubling whose
	// marginal gain falls under the knee threshold.
	highLabel := fmt.Sprintf("ops/s tcp amp=%d", clusterAmpHigh)
	mean := func(n int) float64 { return stats.Summarize(cells[cellKey{n, highLabel}]).Mean }
	if base := mean(clusterShardCounts[0]); base > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"amp=%d tcp speedup vs 1 shard: 2→%.2f×, 4→%.2f×, 8→%.2f×",
			clusterAmpHigh, mean(2)/base, mean(4)/base, mean(8)/base))
		knee := ""
		for i := 1; i < len(clusterShardCounts); i++ {
			prev, cur := mean(clusterShardCounts[i-1]), mean(clusterShardCounts[i])
			if prev > 0 && cur/prev < clusterKneeGain {
				knee = fmt.Sprintf(
					"coordination knee at %d→%d shards: marginal gain %.2f× (< %.2f×) — map refresh, redirect chasing and per-shard sockets stop paying for themselves",
					clusterShardCounts[i-1], clusterShardCounts[i], cur/prev, clusterKneeGain)
				break
			}
		}
		if knee == "" {
			knee = fmt.Sprintf("no coordination knee up to %d shards (every doubling gained ≥%.2f×) at this scale — rerun at lower -scale to find it",
				clusterShardCounts[len(clusterShardCounts)-1], clusterKneeGain)
		}
		r.Notes = append(r.Notes, knee)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("per-shard executed at %d shards (merged shard-labeled registries): %s", clusterChurnShards, balance),
		fmt.Sprintf("drain mid-replay (%d shards, faithful timing, %d runs): 0 failed ops; %d redirects, %d map refreshes, %d files migrated",
			clusterChurnShards, churnRuns, churnRedirects, churnRefreshes, churnMigrated),
		fmt.Sprintf("udp cells: %d/%d datagrams lost (open-loop window %d)", udpErrs, udpOps, clusterUDPWindow))
	return r, nil
}

// clusterChurn replays the trace at faithful timing while draining one
// shard a third of the way through the captured span. Zero failed
// operations is the acceptance bar: every request issued against the
// stale map must come back as a redirect the client chases, not an
// error. Returns the redirect / refresh / migration counts the drain
// cost the run.
func clusterChurn(env *clusterEnv, recs []tracefile.Record) (redirects, refreshes, migrated int64, err error) {
	before := env.tcp.Stats()
	target := env.c.Map().Shards[0].ID
	span := traceSpan(recs)
	if span <= 0 {
		span = 10 * time.Millisecond
	}
	var drainErr atomic.Value
	timer := time.AfterFunc(span/3, func() {
		if _, err := env.tcp.Drain(target); err != nil {
			drainErr.Store(err)
		}
	})
	opts := env.clusterReplayOpts("tcp", clusterAmpHigh)
	opts.Timing = replay.Faithful
	st, err := replay.Run(recs, opts)
	timer.Stop()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("cluster-scale churn: %w", err)
	}
	if e, _ := drainErr.Load().(error); e != nil {
		return 0, 0, 0, fmt.Errorf("cluster-scale churn drain: %w", e)
	}
	if st.Errors > 0 || st.NFSErrors > 0 {
		return 0, 0, 0, fmt.Errorf("cluster-scale churn: %d transport / %d NFS errors during drain (want 0)",
			st.Errors, st.NFSErrors)
	}
	after := env.tcp.Stats()
	snap := env.c.MergedSnapshot()
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "cluster_migrated_out_total{") {
			migrated += v
		}
	}
	return after.Redirects - before.Redirects, after.MapRefreshes - before.MapRefreshes, migrated, nil
}
