package bench

import "testing"

// TestLiveScaleShape smoke-tests the real-socket saturation experiment
// at a tiny scale: every cell must produce a positive throughput and
// the result must carry one series per shard configuration plus the
// metrics-off twin of shards=8. (Relative speedups across shard counts
// are host-dependent — GOMAXPROCS=1 CI machines legitimately show none
// — so the shape check stops at well-formedness.)
func TestLiveScaleShape(t *testing.T) {
	r, err := LiveScale(Params{Runs: 1, Scale: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, shape{
		"live-scale", "Live server saturation: nfsheur sharding vs concurrent clients", "clients", "throughput (MB/s)",
		[]int{1, 2, 4, 8, 16},
		[][2]string{{"shards=1", "higher"}, {"shards=4", "higher"}, {"shards=8", "higher"}, {"shards=8 obs=off", "higher"}},
	})
	for _, s := range r.Series {
		for i, smp := range s.Samples {
			if smp.Mean <= 0 {
				t.Fatalf("series %s x=%d mean %.3f", s.Label, liveClientCounts[i], smp.Mean)
			}
		}
	}
}
