package bench

import (
	"strings"
	"testing"
)

// TestClusterScaleEndToEnd runs the scale-out experiment small and
// checks its acceptance shape: every cell produced load with zero
// failed ops (the cells self-assert that), the drain note reports the
// churn numbers, and the merged per-shard balance made it into the
// report.
func TestClusterScaleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster experiment")
	}
	r, err := ClusterScale(Params{Runs: 1, Scale: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, shape{
		"cluster-scale", "Scale-out: shard count vs amplified open-loop replay", "shards", "ops/s, p99 latency (µs)",
		[]int{1, 2, 4, 8},
		[][2]string{{"ops/s tcp amp=4", "higher"}, {"ops/s tcp amp=16", "higher"}, {"ops/s udp amp=4", "higher"}, {"p99 µs tcp amp=16", "lower"}},
	})
	for _, s := range r.Series {
		for i, sm := range s.Samples {
			if sm.Mean <= 0 {
				t.Fatalf("series %q cell %d: mean %.2f", s.Label, r.X[i], sm.Mean)
			}
		}
	}
	var drainNote, balanceNote bool
	for _, n := range r.Notes {
		if strings.Contains(n, "drain mid-replay") && strings.Contains(n, "0 failed ops") {
			drainNote = true
		}
		if strings.Contains(n, "per-shard executed") && strings.Contains(n, "=") {
			balanceNote = true
		}
	}
	if !drainNote {
		t.Fatalf("drain note missing: %q", r.Notes)
	}
	if !balanceNote {
		t.Fatalf("balance note missing: %q", r.Notes)
	}
}
