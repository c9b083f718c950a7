package bench

import "testing"

// TestTraceReplayEndToEnd runs the capture→replay experiment at a small
// scale over real loopback sockets and checks the acceptance shape:
// every schedule produced load, the unthrottled replay beats the
// faithful one, and the timestamp-faithful replay reproduced the
// captured arrival span within measurement noise (the span-error
// series).
func TestTraceReplayEndToEnd(t *testing.T) {
	r, err := TraceReplay(Params{Runs: 1, Scale: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, shape{
		"trace-replay", "Trace capture & replay: achieved load vs replay schedule", "speed", "ops/s, latency (µs), span error (%)",
		[]int{1, 4, 16, 0},
		[][2]string{{"achieved ops/s", "higher"}, {"p50 latency (µs)", "lower"}, {"p99 latency (µs)", "lower"}, {"span error (%)", "lower"}},
	})
	ops, ok := r.SeriesByLabel("achieved ops/s")
	if !ok {
		t.Fatal("ops/s series missing")
	}
	idx := func(speed int) int {
		for i, s := range r.X {
			if s == speed {
				return i
			}
		}
		t.Fatalf("speed %d not in X %v", speed, r.X)
		return -1
	}
	for i, s := range ops.Samples {
		if s.Mean <= 0 {
			t.Fatalf("speed %d: ops/s %.1f", r.X[i], s.Mean)
		}
	}
	if fast, faithful := ops.Samples[idx(0)].Mean, ops.Samples[idx(1)].Mean; fast <= faithful {
		t.Fatalf("unthrottled %.0f ops/s not above faithful %.0f", fast, faithful)
	}

	// Timing fidelity: the faithful schedule's arrival-span error stays
	// within measurement noise. The workload's gaps are
	// traceReplayGap-sized, so 25% covers scheduler jitter on a loaded
	// CI host while still failing if the schedule is simply ignored
	// (which would show up as ~100% error).
	spanErr, ok := r.SeriesByLabel("span error (%)")
	if !ok {
		t.Fatal("span-error series missing")
	}
	if e := spanErr.Samples[idx(1)].Mean; e > 25 {
		t.Fatalf("faithful replay span error %.1f%%", e)
	}

	// Latency percentiles are ordered and positive.
	p50, _ := r.SeriesByLabel("p50 latency (µs)")
	p99, _ := r.SeriesByLabel("p99 latency (µs)")
	for i := range r.X {
		if p50.Samples[i].Mean <= 0 || p99.Samples[i].Mean < p50.Samples[i].Mean {
			t.Fatalf("speed %d: p50 %.1f p99 %.1f", r.X[i], p50.Samples[i].Mean, p99.Samples[i].Mean)
		}
	}
}
