package bench

import "testing"

// TestWritePathExperiment smoke-runs the write-path sweep at reduced
// scale and asserts the acceptance shape: the asynchronous pipeline
// beats the synchronous baseline on the throttled sink once the gather
// window is nonzero, with far fewer sink flushes than client writes,
// while the zero-width window (checked inside the experiment against
// the in-memory sink) reproduces the synchronous behaviour.
func TestWritePathExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("live write-path sweep")
	}
	r, err := WritePath(Params{Runs: 2, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, shape{
		"write-path", "Asynchronous write pipeline: gather window x sink speed vs synchronous writes", "window (ms)",
		"ops/s, latency (µs), flushes per 1k writes, flushed/gathered (%)",
		[]int{0, 1, 4, 16},
		[][2]string{
			{"filesync ops/s (fast sink)", "higher"}, {"unstable+commit ops/s (fast sink)", "higher"},
			{"filesync ops/s (slow sink)", "higher"}, {"unstable+commit ops/s (slow sink)", "higher"},
			{"filesync write p99 (µs, slow sink)", "lower"}, {"unstable write p50 (µs, slow sink)", "lower"},
			{"unstable write p99 (µs, slow sink)", "lower"}, {"sink flushes per 1k writes", "lower"},
			{"hotspot flushed/gathered (%)", "lower"},
		},
	})
	sync, ok1 := r.SeriesByLabel("filesync ops/s (slow sink)")
	unst, ok2 := r.SeriesByLabel("unstable+commit ops/s (slow sink)")
	fl, ok3 := r.SeriesByLabel("sink flushes per 1k writes")
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing series in %+v", r)
	}
	// Largest window: the gather win must be unambiguous.
	last := len(r.X) - 1
	if unst.Samples[last].Mean <= sync.Samples[last].Mean {
		t.Fatalf("unstable+commit %.0f ops/s did not beat filesync %.0f ops/s at window %dms",
			unst.Samples[last].Mean, sync.Samples[last].Mean, r.X[last])
	}
	if fl.Samples[last].Mean >= 500 {
		t.Fatalf("flushes per 1k writes = %.0f at window %dms, want far fewer than writes",
			fl.Samples[last].Mean, r.X[last])
	}
	// Window 0 is write-through: exactly one flush per write.
	if got := fl.Samples[0].Mean; got != 1000 {
		t.Fatalf("flushes per 1k writes = %.0f at window 0, want 1000", got)
	}
	for _, c := range Verify(r) {
		if !c.OK {
			// The hotspot coalescing ratio compares wall-clock against
			// the gather window; under the race detector's ~10x
			// slowdown the window expires mid-workload, which is the
			// honest behaviour of a too-slow client, not a defect.
			if raceEnabled && c.Claim == "overlapping rewrites coalesce inside the window (flushed << gathered)" {
				t.Logf("skipping timing-sensitive check under -race: %s (%s)", c.Claim, c.Got)
				continue
			}
			t.Errorf("shape check failed: %s (%s)", c.Claim, c.Got)
		}
	}
}
