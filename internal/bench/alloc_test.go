package bench

import "testing"

// TestAllocProfileShape smoke-tests the allocator-traffic experiment
// and checks the property the zero-copy pipeline exists to provide:
// READ bytes-per-op must stay within a small multiple of the transfer
// size (one reply-body copy plus headers), not the several-copies
// multiple the pre-pooling path paid. Absolute allocator numbers vary
// by Go version, so the bound is deliberately loose.
func TestAllocProfileShape(t *testing.T) {
	r, err := AllocProfile(Params{Runs: 1, Scale: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, shape{
		"alloc-profile", "Allocator traffic per live RPC (loopback TCP)", "bytes", "allocs/op and KB/op",
		[]int{512, 8192, 32768},
		[][2]string{{"READ allocs/op", "lower"}, {"READ KB/op", "lower"}, {"WRITE allocs/op", "lower"}, {"WRITE KB/op", "lower"}},
	})
	for _, s := range r.Series {
		for i, smp := range s.Samples {
			if smp.Mean <= 0 {
				t.Fatalf("series %s x=%d mean %.3f", s.Label, allocSizes[i], smp.Mean)
			}
		}
	}
	reads, ok := r.SeriesByLabel("READ KB/op")
	if !ok {
		t.Fatal("READ KB/op series missing")
	}
	if raceEnabled {
		// The race detector multiplies allocator traffic; only the
		// well-formedness checks above are meaningful under it.
		return
	}
	for i, size := range allocSizes {
		kb := reads.Samples[i].Mean
		// One payload copy + RPC overhead; 3x leaves generous headroom
		// while still failing if a second payload-sized copy returns.
		limit := 3*float64(size)/1024 + 4
		if kb > limit {
			t.Errorf("READ %d B costs %.1f KB/op, want < %.1f (payload re-copying crept back in)", size, kb, limit)
		}
	}
	if len(r.Notes) < 3 {
		t.Fatalf("expected fixed-procedure notes, got %v", r.Notes)
	}
}
