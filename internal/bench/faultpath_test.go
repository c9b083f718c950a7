package bench

import (
	"testing"
)

// TestFaultPathSmoke runs the experiment end to end at tiny scale and
// checks the result shape: 4 goodput + 4 p99 series over the loss
// sweep, every cell with positive rates.
func TestFaultPathSmoke(t *testing.T) {
	r, err := FaultPath(Params{Runs: 1, Scale: 12, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 8 {
		t.Fatalf("series = %d, want 8 (4 goodput + 4 p99)", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Samples) != len(r.X) {
			t.Fatalf("%s: %d samples for %d X values", s.Label, len(s.Samples), len(r.X))
		}
		for i, sm := range s.Samples {
			if !(sm.Mean > 0) {
				t.Errorf("%s[x=%d]: mean %v, want > 0", s.Label, r.X[i], sm.Mean)
			}
		}
	}
	for _, label := range []string{
		"udp/drc=on/goodput", "udp/drc=off/goodput",
		"tcp/drc=on/p99ms", "tcp/drc=off/p99ms",
	} {
		if _, ok := r.SeriesByLabel(label); !ok {
			t.Errorf("missing series %q", label)
		}
	}
}

// TestFaultPathLossyUDPWithDRC is the headline acceptance cell: a
// create/rename/remove workload over UDP with 5% per-direction
// datagram loss, DRC on, must complete with zero spurious NOENT/EXIST
// answers and zero duplicated executions — every retransmission that
// reaches the server is answered from the cache, never re-run.
func TestFaultPathLossyUDPWithDRC(t *testing.T) {
	p := Params{Runs: 1, Scale: 1, Seed: 42}
	p.fill()
	m, err := faultCell("udp", 5, true, faultTriplets(p), 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.spurious != 0 {
		t.Errorf("spurious NOENT/EXIST answers = %d, want 0", m.spurious)
	}
	if m.dupExec != 0 {
		t.Errorf("duplicated executions = %d, want 0", m.dupExec)
	}
	drops := m.faultsIn.Drops + m.faultsOut.Drops
	if drops == 0 {
		t.Error("no datagrams dropped at 5% loss — injector not wired to the server")
	}
	if m.retry.Retransmits == 0 {
		t.Error("no client retransmissions under loss — retry layer not engaged")
	}
	t.Logf("drops=%d retransmits=%d drcHits=%d drcBusy=%d goodput=%.0f ops/s p99=%.1fms",
		drops, m.retry.Retransmits, m.drcHits, m.drcBusy, m.goodput, m.p99ms)
}

// TestFaultPathLossyUDPWithoutDRC pins the counterpart: the same lossy
// workload with the DRC off lets retransmissions re-execute
// non-idempotent procedures. The workload still terminates (the triplet
// loop tolerates the wrong answers), and the duplicate executions are
// visible in the executed-procedure counts.
func TestFaultPathLossyUDPWithoutDRC(t *testing.T) {
	p := Params{Runs: 1, Scale: 1, Seed: 42}
	p.fill()
	m, err := faultCell("udp", 5, false, faultTriplets(p), 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.dupExec == 0 {
		t.Error("no duplicated executions with DRC off at 5% loss — expected re-runs")
	}
	t.Logf("spurious=%d dupExec=%d retransmits=%d", m.spurious, m.dupExec, m.retry.Retransmits)
}

// TestFaultPathLeftoverEntries pins the cell's directory check: a
// leftover entry is a counted duplicated side effect with the DRC off,
// and fails the cell with the DRC on.
func TestFaultPathLeftoverEntries(t *testing.T) {
	if _, err := leftoverEntries(true, 1, 12); err == nil {
		t.Error("drc=on cell with a leftover entry passed")
	}
	if n, err := leftoverEntries(true, 0, 12); err != nil || n != 0 {
		t.Errorf("drc=on, empty directory: %d, %v; want 0, nil", n, err)
	}
	if n, err := leftoverEntries(false, 2, 12); err != nil || n != 2 {
		t.Errorf("drc=off, 2 entries left: %d, %v; want 2, nil", n, err)
	}
}
