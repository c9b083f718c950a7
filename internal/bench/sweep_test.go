package bench

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// shape is the part of a Result that stays fixed across runs and hosts:
// what a live experiment's tests pin, since its numbers cannot be.
type shape struct {
	id, title, xlabel, ylabel string
	x                         []int
	series                    [][2]string // label, Better
}

func checkShape(t *testing.T, r *Result, want shape) {
	t.Helper()
	got := shape{id: r.ID, title: r.Title, xlabel: r.XLabel, ylabel: r.YLabel, x: r.X}
	for _, s := range r.Series {
		got.series = append(got.series, [2]string{s.Label, s.Better})
		if len(s.Samples) != len(r.X) {
			t.Errorf("series %q has %d samples for %d X values", s.Label, len(s.Samples), len(r.X))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result shape\n got %+v\nwant %+v", got, want)
	}
}

// TestSweep pins the harness loop: one discarded warm-up call, then
// run → x → cell order, run-0 profiles per (cell, x), values in the
// grid by series and X, and errors wrapped with experiment, cell and x.
func TestSweep(t *testing.T) {
	dir := t.TempDir()
	p := Params{Runs: 2, ProfileDir: dir}
	newRun := func() (*grid, *[]string, func(string, point) error) {
		g := newGrid(&Result{ID: "fake", X: []int{10, 20}}).series(BetterHigher, "a", "b")
		var calls []string
		return g, &calls, func(c string, pt point) error {
			calls = append(calls, fmt.Sprintf("%s x=%d run=%d warm=%v", c, pt.x, pt.run, pt.warm()))
			pt.put(c[:1], float64(pt.x+pt.run))
			return nil
		}
	}
	g, calls, measure := newRun()
	if err := sweep(p, g, g.r.X, []string{"a", "b/c"}, ident, measure); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a x=10 run=0 warm=true",
		"a x=10 run=0 warm=false", "b/c x=10 run=0 warm=false",
		"a x=20 run=0 warm=false", "b/c x=20 run=0 warm=false",
		"a x=10 run=1 warm=false", "b/c x=10 run=1 warm=false",
		"a x=20 run=1 warm=false", "b/c x=20 run=1 warm=false",
	}
	if !reflect.DeepEqual(*calls, want) {
		t.Fatalf("calls\n got %q\nwant %q", *calls, want)
	}

	r := g.result()
	if len(r.Series) != 2 || r.Series[0].Label != "a" || r.Series[1].Label != "b" || r.Series[1].Better != BetterHigher {
		t.Fatalf("series = %+v", r.Series)
	}
	if v := r.Series[1].Samples[1].Values; !reflect.DeepEqual(v, []float64{20, 21}) {
		t.Fatalf("b at x=20: values %v, want [20 21] (the warm-up value discarded)", v)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	sort.Strings(files)
	wantFiles := []string{"fake_a_x10.cpu.pprof", "fake_a_x20.cpu.pprof", "fake_b-c_x10.cpu.pprof", "fake_b-c_x20.cpu.pprof"}
	if !reflect.DeepEqual(files, wantFiles) {
		t.Fatalf("profiles %q, want %q", files, wantFiles)
	}

	boom := errors.New("boom")
	p.ProfileDir = ""
	g, _, _ = newRun()
	err = sweep(p, g, g.r.X, []string{"a", "b/c"}, ident, func(c string, pt point) error {
		if c == "b/c" && pt.x == 20 && pt.run == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || err.Error() != "fake b/c x=20: boom" {
		t.Fatalf("err = %v, want fake b/c x=20: boom", err)
	}
	err = sweep(p, g, g.r.X, []string{"a"}, ident, func(string, point) error { return boom })
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "fake warm-up") {
		t.Fatalf("warm-up err = %v", err)
	}
}

// TestClusterKnee pins the knee verdict's three outcomes on synthetic
// runs: a knee named only beyond noise, no knee when every doubling
// clears the gain beyond noise, and unresolved otherwise.
func TestClusterKnee(t *testing.T) {
	counts := []int{1, 2, 4, 8}
	jitter := []float64{1.00, 1.01, 0.99, 1.005, 0.995, 1.002}
	runs := func(n int, gains ...float64) [][]float64 {
		out := make([][]float64, len(gains))
		for i, gain := range gains {
			for _, j := range jitter[:n] {
				out[i] = append(out[i], 1000*gain*j)
			}
		}
		return out
	}
	for _, c := range []struct {
		name string
		runs [][]float64
		want string
	}{
		{"knee", runs(6, 1, 2, 4, 4.1), "coordination knee at 4→8 shards"},
		{"no knee", runs(6, 1, 2, 4, 8), "no coordination knee up to 8 shards"},
		{"unresolved by runs", runs(2, 1, 2, 4, 4.1), "knee unresolved at runs=2: 1→2 shards"},
		{"unresolved by noise", runs(6, 1, 2, 2*clusterKneeGain, 8), "knee unresolved at runs=6: 2→4 shards"},
	} {
		if got := clusterKnee(counts, c.runs); !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: %q, want prefix %q", c.name, got, c.want)
		}
	}
}

// TestZCAVLiveShape runs the live ZCAV experiment small and pins its
// result shape.
func TestZCAVLiveShape(t *testing.T) {
	r, err := ZCAVLive(Params{Runs: 1, Scale: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, shape{
		"zcav-live", "Live ZCAV trap: zone placement x cache size over real RPC", "xferKB", "READ throughput (MB/s)",
		[]int{8, 32},
		[][2]string{{"outer/cold", ""}, {"inner/cold", ""}, {"outer/warm", ""}, {"inner/warm", ""}},
	})
	for _, s := range r.Series {
		for i, sm := range s.Samples {
			if !(sm.Mean > 0) {
				t.Errorf("%s[x=%d]: mean %v, want > 0", s.Label, r.X[i], sm.Mean)
			}
		}
	}
}
