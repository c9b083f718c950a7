package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/vfs"
	"nfstricks/internal/workload"
)

// Each correctness check must pass on a faithful input and refuse a
// doctored one: a flipped byte, a missing name, an off-by-one counter.

func TestReadSeqRefusesFlippedByte(t *testing.T) {
	srv, err := startServer(liveConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	data := seededBytes(1, 0, 4*readSize)
	fh, err := srv.fs.Create(vfs.RootFH, "f", data)
	if err != nil {
		t.Fatal(err)
	}
	run := func(want []byte) *seqReader {
		c, err := srv.dial()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		w := &readSeq{srv: srv, files: []seqFile{{fh: fh, want: want}}}
		r := &seqReader{c: c, files: []int{0}}
		for i := 0; i < 4; i++ {
			if _, err := r.readOne(w); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	good := run(append([]byte(nil), data...))
	if c := checkReplies(good.replies, good.mismatches, good.firstErr); !c.ok {
		t.Fatalf("faithful replies refused: %s", c.detail)
	}
	if c := checkEOF(good.replies, good.eofErrs); !c.ok {
		t.Fatalf("EOF check refused a faithful run: %s", c.detail)
	}
	flipped := append([]byte(nil), data...)
	flipped[readSize+5] ^= 1
	bad := run(flipped)
	if c := checkReplies(bad.replies, bad.mismatches, bad.firstErr); c.ok {
		t.Fatal("a flipped byte passed the reply check")
	}
	if c := checkEOF(4, 1); c.ok {
		t.Fatal("a wrong EOF flag passed")
	}
}

func TestImageRefusesFlippedByte(t *testing.T) {
	img := [][]byte{seededBytes(2, 1, 1<<16), seededBytes(2, 2, 1<<16)}
	same := [][]byte{append([]byte(nil), img[0]...), append([]byte(nil), img[1]...)}
	if c := checkImages(img, same); !c.ok {
		t.Fatalf("equal images refused: %s", c.detail)
	}
	same[1][777] ^= 0x40
	if c := checkImages(img, same); c.ok {
		t.Fatal("a flipped byte passed the image check")
	}
	if c := checkImages(img, [][]byte{img[0], img[1][:len(img[1])-1]}); c.ok {
		t.Fatal("a short file passed the image check")
	}
}

func TestTallyRefusesOffByOne(t *testing.T) {
	if c := checkTally("t", 8192, 8192); !c.ok {
		t.Fatal("equal tallies refused")
	}
	if c := checkTally("t", 8192, 8193); c.ok {
		t.Fatal("an off-by-one tally passed")
	}
}

func TestScanRefusesMissingName(t *testing.T) {
	w := &metadata{}
	srv, err := startServer(liveConfig{drc: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	w.srv = srv
	dfh, err := srv.fs.Mkdir(vfs.RootFH, "d")
	if err != nil {
		t.Fatal(err)
	}
	d := &mdDir{fh: dfh, names: map[string]nfsproto.FH{}}
	for i := 0; i < 600; i++ { // several READDIR pages
		name := "x" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		fh, err := srv.fs.Create(dfh, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.names[name] = fh
	}
	if w.c, err = srv.dial(); err != nil {
		t.Fatal(err)
	}
	defer w.c.Close()
	for _, plus := range []bool{false, true} {
		w.scanErrs = nil
		if err := w.scan(d, plus); err != nil {
			t.Fatal(err)
		}
		if len(w.scanErrs) != 0 {
			t.Fatalf("faithful scan refused: %v", w.scanErrs)
		}
	}
	// The model loses a name the server still lists.
	delete(d.names, "xaa")
	w.scanErrs = nil
	if err := w.scan(d, false); err != nil {
		t.Fatal(err)
	}
	if len(w.scanErrs) == 0 {
		t.Fatal("a listed name missing from the model passed")
	}
	// The model has a name the server does not list.
	d.names["xaa"] = 1
	d.names["zz-not-there"] = 2
	w.scanErrs = nil
	if err := w.scan(d, true); err != nil {
		t.Fatal(err)
	}
	if len(w.scanErrs) == 0 {
		t.Fatal("a name missing from the scan passed")
	}
}

func TestScanRefusesCookieRegression(t *testing.T) {
	model := map[string]nfsproto.FH{"a": 1, "b": 2}
	ok := []scanEntry{{"a", 1, 1}, {"b", 2, 2}}
	if msg := checkScan(ok, model, false); msg != "" {
		t.Fatalf("faithful scan refused: %s", msg)
	}
	if msg := checkScan([]scanEntry{{"a", 2, 1}, {"b", 2, 2}}, model, false); msg == "" {
		t.Fatal("a repeated cookie passed")
	}
	if msg := checkScan([]scanEntry{{"a", 1, 1}, {"b", 2, 3}}, model, true); msg == "" {
		t.Fatal("a wrong handle passed")
	}
	if msg := checkScan([]scanEntry{{"a", 1, 1}, {"a", 2, 1}, {"b", 3, 2}}, model, false); msg == "" {
		t.Fatal("a duplicated name passed")
	}
}

func TestProcCountsRefuseOffByOne(t *testing.T) {
	issued := []int64{1, 5, 0, 9}
	if c := checkProcCounts(issued, []int64{1, 5, 0, 9, 0}); !c.ok {
		t.Fatalf("equal counts refused: %s", c.detail)
	}
	if c := checkProcCounts(issued, []int64{1, 5, 0, 10}); c.ok {
		t.Fatal("an off-by-one count passed")
	}
	if c := checkProcCounts(issued, []int64{1, 5, 0, 9, 1}); c.ok {
		t.Fatal("an executed call the benchmark never issued passed")
	}
}

func TestDRCRefusesOffByOne(t *testing.T) {
	if c := checkDRC(300, 300, 0, 0); !c.ok {
		t.Fatal("faithful DRC counters refused")
	}
	for _, bad := range [][4]int64{{300, 299, 0, 0}, {300, 300, 1, 0}, {300, 300, 0, 1}} {
		if c := checkDRC(bad[0], bad[1], bad[2], bad[3]); c.ok {
			t.Fatalf("DRC counters %v passed", bad)
		}
	}
}

// TestDRCRefusesMissingNonIdempotentCall: a server whose cache left out
// one of CREATE, RENAME or REMOVE would miss fewer times than the calls
// the benchmark counts as non-idempotent, and the check refuses it.
func TestDRCRefusesMissingNonIdempotentCall(t *testing.T) {
	var issued [nfsproto.ProcCommit + 1]int64
	issued[nfsproto.ProcCreate] = 200
	issued[nfsproto.ProcLookup] = 800
	issued[nfsproto.ProcGetattr] = 400
	issued[nfsproto.ProcSetattr] = 200
	issued[nfsproto.ProcRename] = 200
	issued[nfsproto.ProcRemove] = 200
	want := expectedDRCMisses(issued[:])
	if want != 600 {
		t.Fatalf("expected misses %d, want 600 (CREATE+RENAME+REMOVE)", want)
	}
	if c := checkDRC(want, 600, 0, 0); !c.ok {
		t.Fatalf("faithful DRC counters refused: %s", c.detail)
	}
	for _, p := range []uint32{nfsproto.ProcCreate, nfsproto.ProcRename, nfsproto.ProcRemove} {
		if c := checkDRC(want, 600-issued[p], 0, 0); c.ok {
			t.Errorf("a cache that leaves out %s passed", nfsproto.ProcName(p))
		}
	}
	if c := checkDRC(want, 600+issued[nfsproto.ProcSetattr], 0, 0); c.ok {
		t.Error("a cache that also holds SETATTR passed")
	}
}

// TestProbeCountsDifferingCells: the determinism probe sees a cell whose
// simulated results differ from the reference, and a missing cell.
func TestProbeCountsDifferingCells(t *testing.T) {
	mk := func() *simGrid {
		return &simGrid{cells: []simCell{
			{series: 0, readers: 2, res: workload.Result{Bytes: 1 << 20, Elapsed: 3e9}, counters: map[string]float64{"sim.events": 100}},
			{series: 0, readers: 4, res: workload.Result{Bytes: 1 << 20, Elapsed: 4e9}, counters: map[string]float64{"sim.events": 200}},
		}}
	}
	ref := mk()
	if n := differing(ref, mk()); n != 0 {
		t.Fatalf("identical grids: %d cells differ", n)
	}
	g := mk()
	g.cells[1].counters["sim.events"]++
	if n := differing(ref, g); n != 1 {
		t.Fatalf("one event more: %d cells differ, want 1", n)
	}
	g = mk()
	g.cells[0].res.Elapsed++
	if n := differing(ref, g); n != 1 {
		t.Fatalf("one nanosecond later: %d cells differ, want 1", n)
	}
	g = mk()
	g.cells = g.cells[:1]
	if n := differing(ref, g); n != 1 {
		t.Fatalf("a missing cell: %d cells differ, want 1", n)
	}
}

func TestSimChecksRefuseDoctoredCells(t *testing.T) {
	n := 4
	size := fileSetBytes(n, simScale) / int64(n)
	cell := simCell{readers: n, res: workload.Result{Bytes: size * int64(n)}}
	w := &simBusy{}
	w.inspect(&simGrid{cells: []simCell{cell}})
	if len(w.badBytes) != 0 {
		t.Fatalf("faithful byte count refused: %v", w.badBytes)
	}
	cell.res.Bytes -= workload.BlockSize
	w.inspect(&simGrid{cells: []simCell{cell}})
	if len(w.badBytes) == 0 {
		t.Fatal("a grid one block short passed")
	}
	if c := checkMediaRate(20e6, 41e6); !c.ok {
		t.Fatal("a reader below the media rate refused")
	}
	if c := checkMediaRate(41.5e6, 41e6); c.ok {
		t.Fatal("a reader above the media rate passed")
	}
}

// TestClaimsCheckedOnEveryPass: a pass after the first that breaks a
// fig7 claim fails the run.
func TestClaimsCheckedOnEveryPass(t *testing.T) {
	// grid gives each series the same MB/s at every reader count.
	grid := func(mbs ...float64) *simGrid {
		g := &simGrid{}
		for si := range simSeries {
			for _, n := range workload.ReaderCounts {
				b := fileSetBytes(n, simScale)
				g.cells = append(g.cells, simCell{series: si, readers: n,
					res: workload.Result{Bytes: b, Elapsed: time.Duration(float64(b) / mbs[si] * 1e3)}})
			}
		}
		return g
	}
	// always, slowdown/new, default/new, default/default nfsheur
	good := grid(13, 11, 11, 7.5)
	collapsedNot := grid(13, 11, 11, 11)
	w := &simBusy{}
	w.inspect(good)
	for _, c := range w.claimChecks() {
		if !c.ok {
			t.Fatalf("a faithful pass refused: %s: %s", c.name, c.detail)
		}
	}
	w.inspect(good)
	w.inspect(collapsedNot)
	failed := 0
	for _, c := range w.claimChecks() {
		if !c.ok {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("third pass without the old table's collapse: %d claims failed, want 1", failed)
	}
	if c := (&simBusy{}).claimChecks(); len(c) != 1 || c[0].ok {
		t.Fatal("a run with no claims evaluated passed")
	}
}

// TestFileSetBytes pins fileSetBytes to the file set the workload
// package actually creates.
func TestFileSetBytes(t *testing.T) {
	for _, n := range workload.ReaderCounts {
		want := int64(256/n) * workload.MB / simScale * int64(n)
		if got := fileSetBytes(n, simScale); got != want {
			t.Fatalf("n=%d: %d, want %d", n, got, want)
		}
	}
}

func TestPackageBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"nfstricks/internal/memfs.(*FS).Write":      "memfs",
		"nfstricks/internal/rpcnet.(*Client).Call":  "rpcnet",
		"nfstricks/internal/testbed.New":            "other",
		"main.(*readSeq).measure":                   "perfbench",
		"nfstricks/internal/nfsd.(*Service).read":   "nfsd",
		"nfstricks/internal/nfsproto.UnmarshalRead": "nfsproto",
	} {
		if got, ok := packageBucket(fn); !ok || got != want {
			t.Errorf("%s: %q, want %q", fn, got, want)
		}
	}
	if _, ok := packageBucket("runtime.memmove"); ok {
		t.Error("runtime.memmove charged to a repository package")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the
// workloads it names exist, and the metrics it lists are exactly the
// ones a run prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	e2e := map[string]string{}
	for _, m := range endToEnd {
		e2e[m.name] = m.unit
	}
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics listed, %d printed", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q, printed %q", m.Name, m.Unit, e2e[m.Name])
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics listed, %d printed", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if p := perLayerMetrics[i]; p.name != m.Name || p.unit != m.Unit {
			t.Errorf("per-layer %d: %s %s, printed %s %s", i, m.Name, m.Unit, p.name, p.unit)
		}
	}
}
