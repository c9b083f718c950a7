package nfstricks

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"nfstricks/internal/nfsproto"
	"nfstricks/internal/nfstrace"
	"nfstricks/internal/readahead"
)

func TestFacadeTestbed(t *testing.T) {
	tb, err := NewTestbed(Options{Seed: 5, Disk: IDE})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.FS.Create("data", 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := RunNFSReaders(tb, []string{"data"})
	tb.K.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 4<<20 || res.ThroughputMBps() <= 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestFacadeHeuristics(t *testing.T) {
	var s HeurState
	s.Reset()
	heuristics := []Heuristic{Default{}, SlowDown{}, Always{}, &CursorHeuristic{}}
	for _, h := range heuristics {
		s.Reset()
		got := h.Update(&s, 0, 8192)
		if got < 1 || got > readahead.SeqMax {
			t.Fatalf("%s: count %d out of range", h.Name(), got)
		}
	}
}

func TestFacadeLiveMode(t *testing.T) {
	fs := NewLiveFS()
	fs.Create(LiveRootFH, "f", []byte("hello live mode"))
	svc := NewLiveService(fs, LiveConfig{Heuristic: SlowDown{}})
	srv, err := ServeLive("127.0.0.1:0", svc, LiveServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialLive("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, size, err := c.Lookup(LiveRootFH, "f")
	if err != nil || size != 15 {
		t.Fatalf("lookup: size=%d err=%v", size, err)
	}
	data, eof, err := c.Read(fh, 6, 4)
	if err != nil || string(data) != "live" || eof {
		t.Fatalf("read %q eof=%v err=%v", data, eof, err)
	}
}

func TestWorkloadHelpers(t *testing.T) {
	if names := FilesFor(4); len(names) != 4 {
		t.Fatalf("FilesFor(4) = %v", names)
	}
}

func TestTracerEndToEnd(t *testing.T) {
	var tr nfstrace.Tracer
	tb, err := NewTestbed(Options{Seed: 9, Disk: IDE,
		Server: ServerConfig{Tracer: &tr}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.FS.Create("data", 2<<20); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := RunNFSReaders(tb, []string{"data"}); err != nil {
		t.Fatal(err)
	}
	tb.K.Shutdown()
	a := nfstrace.Analyze(tr.Records(), nfsproto.ProcRead)
	if a.Reads < 200 || a.Files != 1 {
		t.Fatalf("trace analysis: %+v", a)
	}
	if a.SequentialFrac < 0.5 {
		t.Fatalf("sequential workload traced as %.0f%% sequential", 100*a.SequentialFrac)
	}
	if a.ReorderFrac < 0 || a.ReorderFrac > 0.2 {
		t.Fatalf("reorder fraction %.2f implausible for one reader", a.ReorderFrac)
	}
}

// facadeSurface is every exported name of nfstricks.go, sorted. The
// facade exports what the examples use and the types those names need;
// a new export shows up here as a diff.
var facadeSurface = []string{
	"Always",
	"CreateFileSet",
	"CursorHeuristic",
	"Default",
	"DialLive",
	"DiskKind",
	"FilesFor",
	"HeurState",
	"Heuristic",
	"IDE",
	"ImprovedNfsheur",
	"LiveClient",
	"LiveConfig",
	"LiveFS",
	"LiveRootFH",
	"LiveServerOptions",
	"LiveService",
	"NewLiveFS",
	"NewLiveService",
	"NewTestbed",
	"NfsheurParams",
	"Options",
	"RPCServer",
	"RunLocalReaders",
	"RunNFSReaders",
	"RunNFSStrideReader",
	"SCSI",
	"ServeLive",
	"ServerConfig",
	"SlowDown",
	"StorageBackend",
	"Testbed",
}

func TestFacadeSurface(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "nfstricks.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					got = append(got, spec.Name.Name)
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						got = append(got, n.Name)
					}
				}
			}
		}
	}
	exported := got[:0]
	for _, n := range got {
		if ast.IsExported(n) {
			exported = append(exported, n)
		}
	}
	sort.Strings(exported)
	if g, w := strings.Join(exported, "\n"), strings.Join(facadeSurface, "\n"); g != w {
		t.Fatalf("facade exports changed:\ngot:\n%s\n\nwant:\n%s", g, w)
	}
}
