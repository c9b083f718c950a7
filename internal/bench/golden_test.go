package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files from the current code. A
// regeneration means the simulated model moved; say why in CHANGES.md.
var update = flag.Bool("update", false, "rewrite testdata/golden/*.json from the current simulator")

// goldenIDs are the simulated experiments: deterministic per seed, so
// their whole Result is pinned byte for byte.
var goldenIDs = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1",
	"ablate-aging", "ablate-cursors", "ablate-nfsheur", "ablate-window",
}

// goldenParams is small enough that all thirteen run in about a second.
var goldenParams = Params{Runs: 2, Scale: 64, Seed: 1}

// TestGolden compares every simulated experiment's Result, as indented
// JSON, with testdata/golden/<id>.json. Inequality shape tests pass a
// refactor that shifts every number the same way; this does not.
// Regenerate with: go test -run Golden ./internal/bench -update
func TestGolden(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			e, ok := Lookup(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			r, err := e.Run(goldenParams)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", id+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s differs from %s at line %d:\n got: %s\nwant: %s", id, path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s differs from %s in length: %d lines, want %d", id, path, len(gl), len(wl))
			}
		})
	}
}
