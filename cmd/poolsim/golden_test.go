package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pooldcs/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden locks the exact output of the seeded quick runs: any change
// to placement, routing, resolving, or cost accounting shows up as a
// golden diff. Regenerate intentionally with:
//
//	go test ./cmd/poolsim -run Golden -update
func TestGolden(t *testing.T) {
	type golden struct {
		name string
		args []string
	}
	// Every table at -quick, plus the two actor-backend flavours of the
	// resilience sweep the table list cannot name.
	cases := []golden{
		{"resilience-node", []string{"-quick", "-backend=node", "-repair", "resilience"}},
		{"resilience-node-norepair", []string{"-quick", "-backend=node", "resilience"}},
	}
	for _, tbl := range experiment.Tables() {
		cases = append(cases, golden{tbl.Name, []string{"-quick", tbl.Name}})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output diverged from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestAllMatchesGoldens: "all" runs every table on one shared pool, the
// tables overlapping, yet prints exactly the per-table goldens joined in
// report order, sequentially and with eight goroutines computing at once.
func TestAllMatchesGoldens(t *testing.T) {
	var want strings.Builder
	for _, tbl := range experiment.Tables() {
		b, err := os.ReadFile(filepath.Join("testdata", tbl.Name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(b)
	}
	for _, parallel := range []string{"1", "8"} {
		var out strings.Builder
		if err := run([]string{"-quick", "-parallel", parallel, "all"}, &out); err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
		if out.String() != want.String() {
			t.Errorf("-parallel %s all differs from the per-table goldens joined in report order", parallel)
		}
	}
}
