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
