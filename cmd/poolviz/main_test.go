package main

import (
	"fmt"
	"strings"
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/experiment"
	"pooldcs/internal/rng"
)

func TestParseQuery(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{in: "0.2:0.3,0.25:0.35,0.21:0.24", want: "<[0.200, 0.300], [0.250, 0.350], [0.210, 0.240]>"},
		{in: "*,*,0.8:0.84", want: "<*, *, [0.800, 0.840]>"},
		{in: "0.5", want: "<[0.500]>"},
		{in: " 0.1:0.2 , * ", want: "<[0.100, 0.200], *>"},
		{in: "abc", wantErr: true},
		{in: "0.5:xyz", wantErr: true},
		{in: "0.9:0.1", wantErr: true}, // inverted range
		{in: "*,*", wantErr: true},     // all wild
		{in: "1.5:1.7", wantErr: true}, // out of domain
	}
	for _, tt := range tests {
		q, err := parseQuery(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseQuery(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && q.String() != tt.want {
			t.Errorf("parseQuery(%q) = %v, want %v", tt.in, q, tt.want)
		}
	}
}

func TestRunRanges(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"ranges"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// Figure 3 landmarks.
	for _, want := range []string{"[0.0000, 0.2000)", "[0.2400, 0.3200)", "[0.8000, 1.0000)"} {
		if !strings.Contains(got, want) {
			t.Errorf("ranges output missing %q:\n%s", want, got)
		}
	}
}

func TestRunQueryExample32(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"query", "-q", "*,*,0.8:0.84"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// Figure 5's relevant cells.
	for _, want := range []string{"C(5,6)", "C(6,14)", "C(11,3)", "C(11,7)"} {
		if !strings.Contains(got, want) {
			t.Errorf("query output missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(got, "#") {
		t.Error("no cells marked in the grid rendering")
	}
}

func TestRunQueryNoRelevantCells(t *testing.T) {
	var out strings.Builder
	// Example 3.1's query leaves P3 empty.
	if err := run([]string{"query", "-q", "0.2:0.3,0.25:0.35,0.21:0.24"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(no relevant cells)") {
		t.Error("P3's empty result not rendered")
	}
	if !strings.Contains(out.String(), "C(2,5)") {
		t.Error("Figure 4's C(2,5) missing")
	}
}

func TestRunLayout(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"layout", "-n", "300", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "300 nodes") {
		t.Errorf("layout header missing:\n%.200s", got)
	}
	// All three pools must appear.
	for _, d := range []string{"1", "2", "3"} {
		if !strings.Contains(got, d) {
			t.Errorf("pool %s not rendered", d)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"query"}, &out); err == nil {
		t.Error("query without -q accepted")
	}
	if err := run([]string{"query", "-q", "0.1:0.2"}, &out); err == nil {
		t.Error("non-3-dimensional query accepted")
	}
}

func TestPaperPoolsMatchFigure2(t *testing.T) {
	pools := paperPools(5)
	if len(pools) != 3 {
		t.Fatal("want 3 pools")
	}
	if pools[0].Pivot.X != 1 || pools[0].Pivot.Y != 2 {
		t.Errorf("PC1 = %v, want C(1,2)", pools[0].Pivot)
	}
	if pools[1].Pivot.X != 2 || pools[1].Pivot.Y != 10 {
		t.Errorf("PC2 = %v, want C(2,10)", pools[1].Pivot)
	}
	if pools[2].Pivot.X != 7 || pools[2].Pivot.Y != 3 {
		t.Errorf("PC3 = %v, want C(7,3)", pools[2].Pivot)
	}
}

func TestParseQueryPointValue(t *testing.T) {
	q, err := parseQuery("0.25,0.5:0.6,*")
	if err != nil {
		t.Fatal(err)
	}
	if q.Ranges[0] != event.PointRange(0.25) {
		t.Errorf("point range = %+v", q.Ranges[0])
	}
}

func TestRunRoute(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"route", "-n", "300", "-seed", "3", "-from", "1", "-to", "250"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "GPSR 1 → 250") {
		t.Errorf("route header missing:\n%.200s", got)
	}
	if !strings.Contains(got, "S") || !strings.Contains(got, "D") {
		t.Error("source/destination markers missing")
	}
	if !strings.Contains(got, "path: [1") {
		t.Error("path listing missing")
	}
}

func TestRunRouteDefaults(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"route"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "GPSR 0 → 299") {
		t.Errorf("default route wrong:\n%.120s", out.String())
	}
}

func TestRunRouteValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"route", "-from", "-2"}, &out); err == nil {
		t.Error("negative source accepted")
	}
	if err := run([]string{"route", "-to", "99999"}, &out); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

// FuzzParseQuery ensures arbitrary query strings never panic the parser
// and that accepted queries are valid.
func FuzzParseQuery(f *testing.F) {
	f.Add("0.2:0.3,0.25:0.35,0.21:0.24")
	f.Add("*,*,0.8:0.84")
	f.Add("")
	f.Add(":::,,,***")
	f.Fuzz(func(t *testing.T, s string) {
		q, err := parseQuery(s)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("parseQuery(%q) returned invalid query: %v", s, err)
		}
	})
}

// TestRunRouteDrawsDeployedField: route draws the field experiment.Deploy
// builds at the same seed, the one layout draws too.
func TestRunRouteDrawsDeployedField(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"route", "-n", "300", "-seed", "42", "-from", "0", "-to", "299"}, &out); err != nil {
		t.Fatal(err)
	}
	env, err := experiment.Deploy(300, 3, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("distance %.0f m", env.Layout.Pos(0).Dist(env.Layout.Pos(299)))
	if !strings.Contains(out.String(), want) {
		t.Errorf("route output lacks %q:\n%s", want, out.String())
	}
}
