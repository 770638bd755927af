package pool

import (
	"slices"
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/field"
	"pooldcs/internal/rng"
)

// paperDirectory lays the paper's Figure-2 Pools (l = 5) over a 300-node
// field, with no storage or radio behind it.
func paperDirectory(t testing.TB, replicate bool) *Directory {
	t.Helper()
	layout, err := field.Generate(field.DefaultSpec(300), rng.New(90))
	if err != nil {
		t.Fatal(err)
	}
	var pivots []CellID
	for _, p := range paperPools() {
		pivots = append(pivots, p.Pivot)
	}
	d, err := NewDirectory(layout, 3, 5, pivots, nil, replicate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDirectoryRules drives each rule of the directory with no system
// around it.
func TestDirectoryRules(t *testing.T) {
	p1c, p2c := CellID{X: 3, Y: 5}, CellID{X: 4, Y: 13}
	tests := []struct {
		name string
		run  func(t *testing.T, d *Directory)
	}{
		// §4.1: the tied event <0.4,0.4,0.2> has one candidate cell in P1
		// and one in P2; the detecting sensor's position picks.
		{"tie goes to the candidate nearest the origin", func(t *testing.T, d *Directory) {
			tied := event.New(0.4, 0.4, 0.2)
			for _, want := range []Key{{Dim: 1, Cell: p1c}, {Dim: 2, Cell: p2c}} {
				origin := d.IndexNode(want.Cell)
				key, index, err := d.Place(origin, tied)
				if err != nil || key != want || index != origin {
					t.Errorf("Place from the index node of %v = %v at %d, %v; want %v at %d",
						want.Cell, key, index, err, want, origin)
				}
			}
		}},
		{"malformed events are rejected", func(t *testing.T, d *Directory) {
			if _, _, err := d.Place(0, event.New(0.4, 0.3)); err == nil {
				t.Error("two-dimensional event placed in a three-dimensional deployment")
			}
			if _, _, err := d.Place(0, event.New(0.4, 1.3, 0.1)); err == nil {
				t.Error("out-of-range attribute placed")
			}
		}},
		{"alternate splitter skips avoid and nothing else", func(t *testing.T, d *Directory) {
			for _, p := range d.Pools() {
				for sink := 0; sink < 300; sink += 37 {
					sp := d.SplitterFor(p, sink)
					if got := d.AlternateSplitter(p, sink, -1); got != sp {
						t.Fatalf("nothing avoided: %d, splitter is %d", got, sp)
					}
					alt := d.AlternateSplitter(p, sink, sp)
					if alt == sp || alt < 0 {
						t.Fatalf("alternate for %v from %d = %d, splitter %d", p, sink, alt, sp)
					}
					// No holder other than the splitter is closer than alt.
					ad2 := d.layout.Pos(alt).Dist2(d.layout.Pos(sink))
					for _, c := range p.Cells() {
						if h := d.IndexNode(c); h != sp && d.layout.Pos(h).Dist2(d.layout.Pos(sink)) < ad2 {
							t.Fatalf("holder %d is closer to %d than alternate %d", h, sink, alt)
						}
					}
				}
			}
		}},
		{"mirror rejections", func(t *testing.T, d *Directory) {
			key := Key{Dim: 1, Cell: p1c}
			index := d.IndexNode(p1c)
			if _, ok := paperDirectory(t, false).MirrorFor(key, index); ok {
				t.Error("mirror without replication")
			}
			if _, ok := d.MirrorFor(key, index); ok {
				t.Error("mirror before any election")
			}
			m := d.ElectMirror(key, index)
			if m < 0 || m == index {
				t.Fatalf("elected mirror %d for index node %d", m, index)
			}
			if got, ok := d.MirrorFor(key, index); !ok || got != m {
				t.Errorf("MirrorFor = %d, %v; elected %d", got, ok, m)
			}
			if _, ok := d.MirrorFor(key, m); ok {
				t.Error("the unreachable node itself offered as mirror")
			}
			if _, err := d.MarkFailed(m); err != nil {
				t.Fatal(err)
			}
			if _, ok := d.MirrorFor(key, index); ok {
				t.Error("dead mirror offered")
			}
			if got := d.ElectMirror(key, index); got != -1 {
				t.Errorf("ElectMirror with a dead mirror = %d, want -1 (re-homing is the repair's job)", got)
			}
			d.RecoverNode(m)
			d.SetMirror(key, -1)
			if _, ok := d.MirrorFor(key, index); ok {
				t.Error("mirror offered after the cell lost it")
			}
		}},
		{"re-election shows through a warm memo", func(t *testing.T, d *Directory) {
			if err := d.CheckDirectory(); err != nil { // warms every (Pool, sink)
				t.Fatal(err)
			}
			p, sink := d.Pools()[0], d.IndexNode(p1c)
			if got := d.SplitterFor(p, sink); got != sink {
				t.Fatalf("an index node of %v is not its own splitter: %d vs %d", p, sink, got)
			}
			if changed, err := d.MarkFailed(sink); err != nil || !changed {
				t.Fatal(changed, err)
			}
			for _, c := range d.Orphaned() {
				d.Reelect(c, d.Elect(c, -1))
			}
			if got := d.SplitterFor(p, sink); got == sink {
				t.Error("memo still answers with the node every cell was re-elected away from")
			}
			if err := d.CheckDirectory(); err != nil {
				t.Error(err)
			}
			if len(d.Orphaned()) != 0 {
				t.Errorf("cells still orphaned: %v", d.Orphaned())
			}
		}},
		{"the check refuses corrupt tables", func(t *testing.T, d *Directory) {
			off := slices.Index(d.holder, -1)
			if off < 0 {
				t.Fatal("every grid cell is a Pool cell")
			}
			for _, corrupt := range []struct {
				name string
				tbl  []int32
				i    int
				v    int32
			}{
				{"an index node off every Pool", d.holder, off, 0},
				{"a Pool cell without an index node", d.holder, d.gridIndex(p1c), -1},
				{"a mirror outside the deployment", d.mirrors, 0, int32(len(d.dead))},
				{"a mirror below the sentinels", d.mirrors, 0, unelected - 1},
			} {
				was := corrupt.tbl[corrupt.i]
				corrupt.tbl[corrupt.i] = corrupt.v
				if err := d.CheckDirectory(); err == nil {
					t.Errorf("%s passes CheckDirectory", corrupt.name)
				}
				corrupt.tbl[corrupt.i] = was
			}
			if err := d.CheckDirectory(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, paperDirectory(t, true)) })
	}
}
