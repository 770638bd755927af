package pool

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"pooldcs/internal/event"
	"pooldcs/internal/holding"
	"pooldcs/internal/rng"
)

// The directory and the store keep their per-cell state in dense tables
// whose index order is the order every deterministic walk wants, so the
// walks need no sort. This file keeps the hash-map-plus-sort versions of
// those walks as a reference and checks the tables against them.

// CheckReplicaPairs is pooltest.CheckReplicaPairs, the reference the
// replica pair walk is held to; pooltest_test.go sets it.
var CheckReplicaPairs func(*System) error

// keyLess orders keys by (dimension, row, column): MirrorKeys' order.
func keyLess(a, b Key) bool {
	if a.Dim != b.Dim {
		return a.Dim < b.Dim
	}
	return cellLess(a.Cell, b.Cell)
}

// cellLess orders cells row-major: Orphaned's order.
func cellLess(a, b CellID) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// compareKeys orders keys by (dimension, column, row): the order of
// Crash's losses and of EachSegment.
func compareKeys(a, b Key) int {
	return cmp.Or(cmp.Compare(a.Dim, b.Dim), cmp.Compare(a.Cell.X, b.Cell.X), cmp.Compare(a.Cell.Y, b.Cell.Y))
}

// refHolder, refMirrors and refSegs rebuild the hash maps the tables
// replaced.
func refHolder(d *Directory) map[CellID]int {
	m := make(map[CellID]int)
	for _, p := range d.pools {
		for _, c := range p.Cells() {
			m[c] = d.IndexNode(c)
		}
	}
	return m
}

func refMirrors(d *Directory) map[Key]int {
	m := make(map[Key]int)
	for _, p := range d.pools {
		for _, c := range p.Cells() {
			key := Key{Dim: p.Dim, Cell: c}
			if node := d.mirrorAt(d.slot(key)); node != unelected {
				m[key] = node
			}
		}
	}
	return m
}

func refSegs(st *Store) map[Key][]holding.Segment {
	m := make(map[Key][]holding.Segment)
	for _, p := range st.dir.pools {
		for _, c := range p.Cells() {
			key := Key{Dim: p.Dim, Cell: c}
			if segs := st.Segments(key); segs != nil {
				m[key] = segs
			}
		}
	}
	return m
}

func refMirrorKeys(d *Directory) []Key {
	var keys []Key
	for key := range refMirrors(d) {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

func refOrphaned(d *Directory) []CellID {
	var out []CellID
	for c, h := range refHolder(d) {
		if d.dead[h] {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return cellLess(out[i], out[j]) })
	return out
}

// segRow is one segment as a walk reports it.
type segRow struct {
	Key    Key
	Seg    int
	Node   int
	Events int
}

// refCrash returns the losses a crash of node is to report, taken before
// the crash.
func refCrash(st *Store, node int) []segRow {
	var lost []segRow
	for key, segs := range refSegs(st) {
		for i, seg := range segs {
			if seg.Node == node {
				lost = append(lost, segRow{Key: key, Seg: i, Node: node, Events: seg.Rows.Len()})
			}
		}
	}
	slices.SortFunc(lost, func(a, b segRow) int { return cmp.Or(compareKeys(a.Key, b.Key), cmp.Compare(a.Seg, b.Seg)) })
	return lost
}

func refEachSegment(st *Store) []segRow {
	segs := refSegs(st)
	keys := make([]Key, 0, len(segs))
	for key := range segs {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, compareKeys)
	var rows []segRow
	for _, key := range keys {
		for i, seg := range segs[key] {
			rows = append(rows, segRow{Key: key, Seg: i, Node: seg.Node, Events: seg.Rows.Len()})
		}
	}
	return rows
}

func eachSegment(st *Store) []segRow {
	var rows []segRow
	seg, prev := 0, Key{}
	st.EachSegment(func(key Key, node int, events []event.Event) {
		if key != prev {
			seg, prev = 0, key
		}
		rows = append(rows, segRow{Key: key, Seg: seg, Node: node, Events: len(events)})
		seg++
	})
	return rows
}

// checkWalks compares every slot walk with its reference and, with full,
// runs the directory's and the store's own checks.
func checkWalks(d *Directory, st *Store, full bool) error {
	if got, want := d.MirrorKeys(), refMirrorKeys(d); !slices.Equal(got, want) {
		return fmt.Errorf("MirrorKeys = %v, reference %v", got, want)
	}
	if got, want := d.Orphaned(), refOrphaned(d); !slices.Equal(got, want) {
		return fmt.Errorf("Orphaned = %v, reference %v", got, want)
	}
	if got, want := eachSegment(st), refEachSegment(st); !slices.Equal(got, want) {
		return fmt.Errorf("EachSegment = %v, reference %v", got, want)
	}
	if !full {
		return nil
	}
	if err := d.CheckDirectory(); err != nil {
		return err
	}
	return st.CheckStore()
}

// orderDriver is one way of driving a Directory and its Store.
type orderDriver interface {
	insert(origin int, e event.Event, delegate int) error
	fail(id int) error
	parts() (*Directory, *Store)
}

// systemDriver is pool.System: FailNode hands lost segments over.
type systemDriver struct{ s *System }

func (sd systemDriver) insert(origin int, e event.Event, _ int) error { return sd.s.Insert(origin, e) }
func (sd systemDriver) fail(id int) error                             { return sd.s.FailNode(id) }
func (sd systemDriver) parts() (*Directory, *Store)                   { return sd.s.Directory, sd.s.Store }

// actorDriver moves a bare Directory and Store the way the actor engine
// does: inserts may open delegated segments, and a failure restores the
// lost cells' mirror copies into the new index nodes' own segments. It
// checks each crash's losses against the reference order on the way.
type actorDriver struct {
	d  *Directory
	st *Store
}

func (ad actorDriver) parts() (*Directory, *Store) { return ad.d, ad.st }

func (ad actorDriver) insert(origin int, e event.Event, delegate int) error {
	key, index, err := ad.d.Place(origin, e)
	if err != nil {
		return err
	}
	if delegate >= 0 && !ad.d.Failed(delegate) {
		ad.st.AppendSegment(key, delegate, e)
	} else {
		ad.st.Append(key, index, e)
	}
	if ad.d.ElectMirror(key, index) >= 0 {
		ad.st.AppendMirror(key, e)
	}
	return nil
}

func (ad actorDriver) fail(id int) error {
	if changed, err := ad.d.MarkFailed(id); err != nil || !changed {
		return err
	}
	for _, c := range ad.d.Orphaned() {
		ad.d.Reelect(c, ad.d.Elect(c, -1))
	}
	want := refCrash(ad.st, id)
	var got []segRow
	for _, l := range ad.st.Crash(id) {
		key := l.Unit
		got = append(got, segRow{Key: key, Seg: l.Seg, Node: id, Events: l.Rows.Len()})
		if _, ok := ad.d.MirrorFor(key, -1); ok {
			ad.st.Restore(key, ad.d.IndexNode(key.Cell), ad.st.MirrorCopy(key))
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("Crash(%d) = %v, reference %v", id, got, want)
	}
	for _, key := range ad.d.MirrorKeys() {
		if ad.d.Mirror(key) == id {
			ad.d.SetMirror(key, ad.d.Elect(key.Cell, ad.d.IndexNode(key.Cell)))
		}
	}
	return nil
}

// TestSlotWalksMatchSortedReference drives both drivers through random
// insert / crash / recover / re-elect sequences and holds every slot walk
// to the order the map-plus-sort reference gives.
func TestSlotWalksMatchSortedReference(t *testing.T) {
	const n = 200
	drivers := map[string]func(seed int64) orderDriver{
		"system": func(seed int64) orderDriver {
			s, _, _ := newUniverse(t, n, seed, WithReplication())
			return systemDriver{s}
		},
		"actor": func(seed int64) orderDriver {
			s, _, _ := newUniverse(t, n, seed, WithReplication())
			var pivots []CellID
			for _, p := range s.Pools() {
				pivots = append(pivots, p.Pivot)
			}
			d, err := NewDirectory(s.layout, 3, s.Pools()[0].Side, pivots, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			return actorDriver{d: d, st: NewStore(d)}
		},
	}
	for _, name := range []string{"system", "actor"} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				drv := drivers[name](700 + seed)
				d, st := drv.parts()
				src := rng.New(seed)
				var failed []int
				for step := 0; step < 300; step++ {
					var err error
					switch op := src.Intn(20); {
					case op < 14:
						e := event.New(src.Float64(), src.Float64(), src.Float64())
						e.Seq = uint64(step + 1)
						delegate := -1
						if op == 0 {
							delegate = src.Intn(n)
						}
						err = drv.insert(src.Intn(n), e, delegate)
					case op < 16 && len(failed) < n/4:
						id := src.Intn(n)
						failed = append(failed, id)
						err = drv.fail(id)
					case op < 18 && len(failed) > 0:
						i := src.Intn(len(failed))
						d.RecoverNode(failed[i])
						failed = slices.Delete(failed, i, i+1)
					default:
						p := d.Pools()[src.Intn(len(d.Pools()))]
						if to := d.NearestAlive(d.layout.Pos(src.Intn(n)), -1); to >= 0 {
							d.Reelect(p.Cells()[src.Intn(p.numCells())], to)
						}
					}
					if err == nil {
						err = checkWalks(d, st, step%20 == 19)
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				if len(d.MirrorKeys()) == 0 || len(eachSegment(st)) == 0 {
					t.Fatal("vacuous: no mirrors or no segments")
				}
			})
		}
	}
}

// The slot of a key is its rank in the walk order, and keyAt inverts it.
func TestSlotRoundTrip(t *testing.T) {
	d := paperDirectory(t, true)
	var keys []Key
	for _, p := range d.Pools() {
		for _, c := range p.Cells() {
			keys = append(keys, Key{Dim: p.Dim, Cell: c})
		}
	}
	slices.SortFunc(keys, compareKeys)
	for i, key := range keys {
		if s := d.slot(key); s != i || !reflect.DeepEqual(d.keyAt(s), key) {
			t.Fatalf("slot(%v) = %d, keyAt = %v; want %d", key, s, d.keyAt(s), i)
		}
	}
	p := d.Pools()[0]
	for _, off := range []CellID{{X: -1, Y: 0}, {X: p.Side, Y: 0}, {X: 0, Y: -1}, {X: 0, Y: p.Side}} {
		if s := d.slot(Key{Dim: p.Dim, Cell: p.Pivot.Add(off.X, off.Y)}); s != -1 {
			t.Errorf("slot of a cell off P%d at offset %v = %d, want -1", p.Dim, off, s)
		}
	}
	if s := d.slot(Key{Dim: len(d.Pools()) + 1, Cell: p.Pivot}); s != -1 {
		t.Errorf("slot of a key past the last Pool = %d, want -1", s)
	}
}

// allSegs returns every slot's segments, in slot order.
func (st *Store) allSegs() [][]holding.Segment {
	out := make([][]holding.Segment, st.dir.numSlots())
	for i := range out {
		out[i] = st.Segments(st.dir.keyAt(i))
	}
	return out
}
