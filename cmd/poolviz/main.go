// Command poolviz renders the Pool scheme's structures as ASCII art: the
// cell-range tables of Figure 3, the relevant-cell maps of Figures 4 and
// 5, and a bird's-eye view of a deployed network with its Pools.
//
// Usage:
//
//	poolviz ranges [-l N]                      Figure-3 style range table
//	poolviz query  [-l N] -q "L:U,L:U,..."     relevant cells per Pool
//	poolviz layout [-n N] [-seed S]            deployment overview
//	poolviz route  [-n N] [-seed S] -from A -to B   GPSR path between nodes
//
// Query syntax: comma-separated per-attribute ranges, each "lo:hi", a
// single point value "v", or "*" for an unspecified attribute, e.g.
// -q "*,*,0.8:0.84" reproduces the paper's Example 3.2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pooldcs/internal/event"
	"pooldcs/internal/experiment"
	"pooldcs/internal/pool"
	"pooldcs/internal/rng"
	"pooldcs/internal/texttable"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "poolviz:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: poolviz ranges|query|layout [flags]")
	}
	switch args[0] {
	case "ranges":
		return runRanges(args[1:], out)
	case "query":
		return runQuery(args[1:], out)
	case "layout":
		return runLayout(args[1:], out)
	case "route":
		return runRoute(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// paperPools returns the Figure-2 Pools used by the worked examples.
func paperPools(side int) []pool.Pool {
	return []pool.Pool{
		{Dim: 1, Pivot: pool.CellID{X: 1, Y: 2}, Side: side},
		{Dim: 2, Pivot: pool.CellID{X: 2, Y: 10}, Side: side},
		{Dim: 3, Pivot: pool.CellID{X: 7, Y: 3}, Side: side},
	}
}

func runRanges(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ranges", flag.ContinueOnError)
	side := fs.Int("l", 5, "pool side length in cells")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := paperPools(*side)[0]

	table := texttable.New(fmt.Sprintf("Cell value ranges of P1 (l=%d), Equation 1 / Figure 3", *side), "vo\\ho")
	for ho := 0; ho < *side; ho++ {
		table.Columns = append(table.Columns, p.RangeH(ho).String())
	}
	for vo := *side - 1; vo >= 0; vo-- {
		row := []string{strconv.Itoa(vo)}
		for ho := 0; ho < *side; ho++ {
			row = append(row, p.RangeV(ho, vo).String())
		}
		table.AddRow(row...)
	}
	fmt.Fprintln(out, table)
	return nil
}

// parseQuery parses "lo:hi,lo:hi,*" syntax into a Query.
func parseQuery(s string) (event.Query, error) {
	parts := strings.Split(s, ",")
	ranges := make([]event.Range, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "*" {
			ranges = append(ranges, event.Unspecified())
			continue
		}
		lohi := strings.SplitN(part, ":", 2)
		lo, err := strconv.ParseFloat(lohi[0], 64)
		if err != nil {
			return event.Query{}, fmt.Errorf("bad bound %q: %w", lohi[0], err)
		}
		hi := lo
		if len(lohi) == 2 {
			hi, err = strconv.ParseFloat(lohi[1], 64)
			if err != nil {
				return event.Query{}, fmt.Errorf("bad bound %q: %w", lohi[1], err)
			}
		}
		ranges = append(ranges, event.Span(lo, hi))
	}
	q := event.NewQuery(ranges...)
	if err := q.Validate(); err != nil {
		return event.Query{}, err
	}
	return q, nil
}

func runQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	side := fs.Int("l", 5, "pool side length in cells")
	qstr := fs.String("q", "", `query, e.g. "0.2:0.3,0.25:0.35,0.21:0.24" or "*,*,0.8:0.84"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *qstr == "" {
		return fmt.Errorf("missing -q")
	}
	q, err := parseQuery(*qstr)
	if err != nil {
		return err
	}
	if q.Dims() != 3 {
		return fmt.Errorf("the worked-example layout is three-dimensional; got %d attributes", q.Dims())
	}

	fmt.Fprintf(out, "Query %v (rewritten %v)\n\n", q, q.Rewrite())
	for _, p := range paperPools(*side) {
		rq := q.Rewrite()
		rh, rv := p.QueryRanges(rq)
		fmt.Fprintf(out, "P%d pivot %v: R_H=%v R_V=%v\n", p.Dim, p.Pivot, rh, rv)
		relevant := make(map[pool.CellID]bool)
		for _, c := range p.RelevantCells(rq) {
			relevant[c] = true
		}
		// Render the pool grid, top row first; '#' marks relevant cells.
		for vo := p.Side - 1; vo >= 0; vo-- {
			var b strings.Builder
			for ho := 0; ho < p.Side; ho++ {
				if relevant[p.Pivot.Add(ho, vo)] {
					b.WriteString(" #")
				} else {
					b.WriteString(" .")
				}
			}
			fmt.Fprintln(out, b.String())
		}
		if len(relevant) == 0 {
			fmt.Fprintln(out, "(no relevant cells)")
		} else {
			cells := p.RelevantCells(rq)
			names := make([]string, len(cells))
			for i, c := range cells {
				names[i] = c.String()
			}
			fmt.Fprintln(out, "relevant:", strings.Join(names, " "))
		}
		fmt.Fprintln(out)
	}
	return nil
}

func runLayout(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("layout", flag.ContinueOnError)
	n := fs.Int("n", 300, "number of sensor nodes")
	seed := fs.Int64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	src := rng.New(*seed)
	env, p, _, err := experiment.NewEnv(*n, 3, src)
	if err != nil {
		return err
	}
	layout := env.Layout
	g := p.Grid()

	// Character grid: 2 cells per character column to keep aspect ratio.
	const maxWidth = 100
	step := 1
	for g.Cols/step > maxWidth {
		step++
	}
	fmt.Fprintf(out, "%d nodes, field %.0f m × %.0f m, %d×%d cells of %.0f m (1 char = %d cells)\n",
		layout.N(), layout.Side, layout.Side, g.Cols, g.Rows, g.Alpha, step)
	fmt.Fprintln(out, "digits = Pool cells (pool number), * = node present, . = empty")

	poolOf := make(map[pool.CellID]int)
	for _, pl := range p.Pools() {
		for _, c := range pl.Cells() {
			poolOf[c] = pl.Dim
		}
	}
	occupied := make(map[pool.CellID]bool)
	for i := 0; i < layout.N(); i++ {
		occupied[g.CellOf(layout.Pos(i))] = true
	}

	for y := g.Rows - 1; y >= 0; y -= step {
		var b strings.Builder
		for x := 0; x < g.Cols; x += step {
			ch := "."
			for dy := 0; dy < step && ch == "."; dy++ {
				for dx := 0; dx < step; dx++ {
					c := pool.CellID{X: x + dx, Y: y - dy}
					if d, ok := poolOf[c]; ok {
						ch = strconv.Itoa(d)
						break
					}
					if occupied[c] {
						ch = "*"
					}
				}
			}
			b.WriteString(ch)
		}
		fmt.Fprintln(out, b.String())
	}
	return nil
}

func runRoute(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	n := fs.Int("n", 300, "number of sensor nodes")
	seed := fs.Int64("seed", 42, "random seed")
	from := fs.Int("from", 0, "source node")
	to := fs.Int("to", -1, "destination node")
	if err := fs.Parse(args); err != nil {
		return err
	}

	env, err := experiment.Deploy(*n, 3, rng.New(*seed))
	if err != nil {
		return err
	}
	layout := env.Layout
	if *to < 0 {
		*to = layout.N() - 1
	}
	if *from < 0 || *from >= layout.N() || *to < 0 || *to >= layout.N() {
		return fmt.Errorf("nodes must be in 0..%d", layout.N()-1)
	}
	res, err := env.Router.RouteToNode(*from, *to)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "GPSR %d → %d: %d hops (%d greedy, %d perimeter), distance %.0f m\n",
		*from, *to, res.Hops(), res.GreedyHops, res.PerimeterHops,
		layout.Pos(*from).Dist(layout.Pos(*to)))

	// Raster the field: '.' empty, 'o' node, '*' path, S source, D dest.
	const cols = 78
	cell := layout.Side / cols
	rows := cols / 2 // terminal characters are ~2× taller than wide
	rcell := layout.Side / float64(rows)
	raster := make([][]byte, rows)
	for y := range raster {
		raster[y] = make([]byte, cols)
		for x := range raster[y] {
			raster[y][x] = '.'
		}
	}
	plot := func(id int, ch byte) {
		p := layout.Pos(id)
		x := int(p.X / cell)
		y := int(p.Y / rcell)
		if x >= cols {
			x = cols - 1
		}
		if y >= rows {
			y = rows - 1
		}
		raster[rows-1-y][x] = ch
	}
	for i := 0; i < layout.N(); i++ {
		plot(i, 'o')
	}
	for _, id := range res.Path {
		plot(id, '*')
	}
	plot(*from, 'S')
	plot(*to, 'D')
	for _, row := range raster {
		fmt.Fprintln(out, string(row))
	}
	fmt.Fprintln(out, "path:", res.Path)
	return nil
}
