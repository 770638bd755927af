package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Snapshot is an immutable copy of every registered family at one
// instant. It is safe to hand to a concurrent reader (the poolsim
// -debug-addr HTTP endpoint serves snapshots, never the live registry).
type Snapshot struct {
	Families []Family `json:"families"`
}

// Family is one metric family in a snapshot.
type Family struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// Point is one exported sample of a family. Labels come in ("name",
// "value") pairs; scalar metrics have none.
type Point struct {
	Labels []string `json:"labels,omitempty"`
	Value  float64  `json:"value"`
}

// Snapshot copies the registry's current state. The disabled registry
// snapshots to zero families.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	snap.Families = make([]Family, 0, len(r.entries))
	for _, e := range r.entries {
		f := Family{Name: e.name, Help: e.help, Kind: e.kind.String()}
		switch {
		case e.fn != nil:
			f.Points = []Point{{Value: e.fn()}}
		case e.cell != nil:
			f.Points = make([]Point, len(e.values))
			for i, lv := range e.values {
				f.Points[i] = Point{Labels: []string{e.label, lv}, Value: e.cell(i)}
			}
		case e.hist != nil:
			h := e.hist
			n := float64(h.Total())
			f.Points = []Point{
				{Labels: []string{"quantile", "0.5"}, Value: float64(h.Quantile(50))},
				{Labels: []string{"quantile", "0.95"}, Value: float64(h.Quantile(95))},
				{Labels: []string{"quantile", "0.99"}, Value: float64(h.Quantile(99))},
				{Labels: []string{"__sum", ""}, Value: h.Mean() * n},
				{Labels: []string{"__count", ""}, Value: n},
			}
		}
		snap.Families = append(snap.Families, f)
	}
	return snap
}

// Values returns the per-point values of the named family in point
// order, or nil when the name is unknown. Experiment tables read their
// per-node vectors through this so the text output and the export can
// never drift apart.
func (s Snapshot) Values(name string) []float64 {
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		out := make([]float64, len(f.Points))
		for i, p := range f.Points {
			out[i] = p.Value
		}
		return out
	}
	return nil
}

// Value returns the first point of the named family (0 when unknown).
func (s Snapshot) Value(name string) float64 {
	for _, f := range s.Families {
		if f.Name == name && len(f.Points) > 0 {
			return f.Points[0].Value
		}
	}
	return 0
}

// WriteTo renders the snapshot in the Prometheus text exposition format
// (version 0.0.4): "# HELP" and "# TYPE" headers per family, one sample
// line per point, histograms as summaries with quantile labels plus
// _sum and _count series.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	var n int64
	emit := func(format string, args ...any) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	for _, f := range s.Families {
		if f.Help != "" {
			if err := emit("# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return n, err
			}
		}
		if err := emit("# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return n, err
		}
		for _, p := range f.Points {
			name, labels := f.Name, p.Labels
			// Summary bookkeeping series use the reserved __sum/__count
			// pseudo-labels: they render as <name>_sum / <name>_count.
			if len(labels) == 2 && (labels[0] == "__sum" || labels[0] == "__count") {
				name += strings.TrimPrefix(labels[0], "_")
				labels = nil
			}
			if err := emit("%s%s %s\n", name, renderLabels(labels), formatValue(p.Value)); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// Text renders the snapshot as a Prometheus exposition string.
func (s Snapshot) Text() string {
	var b strings.Builder
	_, _ = s.WriteTo(&b)
	return b.String()
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// renderLabels formats ("name", "value") pairs as {name="value",...}.
func renderLabels(labels []string) string {
	if len(labels) < 2 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		// Label names are stricter than metric names: no colons.
		b.WriteString(strings.ReplaceAll(sanitizeName(labels[i]), ":", "_"))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double quote, and newline per the
// exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value: integral values render without an
// exponent or decimal point so counters stay readable.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
