package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// MarshalJSON encodes the Type as its wire name.
func (t Type) MarshalJSON() ([]byte, error) {
	name, ok := typeNames[t]
	if !ok {
		return nil, fmt.Errorf("trace: cannot marshal unknown type %d", int(t))
	}
	return json.Marshal(name)
}

// UnmarshalJSON decodes a wire name back into a Type.
func (t *Type) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	typ, err := TypeFromString(name)
	if err != nil {
		return err
	}
	*t = typ
	return nil
}

// WriteJSONL writes the log to w in wire form, one JSON object per line.
func WriteJSONL(w io.Writer, log Log) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for i, n := 0, log.Len(); i < n; i++ {
		ev := log.Unpack(log.At(i))
		if err := enc.Encode(&ev); err != nil {
			return fmt.Errorf("trace: write event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a JSONL stream produced by WriteJSONL. Blank lines are
// skipped. Analyze what it returns through LogOf.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}
