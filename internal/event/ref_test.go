package event

// refFilter is the two-pass Filter that AppendMatches replaced — count,
// allocate exactly, fill — kept as the reference the kernel is compared
// against.
func refFilter(q Query, events []Event) []Event {
	n := 0
	for _, e := range events {
		if q.Matches(e) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for _, e := range events {
		if q.Matches(e) {
			out = append(out, e)
		}
	}
	return out
}
