package main

import "testing"

// TestRun runs the example end to end: GHT refuses the range query, and
// the arms return the same events for every query they are costed on.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
