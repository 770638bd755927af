package main

import "testing"

// TestRun runs the example end to end: the exact and the partial query and
// the aggregate each equal a flat scan of the inserted events.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
