package main

import "testing"

// TestRun runs the example end to end: every alert pushed, none after the
// unsubscribe, and the nearest readings confirmed by a flat scan.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
