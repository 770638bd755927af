package main

import "testing"

// TestRun runs the example end to end: every alert pushed, and none after
// the unsubscribe.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
