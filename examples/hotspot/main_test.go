package main

import "testing"

// TestRun runs the example end to end: plain and workload-sharing Pool
// return the same events for the fire-zone query.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
