package main

import "testing"

// TestRun runs the example end to end: the failed node is evicted and the
// survivors' tables match the topology without it.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
