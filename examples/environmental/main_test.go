package main

import "testing"

// TestRun runs the example end to end: exact- and partial-match queries
// over physical units, and a COUNT equal to its query's answer.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
