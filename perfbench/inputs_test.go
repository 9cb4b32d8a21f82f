package main

import (
	"bytes"
	"testing"

	"github.com/mosaic-hpc/mosaic/internal/store"
)

// TestFreshTracesBySeed checks the fresh-trace source: the same seed
// gives the same bytes, every index gives a new content address, and a
// different seed gives a disjoint set.
func TestFreshTracesBySeed(t *testing.T) {
	a, err := genPool(1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := genPool(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genPool(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 * poolSize
	seen := make(map[store.TraceID]bool, n)
	for k := 0; k < n; k++ {
		blob, _, err := a.variant(nil, k)
		if err != nil {
			t.Fatal(err)
		}
		same, _, _ := again.variant(nil, k)
		if !bytes.Equal(blob, same) {
			t.Fatalf("seed 1 trace %d differs between two generations", k)
		}
		id := store.HashBytes(blob)
		if seen[id] {
			t.Fatalf("seed 1 trace %d repeats an earlier trace", k)
		}
		seen[id] = true
	}
	for k := 0; k < n; k++ {
		blob, _, err := b.variant(nil, k)
		if err != nil {
			t.Fatal(err)
		}
		if seen[store.HashBytes(blob)] {
			t.Fatalf("seed 2 trace %d is also a seed 1 trace", k)
		}
	}
}
