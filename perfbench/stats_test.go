package main

import "testing"

func series(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileRefusesThinTail(t *testing.T) {
	if _, ok := series(999).percentile(99); ok {
		t.Fatal("p99 of 999 samples has 9.99 samples beyond it and must be refused")
	}
	if v, ok := series(1000).percentile(99); !ok || v < 989 || v > 991 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want ~990", v, ok)
	}
	if _, ok := series(199).percentile(95); ok {
		t.Fatal("p95 of 199 samples must be refused")
	}
	if m := tail("x_p99_ms", series(500), 99); m.Refused == "" {
		t.Fatal("tail did not mark a refused p99")
	}
	if m := tail("x_p99_ms", series(2000), 99); m.Refused != "" || m.N != 2000 {
		t.Fatalf("tail refused a supported p99: %+v", m)
	}
}

func TestMedianNeedsOneSample(t *testing.T) {
	if m := (samples{3}).median(); m != 3 {
		t.Fatalf("median of one sample = %v", m)
	}
	if m := (samples{4, 1, 3, 2}).median(); m != 2.5 {
		t.Fatalf("median of 1..4 = %v", m)
	}
}
