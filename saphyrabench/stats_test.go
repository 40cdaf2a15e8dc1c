package main

import (
	"testing"
	"time"
)

func TestWindowSizeLeavesTenSamplesBeyondTheQuantile(t *testing.T) {
	for q, want := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000} {
		if got := windowSize(q); got != want {
			t.Errorf("windowSize(%v) = %d, want %d", q, got, want)
		}
	}
}

func TestSplitKeepsTenSamplesBeyondEveryP99(t *testing.T) {
	lat := make([]float64, 3500)
	for i := range lat {
		lat[i] = float64(i % 100)
	}
	ws := split(lat, windowSize(0.99))
	if len(ws) != 3 {
		t.Fatalf("%d windows, want 3", len(ws))
	}
	n := 0
	for _, w := range ws {
		if len(w) < 100*minTailSamples {
			t.Errorf("window of %d requests: its p99 has fewer than %d beyond it", len(w), minTailSamples)
		}
		n += len(w)
	}
	if n != len(lat) {
		t.Errorf("windows cover %d requests, want %d", n, len(lat))
	}
	if got := split(lat[:10], windowSize(0.99)); len(got) != 1 {
		t.Errorf("a short run gives %d windows, want 1", len(got))
	}
}

func TestStealShareOverAnInterval(t *testing.T) {
	// Steal counters sampled at 0..6 s: one tick of steal per 100 in the
	// second 0..1, 3..4 and 5..6, none elsewhere.
	log := &stealLog{}
	steal, total := 0.0, 0.0
	for s := 0; s <= 6; s++ {
		log.at = append(log.at, time.Duration(s)*time.Second)
		log.steal = append(log.steal, steal)
		log.total = append(log.total, total)
		if s == 0 || s == 3 || s == 5 {
			steal++
		}
		total += 100
	}
	if s := log.share(0, 6*time.Second); s != 3.0/600 {
		t.Errorf("share over the run = %v, want %v", s, 3.0/600)
	}
	if s := log.share(time.Second, 3*time.Second); s != 0 {
		t.Errorf("share over 1..3 s = %v, want 0", s)
	}
}

func TestWindowQuantileIsTheMedianOfWindowQuantiles(t *testing.T) {
	lat := make([]float64, 60)
	for i := range lat {
		lat[i] = float64(i / 20 * 10) // windows of 20: all 0, all 10, all 20
	}
	lat[5] = 1000 // a stall moves one window's median, not the figure
	if got := windowQuantile(lat, 0.5); got != 10 {
		t.Errorf("median of window medians = %v, want 10", got)
	}
}
