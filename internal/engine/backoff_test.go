package engine

import (
	"testing"
	"time"
)

// TestBackoffBounds checks the jitter window: attempt n sleeps uniformly
// in [d/2, d] where d is the capped exponential.
func TestBackoffBounds(t *testing.T) {
	base, max := 50*time.Millisecond, 2*time.Second
	for attempt := 0; attempt < 12; attempt++ {
		d := min(base<<attempt, max)
		for i := 0; i < 200; i++ {
			got := jobBackoff(attempt)
			if got < d/2 || got > d {
				t.Fatalf("jobBackoff(%d) = %v, want in [%v, %v]", attempt, got, d/2, d)
			}
		}
	}
}

// TestBackoffCap checks that huge attempt numbers saturate at the cap
// instead of overflowing the shift.
func TestBackoffCap(t *testing.T) {
	for _, attempt := range []int{29, 30, 31, 63, 1000} {
		got := jobBackoff(attempt)
		if got < time.Second || got > 2*time.Second {
			t.Fatalf("jobBackoff(%d) = %v, want in [1s, 2s]", attempt, got)
		}
	}
}
