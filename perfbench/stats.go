package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// quantile returns the nearest-rank q-quantile of ascending values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tail returns the highest percentile, at most p99, that leaves at
// least tailBeyond of the ascending values above it, and its value.
// Below 2*tailBeyond values that percentile would not even reach the
// median: ok is false and the maximum is returned as q = 1.
func tail(sorted []float64) (q, v float64, ok bool) {
	n := len(sorted)
	if n < 2*tailBeyond {
		if n == 0 {
			return 1, 0, false
		}
		return 1, sorted[n-1], false
	}
	// The nearest-rank value at rank r has n-r values above it.
	r := n - tailBeyond
	q = float64(r) / float64(n)
	if q > 0.99 {
		q = 0.99
		r = int(math.Ceil(q * float64(n)))
	}
	return q, sorted[r-1], true
}

// median returns the median of values (the mean of the middle pair
// for an even count), leaving values unchanged.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// least returns the smallest of values, 0 for none.
func least(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return slices.Min(values)
}

// dueTiming splits one open-loop request's timeline. due is when the
// schedule said to send it, free is when the sender that took it
// finished its previous request, sent and done bracket the call.
// Lateness is the generator's own fault: how long after both the due
// time and a free sender the send actually began. Latency runs from
// the due time, less that lateness, so a stall still charges every
// request it delays: waiting for a busy sender is the system's queue
// (connections are capped), so it is latency, not lateness.
func dueTiming(due, free, sent, done time.Time) (latency, late time.Duration) {
	ready := due
	if free.After(ready) {
		ready = free
	}
	late = sent.Sub(ready)
	if late < 0 {
		late = 0
	}
	return done.Sub(due) - late, late
}

// tailWindows is how many windows windowTail splits a phase into.
const tailWindows = 5

// windowTail splits latencies, in the order their requests were due,
// into tailWindows windows and returns the median of the windows'
// tails with the windows' tail percentile. A stall of a shared host, or
// a few of the heaviest requests landing together, falls in one window
// and moves the median less than it moves the tail of the whole phase.
// Below 2*tailBeyond samples a window there is one window: the plain
// tail.
func windowTail(lat []float64) (q, v float64, windows int) {
	windows = tailWindows
	if len(lat) < windows*2*tailBeyond {
		windows = 1
	}
	var tails []float64
	for w := 0; w < windows; w++ {
		part := append([]float64(nil), lat[w*len(lat)/windows:(w+1)*len(lat)/windows]...)
		sort.Float64s(part)
		var t float64
		q, t, _ = tail(part)
		tails = append(tails, t)
	}
	return q, median(tails), windows
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
