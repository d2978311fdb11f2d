package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStallAsLatency drives a fake server that stalls one
// request. Under an open loop the ops due during the stall are still
// sent on schedule by the generator — they show up as latency measured
// from their due time, not as generator lateness and not as fewer
// samples.
func TestOpenLoopCountsStallAsLatency(t *testing.T) {
	const (
		n        = 30
		gap      = 10 * time.Millisecond
		stallOp  = 3
		stallFor = 300 * time.Millisecond
	)
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1)-1 == stallOp {
			time.Sleep(stallFor)
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	shots := make([]shot, n)
	for i := range shots {
		shots[i] = shot{due: time.Duration(i) * gap, path: "/", body: []byte("{}")}
	}
	out := openLoop(newClient(1), srv.URL, shots, 1, func(int, int, []byte) bool { return true })
	if len(out) != n {
		t.Fatalf("%d outcomes, want %d", len(out), n)
	}
	stallEnd := out[stallOp].due.Add(stallFor)
	for i, o := range out {
		if !o.ok || o.status != http.StatusOK {
			t.Fatalf("op %d: %v status %d", i, o.err, o.status)
		}
		if o.lag() > 50*time.Millisecond {
			t.Errorf("op %d: generator lag %v; a stalled server must not delay the schedule", i, o.lag())
		}
		if i > stallOp && o.due.Before(stallEnd) {
			// Queued behind the stall on the only connection: its latency
			// runs from its due time to at least the end of the stall.
			if min := stallEnd.Sub(o.due); o.latency() < min {
				t.Errorf("op %d: latency %v, want at least %v of waiting behind the stall", i, o.latency(), min)
			}
		}
	}
	if late := out[stallOp+1].latency(); late < stallFor-2*gap {
		t.Errorf("op right after the stall: latency %v, want about %v", late, stallFor-gap)
	}
	if last := out[n-1].latency(); last > 100*time.Millisecond {
		t.Errorf("last op: latency %v; the backlog should have drained", last)
	}
}
