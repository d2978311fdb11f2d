package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// shot is one request of an open-loop schedule.
type shot struct {
	due  time.Duration // offset from the start of load
	path string
	body []byte
}

// outcome is what one request got.
type outcome struct {
	due      time.Time // when the request was scheduled
	dispatch time.Time // when the generator handed it to a connection
	done     time.Time // when its response was read, or it failed
	status   int
	body     []byte // kept by closedLoop only
	err      error
	ok       bool // the response passed the load's check
}

// latency is the op's latency measured from its scheduled send time, so
// time spent waiting behind a stalled request counts against it.
func (o outcome) latency() time.Duration { return o.done.Sub(o.due) }

// lag is how late the generator itself was in handing the op over.
func (o outcome) lag() time.Duration { return o.dispatch.Sub(o.due) }

// openLoop sends shots on their schedule over conns connections and
// returns one outcome per shot, in shot order. A dispatcher hands each
// shot to the connection pool at its due time whatever the state of
// earlier requests; a shot that finds every connection busy waits in the
// pool's queue, and that wait counts in its latency, not in the
// generator's lag. check judges each response as it arrives, after its
// completion time is taken, so the generator holds no response bodies.
func openLoop(client *http.Client, base string, shots []shot, conns int, check func(i, status int, body []byte) bool) []outcome {
	out := make([]outcome, len(shots))
	// Buffered to the whole schedule, so the dispatcher never blocks on
	// a busy pool and its lateness is its own.
	queue := make(chan int, len(shots))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				resp, err := client.Post(base+shots[i].path, "application/json", bytes.NewReader(shots[i].body))
				var body []byte
				if err == nil {
					o.status = resp.StatusCode
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				o.err = err
				o.done = time.Now()
				o.ok = err == nil && check(i, o.status, body)
			}
		}()
	}
	start := time.Now()
	for i, s := range shots {
		due := start.Add(s.due)
		sleepUntil(due)
		out[i].due = due
		out[i].dispatch = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// sleepUntil blocks the calling thread until t. The Go timer wakes an
// idle process with millisecond granularity, which would make the
// generator itself up to 1 ms late on every sub-millisecond gap of a
// high-rate schedule; a nanosleep on the thread wakes within the
// kernel's timer slack instead, without spinning a CPU the server
// shares.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedLoop sends shots back to back over conns connections, ignoring
// their schedule; set-up and warm-up passes use it.
func closedLoop(client *http.Client, base string, shots []shot, conns int) []outcome {
	out := make([]outcome, len(shots))
	queue := make(chan int, len(shots))
	for i := range shots {
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				o.due = time.Now()
				o.dispatch = o.due
				resp, err := client.Post(base+shots[i].path, "application/json", bytes.NewReader(shots[i].body))
				if err == nil {
					o.status = resp.StatusCode
					o.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				o.err = err
				o.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// newClient returns an HTTP client holding at most conns connections to
// the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
