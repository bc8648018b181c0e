package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own load generator. It differs from internal/serve/loadgen
// on purpose: every scheduled arrival is sent (there is no outstanding cap
// that silently turns arrivals into "shed"), an open-loop request is timed
// from the instant it was due rather than the instant it was sent, and how
// late the generator ran is reported instead of hidden.

// arrival is one scheduled open-loop request.
type arrival struct {
	due  time.Duration // offset from the start of the pass
	body int           // which pre-encoded request body to send
}

// schedule draws a Poisson arrival process: exponential gaps at the given
// rate over dur, each arrival picking one of `bodies` request bodies. The
// same seed gives the same schedule.
func schedule(seed int64, rate float64, dur time.Duration, bodies int) []arrival {
	g := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for {
		t += g.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, arrival{due: due, body: g.Intn(bodies)})
	}
}

// reqRecord is one request as the generator saw it. Offsets are from the
// start of the pass; for the closed loop due equals sent.
type reqRecord struct {
	due, sent, done time.Duration
	body            int
	ok              bool
}

// latency is the time from when the request was due to its completion:
// the wait a generator stall imposes on a request counts against it.
func (r reqRecord) latency() time.Duration { return r.done - r.due }

// late is how long after its due time the request was actually sent.
func (r reqRecord) late() time.Duration { return r.sent - r.due }

// target is the system under load: send performs the timed call for one
// body and returns an untimed function that verifies the response.
type target interface {
	send(body int) (verify func() bool)
}

// runOpen sends every arrival at its due time from one generator
// goroutine, each request on its own goroutine so a slow response never
// delays the next arrival, and returns once all have completed.
func runOpen(tg target, arrivals []arrival) (start time.Time, recs []reqRecord) {
	recs = make([]reqRecord, len(arrivals))
	var wg sync.WaitGroup
	wg.Add(len(arrivals))
	start = time.Now()
	for i, a := range arrivals {
		if wait := a.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		rec := &recs[i]
		rec.due, rec.body = a.due, a.body
		rec.sent = time.Since(start)
		go func() {
			defer wg.Done()
			verify := tg.send(rec.body)
			rec.done = time.Since(start)
			rec.ok = verify()
		}()
	}
	wg.Wait()
	return start, recs
}

// runClosed keeps `callers` callers busy for dur, or until limit requests
// have been sent when limit > 0: each caller sends its next request only
// after the previous one completed.
func runClosed(tg target, callers int, dur time.Duration, seed int64, bodies, limit int) (start time.Time, recs []reqRecord) {
	per := make([][]reqRecord, callers)
	var sent atomic.Int64
	var wg sync.WaitGroup
	wg.Add(callers)
	start = time.Now()
	for c := 0; c < callers; c++ {
		c := c
		go func() {
			defer wg.Done()
			g := rand.New(rand.NewSource(seed + int64(c)*7919))
			for time.Since(start) < dur && (limit <= 0 || sent.Add(1) <= int64(limit)) {
				rec := reqRecord{body: g.Intn(bodies)}
				rec.sent = time.Since(start)
				rec.due = rec.sent
				verify := tg.send(rec.body)
				rec.done = time.Since(start)
				rec.ok = verify()
				per[c] = append(per[c], rec)
			}
		}()
	}
	wg.Wait()
	for _, p := range per {
		recs = append(recs, p...)
	}
	return start, recs
}
