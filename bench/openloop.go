package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled request of an open-loop window: when it is
// due, as an offset from the window's start, and which key it asks for.
type arrival struct {
	due time.Duration
	key int
}

// poissonSchedule draws the arrivals of a window of length d at the
// given rate: exponential gaps from the seeded generator, keys from the
// Zipf popularity. The schedule is fixed before the window starts, so
// the load does not depend on how the system responds.
func poissonSchedule(r *rng, rate float64, d time.Duration, z *zipf) []arrival {
	var out []arrival
	mean := float64(time.Second) / rate
	for t := r.exp(mean); t < float64(d); t += r.exp(mean) {
		out = append(out, arrival{due: time.Duration(t), key: z.draw(r)})
	}
	return out
}

// loadResult is what one open-loop window observed.
type loadResult struct {
	offered int       // requests sent; always the schedule's length
	latMs   []float64 // completion minus DUE time; +Inf for a failed request
	lateMs  []float64 // send minus due time: how late the generator ran
	backlog int       // requests still outstanding when the window's time was up
	failed  int
}

// runOpenLoop sends every arrival of the schedule, each no earlier than
// its due time, on at most conns connections (one goroutine each). A
// request is timed from when it was due, not from when it was sent: if
// every connection is busy the arrival waits and that wait is part of
// its latency, as it is for a user. Nothing is dropped: a generator
// that has fallen behind sends late and says so in lateMs. send performs
// one request on connection conn and reports whether it succeeded.
//
// One dispatcher goroutine keeps the clock and hands each arrival, at
// its due time, to whichever connection is free; while all are busy it
// blocks on the hand-off, and the arrivals behind it become late.
func runOpenLoop(clock *hrTimer, sched []arrival, d time.Duration, conns int, send func(conn int, a arrival, due time.Time) bool) (loadResult, error) {
	res := loadResult{
		offered: len(sched),
		latMs:   make([]float64, len(sched)),
		lateMs:  make([]float64, len(sched)),
	}
	done := make([]time.Time, len(sched))
	var failed atomic.Int64
	start := time.Now()
	due := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := range due {
				at := start.Add(sched[i].due)
				sent := time.Now()
				ok := send(conn, sched[i], at)
				done[i] = time.Now()
				res.lateMs[i] = float64(sent.Sub(at)) / 1e6
				if ok {
					res.latMs[i] = float64(done[i].Sub(at)) / 1e6
				} else {
					res.latMs[i] = math.Inf(1)
					failed.Add(1)
				}
			}
		}(c)
	}
	var clockErr error
	for i := range sched {
		if clockErr = clock.waitUntil(start.Add(sched[i].due)); clockErr != nil {
			break
		}
		due <- i
	}
	close(due)
	wg.Wait()
	if clockErr != nil {
		return res, clockErr
	}
	res.failed = int(failed.Load())
	end := start.Add(d)
	for _, t := range done {
		if t.After(end) {
			res.backlog++
		}
	}
	return res, nil
}

// runClosedLoop has each of conns callers send its next request as soon
// as the previous one completes, until d has passed. keys(conn) yields
// the caller's next key. It returns each request's latency in ms (+Inf
// for a failure) and the count that failed.
func runClosedLoop(d time.Duration, conns int, keys func(conn int) int, send func(conn, key int) bool) (latMs []float64, failed int, elapsed time.Duration) {
	per := make([][]float64, conns)
	var nfailed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for time.Since(start) < d {
				t0 := time.Now()
				if send(conn, keys(conn)) {
					per[conn] = append(per[conn], float64(time.Since(t0))/1e6)
				} else {
					per[conn] = append(per[conn], math.Inf(1))
					nfailed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, p := range per {
		latMs = append(latMs, p...)
	}
	return latMs, int(nfailed.Load()), elapsed
}
