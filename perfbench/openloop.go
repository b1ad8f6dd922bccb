package main

import (
	"context"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// openLoopResult is what one open-loop replay observed, indexed by
// arrival.
type openLoopResult struct {
	LatMS  []float64 // see openLoop for the start of the clock; +Inf for a failed request
	LateMS []float64 // how far past its due time the pacing timer released a request
	Traced []bool    // whether the request ran under a span
	Failed int       // non-2xx responses, transport errors, and malformed bodies
	Bad    int       // 2xx responses whose body failed the check
	Wall   time.Duration
}

// openLoop replays arrival offsets against url over conns workers, one
// keep-alive connection each. Arrivals are taken in order by whichever
// worker is free; the schedule never waits for the system, so a slow
// response delays every arrival that falls due while all connections are
// busy. Such a queued request is timed from its due time. A request whose
// worker was idle and waiting for it is timed from when it was sent: the
// pacing timer's oversleep past the due time is the generator's lateness,
// reported in LateMS rather than charged to the system. A transport
// error or a non-2xx status fails a request; so does a 2xx body that check
// rejects, which is also counted as Bad. With a tracer, every other request
// runs under spans.
func openLoop(ctx context.Context, url string, due []time.Duration, conns int, check func(body []byte) bool, tr *tracer) openLoopResult {
	n := len(due)
	res := openLoopResult{LatMS: make([]float64, n), LateMS: make([]float64, n), Traced: make([]bool, n)}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		lastEnd time.Time
		wg      sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp, Timeout: 30 * time.Second}
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				dueAt := start.Add(due[i])
				from := dueAt
				var late float64
				if wait := time.Until(dueAt); wait > 0 {
					timer.Reset(wait)
					select {
					case <-ctx.Done():
						return
					case <-timer.C:
					}
					from = time.Now()
					late = float64(from.Sub(dueAt)) / 1e6
				}
				sent := time.Now()
				ok, bad := send(ctx, client, url, check)
				done := time.Now()
				traced := tr != nil && i%2 == 0
				if traced {
					// The request span starts where its clock does, so its
					// self time is the wait for a free connection.
					op := tr.op()
					root := tr.record("serve.request", from, done, -1, op)
					tr.record("http.Get", sent, done, root, op)
				}
				mu.Lock()
				res.Traced[i] = traced
				res.LateMS[i] = late
				if ok {
					res.LatMS[i] = float64(done.Sub(from)) / 1e6
				} else {
					res.LatMS[i] = math.Inf(1)
					res.Failed++
				}
				if bad {
					res.Bad++
				}
				if done.After(lastEnd) {
					lastEnd = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Wall = lastEnd.Sub(start)
	return res
}

// send performs one GET and reports whether it succeeded, and whether it
// was a 2xx response whose body check rejected.
func send(ctx context.Context, client *http.Client, url string, check func([]byte) bool) (ok, bad bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode < 200 || resp.StatusCode > 299 {
		return false, false
	}
	if !check(body) {
		return false, true
	}
	return true, false
}
