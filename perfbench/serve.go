package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"sync"
	"time"

	"repro/internal/bml"
	"repro/internal/loadgen"
	"repro/internal/profile"
	"repro/internal/webapp"
)

// The farm `bmlserve` starts by default, pinned to the planner's
// combination for serveRate × serveHeadroom and offered serveRate: 5/6 of
// serveBigs Big (Paravance) instances, which is exactly that combination.
const (
	serveRateScale = 0.02
	serveHeadroom  = 1.2
	serveBigs      = 18
	servePatience  = 2 * time.Second
	serveWarmup    = 64 // requests per connection before timing starts
)

// serveRate is the offered load in req/s.
var serveRate = serveBigs * profile.PaperMachines()[0].MaxPerf * serveRateScale / serveHeadroom

// pageShape is the handler's response body: a static page holding the
// random loop's final integer.
var pageShape = regexp.MustCompile(`^<html><body><p>\d+</p></body></html>\n$`)

func checkPage(body []byte) bool { return pageShape.Match(body) }

// serveFarm is a running farm behind its balancer on loopback.
type serveFarm struct {
	farm     *webapp.Farm
	srv      *http.Server
	served   chan struct{}
	url      string
	capacity float64
	counts   map[string]int
}

func setupServe(seed int64, tr *tracer) (*serveFarm, error) {
	root := tr.begin("setup", -1, 0)
	defer tr.end(root)
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		return nil, err
	}
	farm, err := webapp.NewFarm(planner.Candidates(), webapp.InstanceConfig{
		RateScale: serveRateScale, Seed: seed, Patience: servePatience,
	})
	if err != nil {
		return nil, err
	}
	s := &serveFarm{farm: farm, served: make(chan struct{})}
	combo := planner.Combination(serveRate * serveHeadroom / serveRateScale)
	s.counts = combo.Counts()
	id := tr.begin("webapp.Farm.Reconfigure", root, 0)
	err = farm.Reconfigure(context.Background(), s.counts)
	tr.end(id)
	if err != nil {
		_ = farm.Close(context.Background())
		return nil, err
	}
	s.capacity = farm.Capacity()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = farm.Close(context.Background())
		return nil, err
	}
	s.url = "http://" + ln.Addr().String() + "/"
	s.srv = &http.Server{Handler: farm.LoadBalancer(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed from close
	}()
	// Open the keep-alive connections and check the page before timing.
	id = tr.begin("serve.warmup", root, 0)
	defer tr.end(id)
	for c := 0; c < runtime.NumCPU(); c++ {
		client := &http.Client{Timeout: 10 * time.Second}
		for i := 0; i < serveWarmup; i++ {
			if ok, _ := send(context.Background(), client, s.url, checkPage); !ok {
				s.close()
				return nil, fmt.Errorf("warm-up request %d did not return the handler's page", i+1)
			}
		}
		client.CloseIdleConnections()
	}
	return s, nil
}

func (s *serveFarm) close() {
	_ = s.srv.Close()
	<-s.served
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.farm.Close(ctx)
}

// fixedCountSchedule draws arrivals of a Poisson process of the given rate
// conditioned on exactly rate × horizon arrivals in [0, horizon): the first
// n arrivals of loadgen.PoissonSchedule, rescaled so arrival n+1 would
// land at the horizon. Given its count, a Poisson process's arrival times
// are uniform order statistics, so this is still a Poisson schedule, but
// every seed offers the same load.
func fixedCountSchedule(seed int64, rate float64, horizon time.Duration) ([]time.Duration, error) {
	n := int(math.Round(rate * horizon.Seconds()))
	flat := func(time.Duration) float64 { return rate }
	for span := 2 * horizon; ; span *= 2 {
		s, err := loadgen.PoissonSchedule(seed, rate, flat, span)
		if err != nil {
			return nil, err
		}
		if times := s.Times(); len(times) > n {
			scale := float64(horizon) / float64(times[n])
			out := make([]time.Duration, n)
			for i := range out {
				out[i] = time.Duration(float64(times[i]) * scale)
			}
			return out, nil
		}
	}
}

// runServeFixed offers a fixed Poisson load to the pinned farm, open loop,
// over at most nproc keep-alive connections.
func runServeFixed(cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{TailTarget: 99}
	var s *serveFarm
	var due []time.Duration
	horizon := time.Duration(cfg.Seconds) * time.Second
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		next, err := setupServe(cfg.Seed, tr)
		if err == nil {
			due, err = fixedCountSchedule(cfg.Seed, serveRate, horizon)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.SetupS = append(out.SetupS, time.Since(t0).Seconds())
		if s != nil {
			s.close()
		}
		s = next
	}
	defer s.close()

	settle()
	lb := s.farm.LoadBalancer()
	var (
		obsMu   sync.Mutex
		lbLat   []float64
		failed0 = sumCounts(lb.FailedCounts())
	)
	if tr != nil {
		lb.SetObserver(func(o webapp.Observation) {
			obsMu.Lock()
			lbLat = append(lbLat, float64(o.Latency)/1e6)
			obsMu.Unlock()
		})
	}
	served0, shed0 := lb.TotalServed(), lb.Shed()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res := openLoop(context.Background(), s.url, due, runtime.NumCPU(), checkPage, tr)
	runtime.ReadMemStats(&ms1)
	lb.SetObserver(nil)

	out.Attempted = int64(len(due))
	out.Failed = int64(res.Failed)
	out.OpsWall = res.Wall
	out.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for i, ms := range res.LatMS {
		if res.Traced[i] {
			out.TracedMS = append(out.TracedMS, ms)
		} else {
			out.LatMS = append(out.LatMS, ms)
		}
	}
	out.Notes = append(out.Notes, fmt.Sprintf("farm %v: capacity %.2f req/s, offered %.1f req/s (%.3f of capacity), %d arrivals over %d connections",
		s.counts, s.capacity, serveRate, serveRate/s.capacity, len(due), runtime.NumCPU()))
	if tr != nil {
		obsMu.Lock()
		out.Layer = map[string]float64{
			"webapp.lb_latency_ms_p50": percentile(lbLat, 50),
			"webapp.lb_latency_ms_p99": percentile(lbLat, 99),
			"webapp.served":            float64(lb.TotalServed() - served0),
			"webapp.shed":              float64(lb.Shed() - shed0),
			"webapp.backend_failed":    float64(sumCounts(lb.FailedCounts()) - failed0),
			"gen.late_ms_p99":          percentile(res.LateMS, 99),
			"gen.late_ms_max":          percentile(res.LateMS, 100),
		}
		obsMu.Unlock()
	}
	if res.Bad > 0 {
		return out, fmt.Errorf("%d of %d 2xx responses did not have the handler's page shape", res.Bad, len(due))
	}
	return out, nil
}

func sumCounts(m map[string]uint64) uint64 {
	var s uint64
	for _, v := range m {
		s += v
	}
	return s
}
