package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Sample is one scrape of one worker: the saturation signals the
// autoscaler steers by. Counter fields are cumulative (the policy
// differences consecutive samples itself).
type Sample struct {
	// BreakerOpen reports a non-closed circuit breaker — the worker is
	// shedding load.
	BreakerOpen bool

	// QueueFrac is the fullest shard queue's depth/capacity in [0, 1].
	QueueFrac float64

	// InFlight is the worker's current in-flight request count.
	InFlight int64

	// Requests is the worker's cumulative admitted-request counter.
	Requests uint64

	// WarmMisses maps backend name to the cumulative cold-start count
	// (server.warm.misses.<backend>).
	WarmMisses map[string]uint64

	// WarmTargets maps backend name to the worker's current keep-warm
	// target.
	WarmTargets map[string]int
}

// PolicyConfig tunes the autoscaling policy. The zero value selects
// the defaults noted per field.
type PolicyConfig struct {
	// GrowMissDelta: a backend whose cold-starts grew by at least this
	// many since the last tick gets one more warm slot. Default 3.
	GrowMissDelta uint64

	// GrowQueueFrac: queue pressure at or above this fraction counts as
	// saturation, letting even a small miss delta trigger growth.
	// Default 0.5.
	GrowQueueFrac float64

	// ShrinkIdleTicks: a worker idle (no new requests, nothing queued or
	// in flight) for this many consecutive ticks shrinks each pool by
	// one. Default 3.
	ShrinkIdleTicks int

	// CooldownTicks: after any decision for a (worker, backend), hold
	// that pair for this many ticks — the hysteresis that stops a burst
	// from flapping grow/shrink/grow. Default 2.
	CooldownTicks int

	// MinTarget and MaxTarget bound the targets the policy will set.
	// MaxTarget 0 selects 8 (the worker clamps to its slot headroom
	// anyway).
	MinTarget int
	MaxTarget int
}

func (c PolicyConfig) withDefaults() PolicyConfig {
	if c.GrowMissDelta == 0 {
		c.GrowMissDelta = 3
	}
	if c.GrowQueueFrac == 0 {
		c.GrowQueueFrac = 0.5
	}
	if c.ShrinkIdleTicks == 0 {
		c.ShrinkIdleTicks = 3
	}
	if c.CooldownTicks == 0 {
		c.CooldownTicks = 2
	}
	if c.MaxTarget == 0 {
		c.MaxTarget = 8
	}
	return c
}

// Decision is one policy output: set worker's backend pool target.
type Decision struct {
	Worker  string `json:"worker"`
	Backend string `json:"backend"`
	Target  int    `json:"target"`
	Grow    bool   `json:"grow"`
	Reason  string `json:"reason"`
}

// Policy is the pure autoscaling core: feed it one Sample per worker
// per tick, get back target changes. It is deterministic — same sample
// sequence, same decisions — which is what makes the smoke test's
// counter assertions reliable. Not safe for concurrent use; the
// Autoscaler serializes ticks.
type Policy struct {
	cfg     PolicyConfig
	workers map[string]*policyState
}

type policyState struct {
	seeded   bool
	last     Sample
	idle     int
	cooldown map[string]int
}

// NewPolicy returns a Policy with the given tuning.
func NewPolicy(cfg PolicyConfig) *Policy {
	return &Policy{cfg: cfg.withDefaults(), workers: make(map[string]*policyState)}
}

// Tick ingests one worker's sample and returns the decisions it
// implies. The first sample for a worker only seeds the deltas.
func (p *Policy) Tick(worker string, s Sample) []Decision {
	st, ok := p.workers[worker]
	if !ok {
		st = &policyState{cooldown: make(map[string]int)}
		p.workers[worker] = st
	}
	if !st.seeded {
		st.seeded = true
		st.last = s
		return nil
	}
	reqDelta := s.Requests - st.last.Requests
	if s.Requests < st.last.Requests {
		// Counter went backwards: the worker restarted. Reseed.
		st.last = s
		st.idle = 0
		return nil
	}
	if reqDelta == 0 && s.InFlight == 0 && s.QueueFrac == 0 {
		st.idle++
	} else {
		st.idle = 0
	}
	saturated := s.BreakerOpen || s.QueueFrac >= p.cfg.GrowQueueFrac

	backends := make([]string, 0, len(s.WarmTargets))
	for b := range s.WarmTargets {
		backends = append(backends, b)
	}
	sort.Strings(backends)

	var out []Decision
	for _, b := range backends {
		if st.cooldown[b] > 0 {
			st.cooldown[b]--
			continue
		}
		target := s.WarmTargets[b]
		var missDelta uint64
		if cur, prev := s.WarmMisses[b], st.last.WarmMisses[b]; cur > prev {
			missDelta = cur - prev
		}
		switch {
		case target < p.cfg.MaxTarget && (missDelta >= p.cfg.GrowMissDelta || (saturated && missDelta > 0)):
			reason := fmt.Sprintf("cold-starts +%d", missDelta)
			if saturated && missDelta < p.cfg.GrowMissDelta {
				reason = fmt.Sprintf("saturated, cold-starts +%d", missDelta)
			}
			out = append(out, Decision{Worker: worker, Backend: b, Target: target + 1, Grow: true, Reason: reason})
			st.cooldown[b] = p.cfg.CooldownTicks
		case target > p.cfg.MinTarget && st.idle >= p.cfg.ShrinkIdleTicks:
			out = append(out, Decision{Worker: worker, Backend: b, Target: target - 1,
				Reason: fmt.Sprintf("idle %d ticks", st.idle)})
			st.cooldown[b] = p.cfg.CooldownTicks
		}
	}
	st.last = s
	return out
}

// AutoscalerConfig configures the scrape/apply loop around a Policy.
type AutoscalerConfig struct {
	// Interval between scrape ticks. 0 selects 1s.
	Interval time.Duration

	// Policy tunes the decision core.
	Policy PolicyConfig

	// Client performs the scrapes and control POSTs. Nil selects a
	// client with a 5s timeout.
	Client *http.Client

	// Registry receives the cluster.autoscale.* instruments. Nil
	// selects telemetry.Default.
	Registry *telemetry.Registry
}

// Autoscaler periodically scrapes every worker registered with a
// Router (/healthz + /metrics), runs the Policy, and applies its
// decisions back through each worker's POST /control/warm. Decisions
// and errors are recorded as cluster.autoscale.* counters.
type Autoscaler struct {
	router *Router
	cfg    AutoscalerConfig
	policy *Policy

	mu      sync.Mutex // serializes ticks (Start loop vs TickOnce in tests)
	stop    chan struct{}
	done    chan struct{}
	started bool

	ticks        *telemetry.Counter
	grows        *telemetry.Counter
	shrinks      *telemetry.Counter
	scrapeErrors *telemetry.Counter
	applyErrors  *telemetry.Counter
}

// NewAutoscaler returns an Autoscaler steering router's workers.
func NewAutoscaler(router *Router, cfg AutoscalerConfig) *Autoscaler {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default
	}
	reg := cfg.Registry
	return &Autoscaler{
		router:       router,
		cfg:          cfg,
		policy:       NewPolicy(cfg.Policy),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		ticks:        reg.Counter("cluster.autoscale.ticks"),
		grows:        reg.Counter("cluster.autoscale.grow"),
		shrinks:      reg.Counter("cluster.autoscale.shrink"),
		scrapeErrors: reg.Counter("cluster.autoscale.scrape_errors"),
		applyErrors:  reg.Counter("cluster.autoscale.apply_errors"),
	}
}

// Start launches the tick loop; Stop ends it.
func (a *Autoscaler) Start() {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return
	}
	a.started = true
	a.mu.Unlock()
	go func() {
		defer close(a.done)
		t := time.NewTicker(a.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-t.C:
				a.TickOnce()
			}
		}
	}()
}

// Stop halts a started loop and waits for it to exit.
func (a *Autoscaler) Stop() {
	a.mu.Lock()
	started := a.started
	a.mu.Unlock()
	if !started {
		return
	}
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	<-a.done
}

// TickOnce scrapes every worker, runs the policy, applies the
// decisions, and returns them (the smoke tooling calls this directly
// for deterministic stepping).
func (a *Autoscaler) TickOnce() []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ticks.Inc()
	workers := a.router.Workers()
	names := make([]string, 0, len(workers))
	for n := range workers {
		names = append(names, n)
	}
	sort.Strings(names)

	var all []Decision
	for _, name := range names {
		s, err := a.scrape(workers[name])
		if err != nil {
			a.scrapeErrors.Inc()
			a.router.SetHealthy(name, false)
			continue
		}
		a.router.SetHealthy(name, true)
		for _, d := range a.policy.Tick(name, s) {
			if err := a.apply(workers[name], d); err != nil {
				a.applyErrors.Inc()
				continue
			}
			if d.Grow {
				a.grows.Inc()
			} else {
				a.shrinks.Inc()
			}
			all = append(all, d)
		}
	}
	return all
}

// healthzPayload mirrors the slice of faasd's /healthz the policy needs.
type healthzPayload struct {
	Breaker string `json:"breaker"`
	InFl    int64  `json:"in_flight"`
	Shards  []struct {
		Depth int `json:"queue_depth"`
		Cap   int `json:"queue_capacity"`
	} `json:"shards"`
	Warm struct {
		Targets map[string]int `json:"targets"`
	} `json:"warm"`
}

// scrape builds one Sample from a worker's /healthz and /metrics.
func (a *Autoscaler) scrape(baseURL string) (Sample, error) {
	var hz healthzPayload
	if err := a.getJSON(baseURL+"/healthz", &hz); err != nil {
		return Sample{}, err
	}
	var snap telemetry.Snapshot
	if err := a.getJSON(baseURL+"/metrics", &snap); err != nil {
		return Sample{}, err
	}
	s := Sample{
		BreakerOpen: hz.Breaker != "" && hz.Breaker != "closed",
		InFlight:    hz.InFl,
		Requests:    snap.Counters["server.requests"],
		WarmMisses:  make(map[string]uint64, len(hz.Warm.Targets)),
		WarmTargets: hz.Warm.Targets,
	}
	for _, sh := range hz.Shards {
		if sh.Cap > 0 {
			if f := float64(sh.Depth) / float64(sh.Cap); f > s.QueueFrac {
				s.QueueFrac = f
			}
		}
	}
	for b := range hz.Warm.Targets {
		s.WarmMisses[b] = snap.Counters["server.warm.misses."+b]
	}
	return s, nil
}

// getJSON fetches url and decodes its JSON body into v. A draining
// worker answers /healthz with 503 but still sends the payload, so any
// decodable body is accepted.
func (a *Autoscaler) getJSON(url string, v any) error {
	resp, err := a.cfg.Client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// apply pushes one decision to its worker's control endpoint.
func (a *Autoscaler) apply(baseURL string, d Decision) error {
	url := fmt.Sprintf("%s/control/warm?backend=%s&target=%d", baseURL, d.Backend, d.Target)
	resp, err := a.cfg.Client.Post(url, "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("control/warm: HTTP %d", resp.StatusCode)
	}
	return nil
}
