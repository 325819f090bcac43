package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mix"
	"repro/internal/policy"
)

// span is one timed interval around a call into a layer. Parent is the ID of
// the span that caused it (0 for a root); IDs are unique within a run.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run and writes them out once at
// the end, so the timed code pays one clock read and one append per span.
// A nil *tracer records nothing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1024)}
}

// begin opens a span and returns the function that closes it with its ID.
func (t *tracer) begin(name string, parent int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.nextID++
	id = t.nextID
	t.mu.Unlock()
	start := time.Since(t.origin).Nanoseconds()
	return id, func() {
		stop := time.Since(t.origin).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: start, EndNs: stop})
		t.mu.Unlock()
	}
}

// write stores the spans as JSON under dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// callStats accumulates a layer's call count and the time of its timed
// calls. Safe for concurrent use.
type callStats struct {
	calls, timed, ns atomic.Int64
}

func (c *callStats) merge(o *callStats) {
	c.calls.Add(o.calls.Load())
	c.timed.Add(o.timed.Load())
	c.ns.Add(o.ns.Load())
}

func (c *callStats) meanNs() float64 {
	if n := c.timed.Load(); n > 0 {
		return float64(c.ns.Load()) / float64(n)
	}
	return 0
}

// policyStats are the counters every policy wrapper of one sweep shares.
type policyStats struct {
	reconfigure callStats // every Reconfigure is timed
	event       callStats // one event call in eventSample is timed
}

// eventSample is the stride at which policy event hooks are timed: they run
// once per request or de-boost check, so timing each would cost more than
// the hooks themselves.
const eventSample = 16

// timedPolicy forwards every call to the wrapped policy and counts and times
// it. It changes no decision: the simulator sees the same resizes.
type timedPolicy struct {
	policy.Policy
	st *policyStats
}

func (p timedPolicy) Reconfigure(v policy.View) []policy.Resize {
	t0 := time.Now()
	r := p.Policy.Reconfigure(v)
	p.st.reconfigure.ns.Add(time.Since(t0).Nanoseconds())
	p.st.reconfigure.timed.Add(1)
	p.st.reconfigure.calls.Add(1)
	return r
}

func (p timedPolicy) event(call func() []policy.Resize) []policy.Resize {
	if p.st.event.calls.Add(1)%eventSample != 0 {
		return call()
	}
	t0 := time.Now()
	r := call()
	p.st.event.ns.Add(time.Since(t0).Nanoseconds())
	p.st.event.timed.Add(1)
	return r
}

func (p timedPolicy) OnActive(app int, v policy.View) []policy.Resize {
	return p.event(func() []policy.Resize { return p.Policy.OnActive(app, v) })
}

func (p timedPolicy) OnIdle(app int, v policy.View) []policy.Resize {
	return p.event(func() []policy.Resize { return p.Policy.OnIdle(app, v) })
}

func (p timedPolicy) OnLCCheck(app int, v policy.View) []policy.Resize {
	return p.event(func() []policy.Resize { return p.Policy.OnLCCheck(app, v) })
}

func (p timedPolicy) OnRequestComplete(app int, lat uint64, v policy.View) []policy.Resize {
	return p.event(func() []policy.Resize { return p.Policy.OnRequestComplete(app, lat, v) })
}

// Clone keeps the clone counted: forked runs report into the same stats.
func (p timedPolicy) Clone() policy.Policy {
	return timedPolicy{Policy: p.Policy.Clone(), st: p.st}
}

// addOtherLayers completes a traced run's per-layer metrics: every traced
// run reports every layer, so the layers the workload itself does not
// exercise are measured by short probes after its timed phase. Probes fill
// only names still missing, and their problems count like the workload's.
func addOtherLayers(opt options, tr *tracer, o *outcome, in simInputs) error {
	have := func(name string) bool { _, ok := o.layers[name]; return ok }
	merge := func(m map[string]metric) {
		for k, v := range m {
			if !have(k) {
				o.layers[k] = v
			}
		}
	}
	if !have("experiment.mix_runs_s") {
		// One mix per load level keeps the probe short while every scheme
		// still runs at both loads.
		var probe []mix.Mix
		for _, level := range []mix.LoadLevel{mix.LowLoad, mix.HighLoad} {
			for _, m := range in.mixes {
				if m.LC.Level == level {
					probe = append(probe, m)
					break
				}
			}
		}
		cl := &compareLayers{}
		recs, err := sweepTraced(in, probe, tr, cl)
		if err != nil {
			return err
		}
		if len(recs) != 2*len(in.schemes) {
			o.fail("comparison probe: %d records, want %d", len(recs), 2*len(in.schemes))
		}
		merge(cl.metrics())
	}
	if !have("experiment.warm_checkpoints") {
		fl := &flashLayers{}
		t, err := flashRound(in, tr, fl)
		if err != nil {
			return err
		}
		for _, p := range checkFlash(t, in.names, flashMags) {
			o.fail("%s", p)
		}
		merge(fl.metrics())
	}
	if !have("cacheserve.set_ns") {
		m, problems, err := kvProbe(opt.seed, tr)
		if err != nil {
			return err
		}
		for _, p := range problems {
			o.fail("kv probe: %s", p)
		}
		merge(m)
	}
	rm, problems, err := layerReplay(in, opt.seed, tr)
	if err != nil {
		return err
	}
	for _, p := range problems {
		o.fail("%s", p)
	}
	merge(rm)
	return nil
}
