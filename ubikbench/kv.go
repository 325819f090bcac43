package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/cacheserve"
	"repro/internal/core"
)

// The kv workloads drive the cache service in-process: kvWorkers goroutines
// each issue their next call when the previous one returns (a closed loop,
// like request handlers calling an in-process cache), taking disjoint
// interleaved shares of one pregenerated op sequence.
const (
	kvWorkers    = 2
	kvSetupReps  = 5
	kvSampleRate = 0.01 // Ubik's default UMON sampling for the service
	lcTenant     = 0
	latStride    = 64 // one latency-critical Get in latStride is timed
	layerStride  = 64 // one call in layerStride is timed in traced rounds
	kvLineBytes  = 64
)

// kvOp is one pregenerated call: a Get (filled with a Set on a miss) or a
// Set of key index key of tenant, with a value of size bytes.
type kvOp struct {
	key    uint32
	size   uint16
	tenant uint8
	set    bool
}

// kvShape describes one kv workload.
type kvShape struct {
	capacity int64
	lcTarget int64
	// tenant 0 is the latency-critical one; names and key counts per tenant
	tenants []string
	keys    []int
	// roundOps calls make one round; a governor epoch runs every epochOps.
	roundOps, epochOps int
	wantEvictions      bool
	gen                func(rng *rand.Rand, keys []int, n int) []kvOp
	prefill            func(k *kvState) error
}

// zipfSampler draws key indexes from a zipf(1.1) over n keys; the rank order is
// scrambled by a fixed multiplier so hot keys spread over shards.
func zipfSampler(rng *rand.Rand, n int) func() uint32 {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() uint32 { return uint32((z.Uint64() * 2654435761) % uint64(n)) }
}

// sizeOf gives every (tenant, key) a fixed value size from the classes.
func sizeOf(tenant int, key uint32, classes []uint16) uint16 {
	h := (uint64(key)*0x9E3779B97F4A7C15 + uint64(tenant)) >> 40
	return classes[h%uint64(len(classes))]
}

var readSizes = []uint16{64, 128, 192, 256}
var churnSizes = []uint16{128, 512, 1024, 4096}

// kvReadShape is a read-mostly service whose working sets both fit, every key
// prefilled; ~95% of calls are Gets and all of them hit.
var kvReadShape = kvShape{
	capacity: 64 << 20,
	lcTarget: 12 << 20,
	tenants:  []string{"lc", "batch"},
	keys:     []int{40_000, 100_000},
	roundOps: 1 << 20, epochOps: 1 << 16,
	gen: func(rng *rand.Rand, keys []int, n int) []kvOp {
		lc, batch := zipfSampler(rng, keys[0]), zipfSampler(rng, keys[1])
		ops := make([]kvOp, n)
		for i := range ops {
			t := rng.IntN(2)
			k := lc()
			if t == 1 {
				k = batch()
			}
			ops[i] = kvOp{key: k, tenant: uint8(t), set: rng.IntN(100) < 5, size: sizeOf(t, k, readSizes)}
		}
		return ops
	},
	prefill: func(k *kvState) error {
		for t, n := range k.shape.keys {
			for i := 0; i < n; i++ {
				if err := k.set(t, uint32(i), sizeOf(t, uint32(i), readSizes), k.buf); err != nil {
					return err
				}
			}
		}
		return nil
	},
}

// kvChurnScanKeys is the scan tenant's key count: ~9× the capacity in
// bytes at the mean churn value size, so a scanned key is long gone when
// the scan comes back to it.
const kvChurnScanKeys = 200_000

// kvChurnShape is a write- and eviction-heavy service: the latency-critical
// tenant's reserve is below its working set and a scan tenant streams
// through many times the capacity, so every epoch evicts.
var kvChurnShape = kvShape{
	capacity: 32 << 20,
	lcTarget: 8 << 20,
	tenants:  []string{"lc", "scan"},
	keys:     []int{40_000, kvChurnScanKeys},
	roundOps: 1 << 19, epochOps: 1 << 15,
	wantEvictions: true,
	gen: func(rng *rand.Rand, keys []int, n int) []kvOp {
		lc := zipfSampler(rng, keys[0])
		// The scan starts where the prefill stopped and walks on.
		next := uint32(rng.IntN(keys[1]))
		ops := make([]kvOp, n)
		for i := range ops {
			if rng.IntN(100) < 60 {
				k := lc()
				ops[i] = kvOp{key: k, tenant: 0, set: rng.IntN(100) < 20, size: sizeOf(0, k, churnSizes)}
				continue
			}
			ops[i] = kvOp{key: next, tenant: 1, size: churnSizes[rng.IntN(len(churnSizes))]}
			next = (next + 1) % uint32(keys[1])
		}
		return ops
	},
	prefill: func(k *kvState) error {
		for i := 0; i < k.shape.keys[0]; i++ {
			if err := k.set(0, uint32(i), sizeOf(0, uint32(i), churnSizes), k.buf); err != nil {
				return err
			}
		}
		// Fill the rest of the cache with scan entries ending just before
		// the scan's start in the op sequence.
		start := int(k.ops[firstScan(k.ops)].key)
		n := k.shape.keys[1]
		for i := 1; i <= n/4; i++ {
			key := uint32((start - i + n) % n)
			if err := k.set(1, key, churnSizes[i%len(churnSizes)], k.buf); err != nil {
				return err
			}
		}
		return nil
	},
}

func firstScan(ops []kvOp) int {
	for i, op := range ops {
		if op.tenant == 1 {
			return i
		}
	}
	return 0
}

// kvState is one set-up of a kv workload: its inputs and its cache.
type kvState struct {
	shape kvShape
	keys  [][]string // per tenant, the key strings
	ops   []kvOp
	cache *cacheserve.Cache
	gov   *cacheserve.Governor
	buf   []byte
}

func (k *kvState) set(t int, key uint32, size uint16, buf []byte) error {
	name := k.keys[t][key]
	return k.cache.Set(t, name, fillValue(buf[:size], t, name), 0)
}

// newKVState builds the keys and the op sequence from the seed, the cache
// with its Ubik governor, and prefills it.
func newKVState(shape kvShape, seed uint64) (*kvState, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	k := &kvState{shape: shape, buf: make([]byte, 1<<16)}
	for t, n := range shape.keys {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("%s:%08d", shape.tenants[t], i)
		}
		k.keys = append(k.keys, names)
	}
	k.ops = shape.gen(rng, shape.keys, shape.roundOps)
	tenants := make([]cacheserve.TenantConfig, len(shape.tenants))
	for t, name := range shape.tenants {
		tenants[t] = cacheserve.TenantConfig{Name: name}
	}
	tenants[lcTenant].LatencyCritical = true
	tenants[lcTenant].TargetBytes = shape.lcTarget
	c, err := cacheserve.New(cacheserve.Config{
		CapacityBytes: shape.capacity,
		LineBytes:     kvLineBytes,
		SampleRate:    kvSampleRate,
		Tenants:       tenants,
	})
	if err != nil {
		return nil, err
	}
	k.cache = c
	if k.gov, err = cacheserve.NewGovernor(c, core.NewUbik(), cacheserve.GovernorConfig{}); err != nil {
		return nil, err
	}
	return k, shape.prefill(k)
}

// kvWorker is one closed-loop client's private state: counts, latency
// samples and (traced) sampled call timings, merged when the run ends.
type kvWorker struct {
	counts     []tenantCounts
	lat        []uint32
	mismatches int
	failed     int64
	calls      int
	buf        []byte
	// sampled call timings of traced rounds
	hit, miss, set callStats
}

// run issues ops[first], ops[first+stride], ... in order.
func (w *kvWorker) run(k *kvState, ops []kvOp, first, stride int, traced bool) {
	c := k.cache
	for i := first; i < len(ops); i += stride {
		op := &ops[i]
		t := int(op.tenant)
		key := k.keys[t][op.key]
		cnt := &w.counts[t]
		w.calls++
		sample := traced && w.calls%layerStride == 0
		if op.set {
			var t0 time.Time
			if sample {
				t0 = time.Now()
			}
			err := c.Set(t, key, fillValue(w.buf[:op.size], t, key), 0)
			if sample {
				w.set.ns.Add(time.Since(t0).Nanoseconds())
				w.set.timed.Add(1)
			}
			cnt.sets++
			if err != nil {
				w.failed++
			}
			continue
		}
		timeLat := t == lcTenant && cnt.gets%latStride == 0
		var t0 time.Time
		if timeLat || sample {
			t0 = time.Now()
		}
		v, ok := c.Get(t, key)
		cnt.gets++
		if ok {
			cnt.hits++
			if sample {
				w.hit.ns.Add(time.Since(t0).Nanoseconds())
				w.hit.timed.Add(1)
			}
			if !valueMatches(v, t, key) {
				w.mismatches++
			}
		} else {
			if sample {
				w.miss.ns.Add(time.Since(t0).Nanoseconds())
				w.miss.timed.Add(1)
			}
			cnt.sets++
			if err := c.Set(t, key, fillValue(w.buf[:op.size], t, key), 0); err != nil {
				w.failed++
			}
		}
		if timeLat {
			w.lat = append(w.lat, uint32(time.Since(t0).Nanoseconds()))
		}
	}
}

// kvLayers accumulates the cache service's per-layer figures over traced
// rounds.
type kvLayers struct {
	rounds         int
	hit, miss, set callStats
	step           callStats
	quotaMoved     int64
	fed            uint64
	lcHits, lcGets uint64
	evictions      uint64
}

func (kl *kvLayers) metrics() map[string]metric {
	n := float64(kl.rounds)
	lcHit := 0.0
	if kl.lcGets > 0 {
		lcHit = float64(kl.lcHits) / float64(kl.lcGets)
	}
	return map[string]metric{
		"monitor.sampled_fed":           {float64(kl.fed) / n, "count"},
		"cacheserve.get_hit_ns":         {kl.hit.meanNs(), "ns"},
		"cacheserve.get_miss_ns":        {kl.miss.meanNs(), "ns"},
		"cacheserve.set_ns":             {kl.set.meanNs(), "ns"},
		"cacheserve.lc_hit_ratio":       {lcHit, "ratio"},
		"cacheserve.capacity_evictions": {float64(kl.evictions) / n, "count"},
		"governor.step_us":              {kl.step.meanNs() / 1e3, "us"},
		"governor.epochs":               {float64(kl.step.calls.Load()) / n, "count"},
		"governor.quota_moved_bytes":    {float64(kl.quotaMoved) / n, "bytes"},
	}
}

// mergeTimings folds the workers' sampled call timings in.
func (kl *kvLayers) mergeTimings(workers []*kvWorker) {
	for _, w := range workers {
		kl.hit.merge(&w.hit)
		kl.miss.merge(&w.miss)
		kl.set.merge(&w.set)
	}
}

func totalFed(c *cacheserve.Cache) uint64 {
	var n uint64
	for t := 0; t < c.NumTenants(); t++ {
		n += c.Feed(t).Fed()
	}
	return n
}

// kvRound runs one pass over the op sequence: per epoch, both workers take
// their interleaved shares, then the governor steps and the epoch's
// invariants are checked. It returns the completed operations.
func kvRound(k *kvState, workers []*kvWorker, traced bool, tr *tracer, kl *kvLayers, o *outcome) int64 {
	c := k.cache
	before := c.Stats()
	fedBefore := totalFed(c)
	for _, w := range workers {
		for t := range w.counts {
			w.counts[t] = tenantCounts{}
		}
	}
	var perEpoch []uint64
	prevEvict := sumEvictions(before)
	root, endRound := int64(0), func() {}
	if traced {
		root, endRound = tr.begin("kv.round", 0)
	}
	for lo := 0; lo < len(k.ops); lo += k.shape.epochOps {
		hi := min(lo+k.shape.epochOps, len(k.ops))
		var wg sync.WaitGroup
		for wi, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(k, k.ops[lo:hi], wi, len(workers), traced)
			}()
		}
		wg.Wait()
		prev := make([]int64, c.NumTenants())
		for t := range prev {
			prev[t] = c.TenantQuota(t)
		}
		var endStep func()
		if traced {
			_, endStep = tr.begin("governor.step", root)
		}
		t0 := time.Now()
		quotas, err := k.gov.Step()
		d := time.Since(t0)
		if traced {
			endStep()
			kl.step.ns.Add(d.Nanoseconds())
			kl.step.timed.Add(1)
			kl.step.calls.Add(1)
		}
		if err != nil {
			o.fail("governor step: %v", err)
			continue
		}
		usage := make([]int64, len(quotas))
		for t, q := range quotas {
			usage[t] = c.TenantUsage(t)
			if traced {
				kl.quotaMoved += abs64(q - prev[t])
			}
		}
		for _, p := range checkEpoch(len(perEpoch)+1, usage, quotas, k.shape.capacity, lcTenant, k.shape.lcTarget, kvLineBytes) {
			o.fail("%s", p)
		}
		ev := sumEvictions(c.Stats())
		perEpoch = append(perEpoch, ev-prevEvict)
		prevEvict = ev
	}
	endRound()
	for _, p := range checkEvictions(k.shape.wantEvictions, perEpoch) {
		o.fail("%s", p)
	}
	after := c.Stats()
	for t := range after {
		var mine tenantCounts
		for _, w := range workers {
			mine.gets += w.counts[t].gets
			mine.hits += w.counts[t].hits
			mine.sets += w.counts[t].sets
		}
		lookups := (after[t].Hits + after[t].Misses) - (before[t].Hits + before[t].Misses)
		for _, p := range checkCounts(after[t].Name, lookups, after[t].Hits-before[t].Hits, after[t].Sets-before[t].Sets, mine) {
			o.fail("%s", p)
		}
		if traced && t == lcTenant {
			kl.lcGets += mine.gets
			kl.lcHits += mine.hits
		}
	}
	var failed int64
	for _, w := range workers {
		if w.mismatches > 0 {
			o.fail("%d Gets returned a value stored for another request", w.mismatches)
			w.mismatches = 0
		}
		failed += w.failed
		w.failed = 0
	}
	if traced {
		kl.rounds++
		kl.evictions += sumEvictions(after) - sumEvictions(before)
		kl.fed += totalFed(c) - fedBefore
	}
	o.attempted += int64(len(k.ops))
	o.failed += failed
	return int64(len(k.ops)) - failed
}

func sumEvictions(st []cacheserve.TenantStats) uint64 {
	var n uint64
	for _, s := range st {
		n += s.CapacityEvictions
	}
	return n
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// setupKV builds the workload kvSetupReps times (keeping the last build) so
// setup_s is a median.
func setupKV(shape kvShape, seed uint64, o *outcome) (*kvState, error) {
	var k *kvState
	for i := 0; i < kvSetupReps; i++ {
		k = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if k, err = newKVState(shape, seed); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0))
	}
	// Start the timed phase without the discarded builds' garbage.
	runtime.GC()
	return k, nil
}

func newWorkers(k *kvState) []*kvWorker {
	ws := make([]*kvWorker, kvWorkers)
	for i := range ws {
		ws[i] = &kvWorker{counts: make([]tenantCounts, len(k.shape.tenants)), buf: make([]byte, 1<<16)}
	}
	return ws
}

func runKV(shape kvShape, opt options, tr *tracer) (*outcome, error) {
	o := &outcome{}
	k, err := setupKV(shape, opt.seed, o)
	if err != nil {
		return nil, err
	}
	workers := newWorkers(k)
	kl := &kvLayers{}
	err = timedRounds(opt, o, func(traced bool) (int64, error) {
		return kvRound(k, workers, traced, tr, kl, o), nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, w := range workers {
		n += len(w.lat)
	}
	o.lcLatency = make([]float64, 0, n)
	for _, w := range workers {
		for _, l := range w.lat {
			o.lcLatency = append(o.lcLatency, float64(l))
		}
	}
	if opt.trace {
		kl.mergeTimings(workers)
		o.layers = kl.metrics()
		in, err := newSimInputs(opt.seed)
		if err != nil {
			return nil, err
		}
		if err := addOtherLayers(opt, tr, o, in); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func runKVRead(opt options, tr *tracer) (*outcome, error)  { return runKV(kvReadShape, opt, tr) }
func runKVChurn(opt options, tr *tracer) (*outcome, error) { return runKV(kvChurnShape, opt, tr) }

// kvProbe measures the cache-service layers for a traced sim run: one traced
// kv-churn round (evictions, Sets and both Get outcomes all occur).
func kvProbe(seed uint64, tr *tracer) (map[string]metric, []string, error) {
	o := &outcome{}
	k, err := newKVState(kvChurnShape, seed)
	if err != nil {
		return nil, nil, err
	}
	workers := newWorkers(k)
	kl := &kvLayers{}
	kvRound(k, workers, true, tr, kl, o)
	kl.mergeTimings(workers)
	if o.failed > 0 {
		o.fail("%d calls failed", o.failed)
	}
	return kl.metrics(), o.problems, nil
}
