package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/monitor"
	"repro/internal/workload"
)

// The layer replay sends one mix's own address streams through each of the
// simulator's layers in turn, timing each over a whole batch of accesses.
const (
	replaySteps     = 60_000 // accesses drawn per application
	replayReqLen    = 500    // LC accesses per request (BeginRequest cadence)
	replayForkProbe = 20_000 // LLC accesses held back to compare fork and parent
)

// llcRecorder is a stub LLC under the private levels: it records the
// L2-miss stream (every access misses) so the private levels can be timed
// alone and the stream replayed into the real LLC afterwards.
type llcRecorder struct {
	addrs []uint64
	parts []cache.PartitionID
	lines uint64
	n     int
}

func (r *llcRecorder) Access(addr uint64, part cache.PartitionID, _ uint64) cache.AccessResult {
	r.addrs = append(r.addrs, addr)
	r.parts = append(r.parts, part)
	return cache.AccessResult{}
}
func (r *llcRecorder) SetPartitionTarget(cache.PartitionID, uint64) {}
func (r *llcRecorder) PartitionTarget(cache.PartitionID) uint64     { return 0 }
func (r *llcRecorder) PartitionSize(cache.PartitionID) uint64       { return 0 }
func (r *llcRecorder) NumLines() uint64                             { return r.lines }
func (r *llcRecorder) NumPartitions() int                           { return r.n }
func (r *llcRecorder) Stats() cache.Stats                           { return cache.Stats{} }
func (r *llcRecorder) PartitionStats(cache.PartitionID) cache.PartitionStats {
	return cache.PartitionStats{}
}
func (r *llcRecorder) ResetStats() {}
func (r *llcRecorder) Clone() cache.Cache {
	c := *r
	c.addrs = append([]uint64(nil), r.addrs...)
	c.parts = append([]cache.PartitionID(nil), r.parts...)
	return &c
}

// replayStreams builds the first mix's applications (its latency-critical
// instances, then its batch applications) and returns their streams and
// which of them are latency-critical.
func replayStreams(in simInputs, seed uint64) ([]*workload.Stream, []bool, error) {
	m := in.mixes[0]
	var streams []*workload.Stream
	var lc []bool
	for i := 0; i < m.LC.Instances; i++ {
		a, err := workload.NewLCApp(m.LC.App, i, workload.SplitSeed(seed, uint64(i)))
		if err != nil {
			return nil, nil, err
		}
		streams, lc = append(streams, a.Stream()), append(lc, true)
	}
	for j, p := range m.Batch.Apps {
		i := m.LC.Instances + j
		a, err := workload.NewBatchApp(p, i, workload.SplitSeed(seed, uint64(i)))
		if err != nil {
			return nil, nil, err
		}
		streams, lc = append(streams, a.Stream()), append(lc, false)
	}
	return streams, lc, nil
}

// layerReplay times stream draw, the private levels, the LLC walk, the
// UMONs and a seal/fork of the LLC, and checks the accesses are conserved
// from level to level and that a fork answers exactly as its parent.
func layerReplay(in simInputs, seed uint64, tr *tracer) (map[string]metric, []string, error) {
	root, end := tr.begin("replay", 0)
	defer end()
	streams, isLC, err := replayStreams(in, seed)
	if err != nil {
		return nil, nil, err
	}
	apps := len(streams)
	if apps > in.cfg.LLC.Partitions {
		return nil, nil, fmt.Errorf("replay: %d applications for %d partitions", apps, in.cfg.LLC.Partitions)
	}

	// Stream draw, interleaved round-robin as the scheduler would.
	addrs := make([]uint64, 0, apps*replaySteps)
	_, endDraw := tr.begin("workload.stream_next", root)
	t0 := time.Now()
	for step := 0; step < replaySteps; step++ {
		for a, s := range streams {
			if isLC[a] && step%replayReqLen == 0 {
				s.BeginRequest()
			}
			addrs = append(addrs, s.Next())
		}
	}
	drawNs := time.Since(t0).Nanoseconds()
	endDraw()

	// Private levels over the recording stub.
	rec := &llcRecorder{lines: in.cfg.LLC.Lines, n: in.cfg.LLC.Partitions}
	hiers := make([]*cache.Hierarchy, apps)
	for a := range hiers {
		if hiers[a], err = cache.NewHierarchy(in.cfg.Hierarchy, rec); err != nil {
			return nil, nil, err
		}
	}
	_, endPriv := tr.begin("cache.private", root)
	t0 = time.Now()
	for i, addr := range addrs {
		a := i % apps
		hiers[a].Access(addr, cache.PartitionID(a), uint64(i))
	}
	privNs := time.Since(t0).Nanoseconds()
	endPriv()
	var l1, l2 cache.LevelStats
	for _, h := range hiers {
		s1, s2 := h.L1().Stats(), h.L2().Stats()
		l1.Accesses, l1.Hits, l1.Misses = l1.Accesses+s1.Accesses, l1.Hits+s1.Hits, l1.Misses+s1.Misses
		l2.Accesses, l2.Hits, l2.Misses = l2.Accesses+s2.Accesses, l2.Hits+s2.Hits, l2.Misses+s2.Misses
	}
	n := len(rec.addrs)
	if n <= replayForkProbe {
		return nil, nil, fmt.Errorf("replay: only %d accesses reached the LLC", n)
	}

	// The real LLC, partitioned equally among the applications.
	llc, err := cache.New(in.cfg.LLC)
	if err != nil {
		return nil, nil, err
	}
	for p := 0; p < llc.NumPartitions(); p++ {
		llc.SetPartitionTarget(cache.PartitionID(p), llc.NumLines()/uint64(llc.NumPartitions()))
	}
	warm := n - replayForkProbe
	_, endLLC := tr.begin("cache.llc", root)
	t0 = time.Now()
	for i := 0; i < warm; i++ {
		llc.Access(rec.addrs[i], rec.parts[i], uint64(i))
	}
	llcNs := time.Since(t0).Nanoseconds()
	endLLC()
	llcStats := llc.Stats()

	// UMONs, one per application, on the same L2-miss stream.
	umons := make([]*monitor.UMON, apps)
	for a := range umons {
		if umons[a], err = monitor.NewUMON(in.cfg.LLC.Lines, in.cfg.UMONWays, in.cfg.UMONSampleSets); err != nil {
			return nil, nil, err
		}
	}
	_, endUMON := tr.begin("monitor.umon", root)
	t0 = time.Now()
	for i, addr := range rec.addrs {
		umons[rec.parts[i]].Access(addr)
	}
	umonNs := time.Since(t0).Nanoseconds()
	endUMON()

	// Seal the warm LLC, fork it, and run the held-back accesses on both.
	sealer, ok := llc.(cache.Sealer)
	if !ok {
		return nil, nil, fmt.Errorf("replay: the LLC cannot be sealed")
	}
	_, endSeal := tr.begin("cache.seal_fork", root)
	t0 = time.Now()
	sealed := sealer.Seal()
	sealNs := time.Since(t0).Nanoseconds()
	t0 = time.Now()
	fork := sealed.Fork()
	forkNs := time.Since(t0).Nanoseconds()
	forkRes := make([]cache.AccessResult, 0, replayForkProbe)
	t0 = time.Now()
	for i := warm; i < n; i++ {
		forkRes = append(forkRes, fork.Access(rec.addrs[i], rec.parts[i], uint64(i)))
	}
	forkAccessNs := time.Since(t0).Nanoseconds()
	endSeal()
	parentRes := make([]cache.AccessResult, 0, replayForkProbe)
	for i := warm; i < n; i++ {
		parentRes = append(parentRes, llc.Access(rec.addrs[i], rec.parts[i], uint64(i)))
	}

	sizes := make([]uint64, llc.NumPartitions())
	for p := range sizes {
		sizes[p] = llc.PartitionSize(cache.PartitionID(p))
	}
	problems := checkConservation(l1, l2, uint64(n), sizes, llc.NumLines())
	if got := llc.Stats().Accesses; got != uint64(n) {
		problems = append(problems, fmt.Sprintf("replay: LLC counted %d accesses, %d were sent", got, n))
	}
	problems = append(problems, checkForkAgreement(parentRes, forkRes)...)

	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]metric{
		"workload.stream_next_ns":    {float64(drawNs) / float64(len(addrs)), "ns"},
		"cache.private_access_ns":    {float64(privNs) / float64(len(addrs)), "ns"},
		"cache.l1_hit_ratio":         {ratio(l1.Hits, l1.Accesses), "ratio"},
		"cache.l2_hit_ratio":         {ratio(l2.Hits, l2.Accesses), "ratio"},
		"cache.llc_access_ns":        {float64(llcNs) / float64(warm), "ns"},
		"cache.llc_miss_ratio":       {ratio(llcStats.Misses, llcStats.Accesses), "ratio"},
		"cache.llc_forced_evictions": {float64(llcStats.ForcedEvictions), "count"},
		"cache.seal_us":              {float64(sealNs) / 1e3, "us"},
		"cache.fork_us":              {float64(forkNs) / 1e3, "us"},
		"cache.fork_access_ns":       {float64(forkAccessNs) / float64(replayForkProbe), "ns"},
		"monitor.umon_access_ns":     {float64(umonNs) / float64(n), "ns"},
	}, problems, nil
}
