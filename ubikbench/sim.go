package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/experiment"
	"repro/internal/mix"
	"repro/internal/policy"
	"repro/internal/sim"
)

// simSetupReps is how often the sim workloads repeat their set-up; setup_s
// is the median, so one slow repetition does not move it.
const simSetupReps = 200

// The flash sweep's size: the shipped spike window and the two extreme
// shipped magnitudes. Two magnitudes are the fewest that still fork every
// scheme's warm checkpoint more than once.
const flashSpikeWindow = 4

var flashMags = []float64{2, 8}

// simInputs are the sim workloads' inputs: the shipped quick-scale machine
// and mix matrix, with the run seed driving every run's randomness.
type simInputs struct {
	cfg     sim.Config
	scale   experiment.Scale
	mixes   []mix.Mix
	schemes []experiment.Scheme
	names   []string
}

// newSimInputs builds the inputs. The mix matrix is the one the shipped
// QuickScale selects; only the runs take the seed, so every seed simulates
// the same applications and the work per round stays comparable.
func newSimInputs(seed uint64) (simInputs, error) {
	in := simInputs{cfg: sim.DefaultConfig(), scale: experiment.QuickScale(), schemes: experiment.StandardSchemes()}
	mixes, err := experiment.MixesFor(in.scale)
	if err != nil {
		return in, err
	}
	in.mixes = mixes
	in.scale.Seed = seed
	for _, s := range in.schemes {
		in.names = append(in.names, s.Name)
	}
	return in, in.cfg.Validate()
}

func setupSim(seed uint64, o *outcome) (simInputs, error) {
	var in simInputs
	for i := 0; i < simSetupReps; i++ {
		t0 := time.Now()
		var err error
		if in, err = newSimInputs(seed); err != nil {
			return in, err
		}
		o.setups = append(o.setups, time.Since(t0))
	}
	return in, nil
}

// recordKey is the part of a MixRecord two identical runs must reproduce.
type recordKey struct {
	mix, scheme             string
	tail, ws, pooled, isoTl float64
}

func recordKeys(recs []experiment.MixRecord) []recordKey {
	out := make([]recordKey, len(recs))
	for i, r := range recs {
		out[i] = recordKey{r.Mix.Name(), r.Scheme, r.TailDegradation, r.WeightedSpeedup, r.PooledTailCycles, r.BaselineTailCycles}
	}
	return out
}

// compareLayers accumulates the experiment and policy layers' figures over
// the traced comparison rounds.
type compareLayers struct {
	rounds          int
	baselines, runs time.Duration
	pol             policyStats
}

// sweepTraced runs one comparison the way RunMainComparison does, split so
// the layers show: a Sweep without schemes warms the isolation baselines,
// then a Sweep with every scheme's policy wrapped in a timedPolicy runs the
// mixes.
func sweepTraced(in simInputs, mixes []mix.Mix, tr *tracer, cl *compareLayers) ([]experiment.MixRecord, error) {
	s := in.scale
	s.Warm = sim.NewWarmPool()
	base := experiment.NewBaselines(in.cfg, s)
	root, end := tr.begin("experiment.sweep", 0)
	defer end()
	_, endBase := tr.begin("experiment.baselines", root)
	t0 := time.Now()
	_, err := experiment.Sweep(in.cfg, s, base, mixes, nil)
	cl.baselines += time.Since(t0)
	endBase()
	if err != nil {
		return nil, err
	}
	wrapped := make([]experiment.Scheme, len(in.schemes))
	for i, sc := range in.schemes {
		inner := sc.NewPolicy
		wrapped[i] = sc
		wrapped[i].NewPolicy = func() policy.Policy { return timedPolicy{Policy: inner(), st: &cl.pol} }
	}
	_, endRuns := tr.begin("experiment.mix_runs", root)
	t1 := time.Now()
	recs, err := experiment.Sweep(in.cfg, s, base, mixes, wrapped)
	cl.runs += time.Since(t1)
	endRuns()
	cl.rounds++
	return recs, err
}

func (cl *compareLayers) metrics() map[string]metric {
	n := float64(cl.rounds)
	return map[string]metric{
		"experiment.baselines_s":   {cl.baselines.Seconds() / n, "s"},
		"experiment.mix_runs_s":    {cl.runs.Seconds() / n, "s"},
		"policy.reconfigure_calls": {float64(cl.pol.reconfigure.calls.Load()) / n, "count"},
		"policy.reconfigure_us":    {cl.pol.reconfigure.meanNs() / 1e3, "us"},
		"policy.event_calls":       {float64(cl.pol.event.calls.Load()) / n, "count"},
		"policy.event_us":          {cl.pol.event.meanNs() / 1e3, "us"},
	}
}

// runSimCompare is the paper's main comparison: the five standard schemes
// over the quick-scale mix matrix, with isolation baselines.
func runSimCompare(opt options, tr *tracer) (*outcome, error) {
	o := &outcome{}
	in, err := setupSim(opt.seed, o)
	if err != nil {
		return nil, err
	}
	var first []recordKey
	cl := &compareLayers{}
	err = timedRounds(opt, o, func(traced bool) (int64, error) {
		o.attempted += int64(len(in.schemes) * len(in.mixes))
		var recs []experiment.MixRecord
		var err error
		if traced {
			recs, err = sweepTraced(in, in.mixes, tr, cl)
		} else {
			s := in.scale
			s.Warm = sim.NewWarmPool()
			recs, err = experiment.Sweep(in.cfg, s, experiment.NewBaselines(in.cfg, s), in.mixes, in.schemes)
		}
		if err != nil {
			return 0, err
		}
		for _, p := range checkComparison(recs, in.names, len(in.mixes)) {
			o.fail("%s", p)
		}
		keys := recordKeys(recs)
		if first == nil {
			first = keys
		} else if !reflect.DeepEqual(first, keys) {
			o.fail("comparison: a repeated round gave different records")
		}
		return int64(len(recs)), nil
	})
	if err != nil {
		return nil, err
	}
	if opt.trace {
		o.layers = cl.metrics()
		if err := addOtherLayers(opt, tr, o, in); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// flashLayers holds the warm-pool counts of the last traced flash round.
type flashLayers struct{ results, checkpoints int }

func (fl flashLayers) metrics() map[string]metric {
	return map[string]metric{
		"experiment.warm_results":     {float64(fl.results), "count"},
		"experiment.warm_checkpoints": {float64(fl.checkpoints), "count"},
	}
}

// flashRound runs the flash-crowd sweep once on a fresh warm pool. It keeps
// the shipped QuickScale seed whatever the run seed: on other seeds (2, for
// one) no latency sample lands in the four pre-spike windows, every steady
// p95 reads 0 and the sweep shows no transient at all.
func flashRound(in simInputs, tr *tracer, fl *flashLayers) (experiment.Table, error) {
	s := in.scale
	s.Seed = experiment.QuickScale().Seed
	pool := sim.NewWarmPool()
	s.Warm = pool
	_, end := tr.begin("experiment.flash", 0)
	tabs, err := experiment.FlashRecoveryAt(in.cfg, s, flashSpikeWindow, flashMags)
	end()
	if err != nil {
		return experiment.Table{}, err
	}
	if len(tabs) != 1 {
		return experiment.Table{}, fmt.Errorf("flash returned %d tables, want 1", len(tabs))
	}
	if fl != nil {
		fl.results, fl.checkpoints = pool.ResultCount(), pool.CheckpointCount()
	}
	return tabs[0], nil
}

// runSimFlash is the flash-crowd sweep: every standard scheme through spikes
// of two magnitudes, each forked from the scheme's warm pre-spike checkpoint.
func runSimFlash(opt options, tr *tracer) (*outcome, error) {
	o := &outcome{}
	in, err := setupSim(opt.seed, o)
	if err != nil {
		return nil, err
	}
	var first [][]string
	fl := &flashLayers{}
	err = timedRounds(opt, o, func(traced bool) (int64, error) {
		o.attempted += int64(len(in.schemes) * len(flashMags))
		var t experiment.Table
		var err error
		if traced {
			t, err = flashRound(in, tr, fl)
		} else {
			t, err = flashRound(in, nil, nil)
		}
		if err != nil {
			return 0, err
		}
		for _, p := range checkFlash(t, in.names, flashMags) {
			o.fail("%s", p)
		}
		if first == nil {
			first = t.Rows
		} else if !reflect.DeepEqual(first, t.Rows) {
			o.fail("flash: a repeated round gave a different table")
		}
		return int64(len(t.Rows)), nil
	})
	if err != nil {
		return nil, err
	}
	if opt.trace {
		o.layers = fl.metrics()
		if err := addOtherLayers(opt, tr, o, in); err != nil {
			return nil, err
		}
	}
	return o, nil
}
