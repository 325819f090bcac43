package main

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiment"
	"repro/internal/mix"
)

var testSchemes = []string{"LRU", "UCP", "OnOff", "StaticLC", "Ubik"}

// goodRecords is a comparison that keeps every claim: one mix per load.
func goodRecords() []experiment.MixRecord {
	tail := map[string]float64{"LRU": 1.1, "UCP": 1.5, "OnOff": 1.0, "StaticLC": 1.01, "Ubik": 1.02}
	ws := map[string]float64{"LRU": 1.1, "UCP": 1.15, "OnOff": 1.2, "StaticLC": 1.05, "Ubik": 1.12}
	var recs []experiment.MixRecord
	for id, level := range []mix.LoadLevel{mix.LowLoad, mix.HighLoad} {
		for _, s := range testSchemes {
			recs = append(recs, experiment.MixRecord{
				Mix:    mix.Mix{ID: id, LC: mix.LCConfig{Level: level, Instances: 3}},
				Scheme: s, TailDegradation: tail[s], WeightedSpeedup: ws[s],
				PooledTailCycles: 1000 * tail[s], BaselineTailCycles: 1000,
			})
		}
	}
	return recs
}

func set(recs []experiment.MixRecord, level mix.LoadLevel, scheme string, f func(*experiment.MixRecord)) []experiment.MixRecord {
	for i := range recs {
		if recs[i].Mix.LC.Level == level && recs[i].Scheme == scheme {
			f(&recs[i])
		}
	}
	return recs
}

func TestComparisonChecks(t *testing.T) {
	if bad := checkComparison(goodRecords(), testSchemes, 2); len(bad) != 0 {
		t.Fatalf("good records rejected: %v", bad)
	}
	planted := map[string][]experiment.MixRecord{
		"Ubik tail beyond StaticLC + slack": set(goodRecords(), mix.LowLoad, "Ubik", func(r *experiment.MixRecord) { r.TailDegradation = 1.01 + ubikTailSlack + 0.001 }),
		"Ubik speedup not above StaticLC":   set(goodRecords(), mix.HighLoad, "Ubik", func(r *experiment.MixRecord) { r.WeightedSpeedup = 1.05 }),
		"UCP tail not above Ubik at high":   set(goodRecords(), mix.HighLoad, "UCP", func(r *experiment.MixRecord) { r.TailDegradation = 1.02 }),
		"NaN figure":                        set(goodRecords(), mix.LowLoad, "LRU", func(r *experiment.MixRecord) { r.WeightedSpeedup = math.NaN() }),
		"zero baseline":                     set(goodRecords(), mix.LowLoad, "OnOff", func(r *experiment.MixRecord) { r.BaselineTailCycles = 0 }),
		"missing record":                    goodRecords()[1:],
		"unknown scheme":                    set(goodRecords(), mix.LowLoad, "LRU", func(r *experiment.MixRecord) { r.Scheme = "FIFO" }),
	}
	for name, recs := range planted {
		if bad := checkComparison(recs, testSchemes, 2); len(bad) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

func flashTable(rows [][]string) experiment.Table {
	return experiment.Table{Header: []string{"spike_x", "scheme", "steady_p95", "spike_p95", "post_p95", "recovery_windows"}, Rows: rows}
}

func goodFlashRows() [][]string {
	var rows [][]string
	for _, mag := range []string{"2", "8"} {
		for _, s := range testSchemes {
			rows = append(rows, []string{mag, s, "1000", "3000", "1100", "4"})
		}
	}
	return rows
}

func TestFlashChecks(t *testing.T) {
	mags := []float64{2, 8}
	if bad := checkFlash(flashTable(goodFlashRows()), testSchemes, mags); len(bad) != 0 {
		t.Fatalf("good table rejected: %v", bad)
	}
	steadyMoved := goodFlashRows()
	steadyMoved[7][2] = "1001"
	noSpike := goodFlashRows()
	noSpike[3][3] = "1000"
	garbled := goodFlashRows()
	garbled[0][2] = "-"
	for name, rows := range map[string][][]string{
		"steady p95 differs across magnitudes": steadyMoved,
		"spike p95 not above steady":           noSpike,
		"missing row":                          goodFlashRows()[:9],
		"unreadable cell":                      garbled,
	} {
		if bad := checkFlash(flashTable(rows), testSchemes, mags); len(bad) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
	if bad := checkFlash(experiment.Table{Header: []string{"scheme"}}, testSchemes, mags); len(bad) == 0 {
		t.Error("table without p95 columns accepted")
	}
}

func TestValueIdentity(t *testing.T) {
	buf := make([]byte, 64)
	v := fillValue(buf[:40], 1, "batch:00000042")
	if !valueMatches(v, 1, "batch:00000042") {
		t.Fatal("a value does not match its own request")
	}
	for name, ok := range map[string]bool{
		"other tenant": valueMatches(v, 0, "batch:00000042"),
		"other key":    valueMatches(v, 1, "batch:00000043"),
		"truncated":    valueMatches(v[:30], 1, "batch:00000042"),
		"too short":    valueMatches(v[:3], 1, "batch:00000042"),
	} {
		if ok {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCountChecks(t *testing.T) {
	mine := tenantCounts{gets: 10, hits: 7, sets: 4}
	if bad := checkCounts("lc", 10, 7, 4, mine); len(bad) != 0 {
		t.Fatalf("matching counts rejected: %v", bad)
	}
	for name, c := range map[string][3]uint64{
		"lookups": {11, 7, 4}, "hits": {10, 8, 4}, "sets": {10, 7, 3},
	} {
		if bad := checkCounts("lc", c[0], c[1], c[2], mine); len(bad) == 0 {
			t.Errorf("%s mismatch accepted", name)
		}
	}
}

func TestEpochChecks(t *testing.T) {
	const line = 64
	ok := checkEpoch(1, []int64{900, 500}, []int64{1000, 600}, 1600, 0, 1000, line)
	if len(ok) != 0 {
		t.Fatalf("good epoch rejected: %v", ok)
	}
	if len(checkEpoch(1, []int64{700, 500}, []int64{1000 - 4*line, 600}, 1600, 0, 1000, line)) != 0 {
		t.Error("quota at the reserve less 4 lines rejected")
	}
	for name, bad := range map[string][]string{
		"usage over quota":          checkEpoch(1, []int64{900, 700}, []int64{1000, 600}, 1600, 0, 1000, line),
		"quotas over capacity":      checkEpoch(1, []int64{900, 500}, []int64{1000, 700}, 1600, 0, 1000, line),
		"reserve not honoured":      checkEpoch(1, []int64{700, 500}, []int64{1000 - 4*line - 1, 600}, 1600, 0, 1000, line),
		"reserve granted elsewhere": checkEpoch(1, []int64{100, 500}, []int64{600, 1000}, 1600, 0, 1000, line),
	} {
		if len(bad) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEvictionChecks(t *testing.T) {
	if len(checkEvictions(false, []uint64{0, 0, 0})) != 0 || len(checkEvictions(true, []uint64{3, 1, 9})) != 0 {
		t.Fatal("good eviction counts rejected")
	}
	if len(checkEvictions(false, []uint64{0, 1, 0})) == 0 {
		t.Error("an eviction in a fitting workload accepted")
	}
	if len(checkEvictions(true, []uint64{3, 0, 9})) == 0 {
		t.Error("an epoch without evictions under a scan accepted")
	}
}

func TestConservationChecks(t *testing.T) {
	l1 := cache.LevelStats{Accesses: 100, Hits: 60, Misses: 40}
	l2 := cache.LevelStats{Accesses: 40, Hits: 10, Misses: 30}
	if bad := checkConservation(l1, l2, 30, []uint64{10, 20}, 30); len(bad) != 0 {
		t.Fatalf("conserving replay rejected: %v", bad)
	}
	lost := l2
	lost.Accesses = 39
	for name, bad := range map[string][]string{
		"L1 misses lost before L2":   checkConservation(l1, lost, 30, []uint64{10, 20}, 30),
		"L2 misses lost before LLC":  checkConservation(l1, l2, 29, []uint64{10, 20}, 30),
		"partitions beyond capacity": checkConservation(l1, l2, 30, []uint64{11, 20}, 30),
	} {
		if len(bad) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestForkAgreement(t *testing.T) {
	parent := []cache.AccessResult{{Hit: true, PrevMeta: 3}, {Evicted: true, EvictedPartition: 2}}
	same := append([]cache.AccessResult(nil), parent...)
	if len(checkForkAgreement(parent, same)) != 0 {
		t.Fatal("identical answers rejected")
	}
	diverged := append([]cache.AccessResult(nil), parent...)
	diverged[1].EvictedPartition = 1
	if len(checkForkAgreement(parent, diverged)) == 0 {
		t.Error("a fork evicting from another partition accepted")
	}
	if len(checkForkAgreement(parent, same[:1])) == 0 {
		t.Error("a fork with fewer answers accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
