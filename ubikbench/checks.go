package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"repro/internal/cache"
	"repro/internal/experiment"
	"repro/internal/mix"
)

// ubikTailSlack is the tail-degradation slack StandardSchemes configures
// Ubik with (5%): Ubik may trade that much tail for batch throughput.
const ubikTailSlack = 0.05

// checkComparison checks a main-comparison sweep against the paper's claims,
// stated as inequalities per load level, plus the shape of the records.
func checkComparison(recs []experiment.MixRecord, schemes []string, mixes int) []string {
	var bad []string
	if len(recs) != len(schemes)*mixes {
		bad = append(bad, fmt.Sprintf("comparison: %d records, want %d schemes × %d mixes", len(recs), len(schemes), mixes))
	}
	known := map[string]bool{}
	for _, s := range schemes {
		known[s] = true
	}
	for _, r := range recs {
		if !known[r.Scheme] {
			bad = append(bad, fmt.Sprintf("comparison: record of unknown scheme %q", r.Scheme))
		}
		for _, v := range []float64{r.TailDegradation, r.WeightedSpeedup, r.PooledTailCycles, r.BaselineTailCycles} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				bad = append(bad, fmt.Sprintf("comparison: %s on %s has a non-finite or non-positive figure", r.Scheme, r.Mix.Name()))
				break
			}
		}
	}
	for _, level := range []mix.LoadLevel{mix.LowLoad, mix.HighLoad} {
		worst := map[string]float64{}
		sum := map[string]float64{}
		n := map[string]float64{}
		for _, r := range recs {
			if r.Mix.LC.Level != level {
				continue
			}
			worst[r.Scheme] = math.Max(worst[r.Scheme], r.TailDegradation)
			sum[r.Scheme] += r.WeightedSpeedup
			n[r.Scheme]++
		}
		if n["Ubik"] == 0 || n["StaticLC"] == 0 || n["UCP"] == 0 {
			bad = append(bad, fmt.Sprintf("comparison: %s load lacks Ubik, StaticLC or UCP records", level))
			continue
		}
		if worst["Ubik"] > worst["StaticLC"]+ubikTailSlack {
			bad = append(bad, fmt.Sprintf("%s load: Ubik's worst tail degradation %.4f exceeds StaticLC's %.4f + %.2f",
				level, worst["Ubik"], worst["StaticLC"], ubikTailSlack))
		}
		if sum["Ubik"]/n["Ubik"] <= sum["StaticLC"]/n["StaticLC"] {
			bad = append(bad, fmt.Sprintf("%s load: Ubik's mean weighted speedup %.4f is not above StaticLC's %.4f",
				level, sum["Ubik"]/n["Ubik"], sum["StaticLC"]/n["StaticLC"]))
		}
		if level == mix.HighLoad && worst["UCP"] <= worst["Ubik"] {
			bad = append(bad, fmt.Sprintf("high load: UCP's worst tail degradation %.4f is not above Ubik's %.4f",
				worst["UCP"], worst["Ubik"]))
		}
	}
	return bad
}

// checkFlash checks the flash-crowd table: one row per (magnitude, scheme),
// a steady p95 per scheme that is identical across magnitudes (every
// magnitude shares the pre-spike prefix), and a spike p95 above the steady
// one in every row.
func checkFlash(t experiment.Table, schemes []string, mags []float64) []string {
	var bad []string
	col := map[string]int{}
	for i, h := range t.Header {
		col[h] = i
	}
	for _, h := range []string{"spike_x", "scheme", "steady_p95", "spike_p95"} {
		if _, ok := col[h]; !ok {
			return []string{fmt.Sprintf("flash: table has no %s column", h)}
		}
	}
	if len(t.Rows) != len(schemes)*len(mags) {
		bad = append(bad, fmt.Sprintf("flash: %d rows, want %d magnitudes × %d schemes", len(t.Rows), len(mags), len(schemes)))
	}
	steady := map[string]float64{}
	for _, row := range t.Rows {
		if len(row) != len(t.Header) {
			bad = append(bad, fmt.Sprintf("flash: row %v has %d cells", row, len(row)))
			continue
		}
		scheme := row[col["scheme"]]
		st, err1 := strconv.ParseFloat(row[col["steady_p95"]], 64)
		sp, err2 := strconv.ParseFloat(row[col["spike_p95"]], 64)
		if err1 != nil || err2 != nil || st <= 0 {
			bad = append(bad, fmt.Sprintf("flash: %s ×%s has unreadable or zero p95 cells", scheme, row[col["spike_x"]]))
			continue
		}
		if prev, ok := steady[scheme]; ok && prev != st {
			bad = append(bad, fmt.Sprintf("flash: %s steady p95 differs across magnitudes (%g vs %g)", scheme, prev, st))
		}
		steady[scheme] = st
		if sp <= st {
			bad = append(bad, fmt.Sprintf("flash: %s ×%s spike p95 %g is not above steady p95 %g", scheme, row[col["spike_x"]], sp, st))
		}
	}
	if len(steady) != len(schemes) {
		bad = append(bad, fmt.Sprintf("flash: rows cover %d schemes, want %d", len(steady), len(schemes)))
	}
	return bad
}

// Values the kv workloads store carry their own identity: tenant (1 byte),
// total length (4 bytes), key length (2 bytes), then the key.
const valueHeader = 7

// fillValue writes the identity of (tenant, key) into buf, which must be at
// least valueHeader+len(key) long, and returns buf.
func fillValue(buf []byte, tenant int, key string) []byte {
	buf[0] = byte(tenant)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(buf)))
	binary.LittleEndian.PutUint16(buf[5:7], uint16(len(key)))
	copy(buf[valueHeader:], key)
	return buf
}

// valueMatches reports whether a value returned by a Get of (tenant, key)
// is the one stored for that request.
func valueMatches(v []byte, tenant int, key string) bool {
	if len(v) < valueHeader || v[0] != byte(tenant) || binary.LittleEndian.Uint32(v[1:5]) != uint32(len(v)) {
		return false
	}
	kl := int(binary.LittleEndian.Uint16(v[5:7]))
	return kl == len(key) && valueHeader+kl <= len(v) && string(v[valueHeader:valueHeader+kl]) == key
}

// tenantCounts are the calls the benchmark itself made for one tenant.
type tenantCounts struct {
	gets, hits, sets uint64
}

// checkCounts compares the cache's own counters, as deltas over the timed
// phase, with the counts the benchmark kept.
func checkCounts(name string, lookups, hits, sets uint64, mine tenantCounts) []string {
	var bad []string
	if lookups != mine.gets {
		bad = append(bad, fmt.Sprintf("%s: cache counted %d lookups, benchmark issued %d Gets", name, lookups, mine.gets))
	}
	if hits != mine.hits {
		bad = append(bad, fmt.Sprintf("%s: cache counted %d hits, benchmark saw %d", name, hits, mine.hits))
	}
	if sets != mine.sets {
		bad = append(bad, fmt.Sprintf("%s: cache counted %d sets, benchmark issued %d", name, sets, mine.sets))
	}
	return bad
}

// checkEpoch checks the cache's quota invariants after one governor epoch:
// usage within quota per tenant, quotas within capacity, and the
// latency-critical tenant's quota at its reserve (less rounding slack).
func checkEpoch(epoch int, usage, quota []int64, capacity int64, lc int, target, lineBytes int64) []string {
	var bad []string
	var sum int64
	for t := range quota {
		sum += quota[t]
		if usage[t] > quota[t] {
			bad = append(bad, fmt.Sprintf("epoch %d: tenant %d uses %d bytes over its quota %d", epoch, t, usage[t], quota[t]))
		}
	}
	if sum > capacity {
		bad = append(bad, fmt.Sprintf("epoch %d: quotas sum to %d, above capacity %d", epoch, sum, capacity))
	}
	if quota[lc] < target-4*lineBytes {
		bad = append(bad, fmt.Sprintf("epoch %d: latency-critical quota %d is below its reserve %d - 4 lines", epoch, quota[lc], target))
	}
	return bad
}

// checkEvictions checks the capacity evictions of each epoch: none at all
// when the working sets fit (kv-read), some in every epoch when a scan
// overflows the cache (kv-churn).
func checkEvictions(wantEvictions bool, perEpoch []uint64) []string {
	for i, n := range perEpoch {
		if !wantEvictions && n != 0 {
			return []string{fmt.Sprintf("epoch %d: %d capacity evictions where the working sets fit", i+1, n)}
		}
		if wantEvictions && n == 0 {
			return []string{fmt.Sprintf("epoch %d: no capacity evictions although the scan overflows the cache", i+1)}
		}
	}
	return nil
}

// checkConservation checks that the replayed hierarchy loses and invents no
// accesses: every L1 miss reaches L2, every L2 miss reaches the LLC, and the
// LLC's partitions together hold no more than its capacity.
func checkConservation(l1, l2 cache.LevelStats, llcAccesses uint64, sizes []uint64, numLines uint64) []string {
	var bad []string
	if l1.Misses != l2.Accesses {
		bad = append(bad, fmt.Sprintf("replay: %d L1 misses but %d L2 accesses", l1.Misses, l2.Accesses))
	}
	if l2.Misses != llcAccesses {
		bad = append(bad, fmt.Sprintf("replay: %d L2 misses but %d LLC accesses", l2.Misses, llcAccesses))
	}
	var sum uint64
	for _, s := range sizes {
		sum += s
	}
	if sum > numLines {
		bad = append(bad, fmt.Sprintf("replay: partitions hold %d lines in a %d-line LLC", sum, numLines))
	}
	return bad
}

// checkForkAgreement checks that a fork answered the same accesses exactly
// as its parent did.
func checkForkAgreement(parent, fork []cache.AccessResult) []string {
	if len(parent) != len(fork) {
		return []string{fmt.Sprintf("fork: %d parent results against %d fork results", len(parent), len(fork))}
	}
	for i := range parent {
		if parent[i] != fork[i] {
			return []string{fmt.Sprintf("fork: access %d answered %+v on the fork, %+v on the parent", i, fork[i], parent[i])}
		}
	}
	return nil
}
