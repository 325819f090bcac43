// Command ubikbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one named workload for a fixed time, checks the program's outputs
// against properties the reproduction must keep, and prints one JSON object
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// alternates untraced and traced rounds and prints the per-layer metrics and
// the tracing overhead. See README.md for the workloads, the metrics and the
// layer → end-to-end map.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash ubikbench/run.sh --workload kv-read --seed 3 --seconds 20 --trace 0
//	bash ubikbench/run.sh steady --workloads sim-compare,kv-read --runs 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the per-run settings every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	spans   string // directory the traced run writes its spans into
}

// outcome is what a workload hands back to main: its timings, its counts,
// the check violations it found and (traced) its per-layer metrics.
type outcome struct {
	setups    []time.Duration // one per set-up repetition
	rounds    []time.Duration // untraced timed rounds
	traced    []time.Duration // traced rounds (traced runs only)
	attempted int64           // operations attempted in all rounds
	failed    int64           // operations that failed in all rounds
	completed int64           // operations completed in untraced rounds
	elapsed   time.Duration   // whole timed phase, untraced rounds only
	lcLatency []float64       // latency-critical Get latencies in ns (kv only)
	problems  []string
	layers    map[string]metric
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(opt options, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"sim-compare": runSimCompare,
	"sim-flash":   runSimFlash,
	"kv-read":     runKVRead,
	"kv-churn":    runKVChurn,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "ubikbench steady:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("ubikbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: sim-compare, sim-flash, kv-read or kv-churn")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	traceOn := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	spans := fs.String("spans", ".bench_build/spans", "directory traced runs write their spans into")
	_ = fs.Parse(os.Args[1:])
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "ubikbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "ubikbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *traceOn == 1, spans: *spans}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	out, err := run(opt, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ubikbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	rep := report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
	}
	if opt.trace {
		rep.Metrics = out.layers
		rep.Metrics["trace.overhead_pct"] = metric{overheadPct(out.rounds, out.traced), "%"}
		path, err := tr.write(opt.spans, *name, opt.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ubikbench: writing spans:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	} else {
		rep.Metrics = endToEnd(out)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ubikbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// endToEnd derives the end-to-end metrics of an untraced run. The sim
// workloads serve no Gets: there the two latency fields carry the
// percentiles of the run's round times, so every run reports every metric.
func endToEnd(o *outcome) map[string]metric {
	rounds := durationsNs(o.rounds)
	lat := o.lcLatency
	if len(lat) == 0 {
		lat = rounds
	}
	return map[string]metric{
		"setup_s":       {median(durationsNs(o.setups)) / 1e9, "s"},
		"wall_s":        {median(rounds) / 1e9, "s"},
		"max_rss_mb":    {maxRSSMB(), "MB"},
		"ops_per_s":     {float64(o.completed) / o.elapsed.Seconds(), "1/s"},
		"lc_get_p50_ns": {percentile(lat, 50), "ns"},
		"lc_get_p99_ns": {percentile(lat, 99), "ns"},
	}
}

// overheadPct is the traced rounds' median time over the untraced rounds'
// median, as a percentage above it.
func overheadPct(plain, traced []time.Duration) float64 {
	p, t := median(durationsNs(plain)), median(durationsNs(traced))
	if p == 0 {
		return 0
	}
	return (t/p - 1) * 100
}

// maxRSSMB is the process's peak resident set in MB (getrusage reports KiB
// on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func durationsNs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds())
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile of xs (0 for an empty slice).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	rank := int(p/100*float64(len(s)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// timedRounds runs round until the timed phase has used its seconds: a new
// round starts only while the one before it would still fit, and at least
// one round always runs. With trace set it alternates untraced and traced
// rounds (untraced first) so the overhead is measured in one process. round
// returns how many operations it completed.
func timedRounds(opt options, o *outcome, round func(traced bool) (int64, error)) error {
	budget := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		traced := opt.trace && i%2 == 1
		cpu0 := cpuSeconds()
		t0 := time.Now()
		n, err := round(traced)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "round %d (traced %v): %.4f s wall, %.4f s cpu\n", i, traced, d.Seconds(), cpuSeconds()-cpu0)
		if traced {
			o.traced = append(o.traced, d)
		} else {
			o.rounds = append(o.rounds, d)
			o.elapsed += d
			o.completed += n
		}
		if time.Since(start)+d > budget && (!opt.trace || len(o.traced) > 0) {
			return nil
		}
	}
}
