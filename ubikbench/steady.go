package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady runs each named workload -runs times as separate processes, seeds
// 1..runs, alternating workloads between runs, and prints every
// end-to-end metric's median, quartiles and spread (the quartile distance
// over the median). The bounds in BENCHMARK.json are set from its output.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	names := fs.String("workloads", "sim-compare,sim-flash,kv-read,kv-churn", "comma-separated workloads")
	runs := fs.Int("runs", 10, "runs per workload")
	seconds := fs.String("seconds", "20", "timed seconds per run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	list := strings.Split(*names, ",")
	values := map[string]map[string][]float64{}
	failShare := map[string]map[string]bool{}
	for _, w := range list {
		if _, ok := workloads[w]; !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
		values[w] = map[string][]float64{}
		failShare[w] = map[string]bool{}
	}
	for i := 0; i < *runs; i++ {
		seed := strconv.Itoa(i + 1)
		for _, w := range list {
			var out bytes.Buffer
			cmd := exec.Command(self, "--workload", w, "--seed", seed, "--seconds", *seconds, "--trace", "0")
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %s: %v", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return fmt.Errorf("%s seed %s: %v", w, seed, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %s: checks failed", w, seed)
			}
			failShare[w][fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted)] = true
			for k, m := range rep.Metrics {
				values[w][k] = append(values[w][k], m.Value)
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %s: %s\n", w, seed, lines[len(lines)-1])
		}
	}
	fmt.Printf("%-12s %-14s %14s %14s %14s %8s %14s %14s\n", "workload", "metric", "median", "q1", "q3", "spread", "min", "max")
	for _, w := range list {
		keys := make([]string, 0, len(values[w]))
		for k := range values[w] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := values[w][k]
			q1, q2, q3 := quartiles(v)
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			fmt.Printf("%-12s %-14s %14.6g %14.6g %14.6g %8.4f %14.6g %14.6g\n", w, k, q2, q1, q3, (q3-q1)/q2, s[0], s[len(s)-1])
		}
		fmt.Printf("%-12s failed/attempted seen: %v\n", w, keysOf(failShare[w]))
	}
	return nil
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// quartiles returns the three cut points Python's statistics.quantiles(v,
// n=4) gives (its default "exclusive" method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
