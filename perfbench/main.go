// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the public APIs of the scenario, mc, dist and
// controller packages for a fixed number of seconds, checks the outputs,
// and prints one JSON result line:
//
//	perfbench --workload detect|sharded|live --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics listed in the
// checkout's BENCHMARK.json; with --trace 1 it holds the per-layer metrics,
// taken from spans recorded around the calls into each layer and from the
// layers' public counters. See README.md in this directory.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// opts are the benchmark's command-line arguments.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// result is what a workload reports. e2e and layer are keyed by metric
// name; the names and units printed come from BENCHMARK.json.
type result struct {
	correct   bool
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
}

var workloads = map[string]func(opts) (*result, error){
	"detect":  runDetect,
	"sharded": runSharded,
	"live":    runLive,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: detect, sharded or live")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "how long the timed phase runs")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload detect|sharded|live --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	if err := mainErr(run, opts{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(run func(opts) (*result, error), o opts) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	printHost()
	res, err := run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	want, values := spec.EndToEnd, res.e2e
	if o.trace {
		want, values = spec.PerLayer, res.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := values[m.Name]
		switch {
		case ok:
		case o.trace:
			v = 0 // a layer the workload never calls
		default:
			return fmt.Errorf("%s: metric %s was not measured", o.workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", o.workload, m.Name, v)
		}
		metrics[m.Name] = metric{v, m.Unit}
	}
	for name := range values {
		if _, ok := metrics[name]; !ok {
			return fmt.Errorf("%s: metric %s is not in BENCHMARK.json", o.workload, name)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spec is the part of BENCHMARK.json the benchmark reads: which metrics to
// print, with their units.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the root of a checkout: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// printHost prints the host fingerprint the figures were measured on.
func printHost() {
	host, _ := json.Marshal(map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	})
	fmt.Printf("host %s\n", host)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// perStateCost is the virtual checker time a deployed controller charges
// per explored state (controller.DefaultConfig's PerStateCost). The
// offline workloads have no simulated clock, so their host CPU is reported
// per second of this modelled checker time.
const perStateCost = 300 * time.Microsecond

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 101

// timeSetup runs setup n times and returns each run's duration in seconds.
// discard, when set, releases the previous run's product before the next
// run starts, outside the timing.
func timeSetup(n int, setup func() error, discard func() error) ([]float64, error) {
	// No collection runs during the set-ups, so none of them shares its
	// time with the collector's marking.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			if err := discard(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// errStop ends the timed loop early without failing the run.
var errStop = errors.New("stop")

// loop runs op closed-loop until the run's time is spent. The first
// warmups operations are checked by op but their costs are not measured.
// After them, a traced run alternates untraced and traced operations, starting
// untraced, and runs at least one of each; op receives the tracer only on
// the traced ones. Each op returns its headline cost, and the tracing
// overhead is the traced median's excess over the untraced median, as a
// share of the untraced one. Another
// operation starts only while at least half of a typical one fits before
// the deadline.
func loop(o opts, tr *tracer, warmups int, op func(i int, tr *tracer) (float64, error)) (peakMB, overhead float64, err error) {
	var plain, traced, walls, peaks []float64
	mem := startMemSampler()
	defer mem.close()
	deadline := time.Now().Add(o.seconds)
	for i := 0; ; i++ {
		var t *tracer
		if o.trace && i >= warmups && (i-warmups)%2 == 1 {
			t = tr
		}
		// Every operation starts on a collected heap whose free memory has
		// been returned to the operating system, as in a fresh process.
		debug.FreeOSMemory()
		mem.takePeakMB()
		t0 := time.Now()
		cost, err := op(i, t)
		peak := mem.takePeakMB()
		if errors.Is(err, errStop) {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "%s op %d warm=%v traced=%v cost=%.6g peak_mb=%.1f\n", o.workload, i, i < warmups, t != nil, cost, peak)
		switch {
		case i < warmups:
		case t != nil:
			traced = append(traced, cost)
		default:
			plain = append(plain, cost)
			peaks = append(peaks, peak)
		}
		enough := len(plain) > 0 && (!o.trace || len(traced) > 0)
		half := time.Duration(median(walls) / 2 * float64(time.Second))
		if enough && time.Now().Add(half).After(deadline) {
			break
		}
	}
	peakMB = slices.Max(append(peaks, 0))
	if !o.trace {
		return peakMB, 0, nil
	}
	return peakMB, median(traced)/median(plain) - 1, nil
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tail returns the p-th percentile of xs when at least ten samples lie
// beyond it, and otherwise the highest percentile that has ten beyond it,
// but never less than the median: a run with few operations reports its
// median as its tail rather than its maximum.
func tail(xs []float64, p float64) float64 {
	q := 100 * (1 - 10/float64(len(xs)))
	return percentile(xs, max(50, min(p, q)))
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceFile is where a traced run writes its spans.
func traceFile(o opts) string {
	return fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", o.workload, o.seed)
}
