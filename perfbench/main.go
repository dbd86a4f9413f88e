// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload of paper-task runs in a single process for a fixed time,
// checks every output, and prints the workload's metrics as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (host wall, CPU,
// allocation, simulated seconds, set-up time). With --trace 1 the run
// alternates traced and untraced iterations: traced ones time calls
// into each layer's public functions from this package's own files and
// report the per-layer metrics, untraced ones measure the tracing
// overhead. See README.md for the workloads and the metric map.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload dice-stream --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs one workload and prints its report. It
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input-generation seed")
	seconds := fs.Int("seconds", 20, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(procs)
	printEnv(stdout)

	var rep *report
	var err error
	if *trace == 1 {
		rep, err = measureTraced(wl, *seed, time.Duration(*seconds)*time.Second, stderr)
	} else {
		rep, err = measure(wl, *seed, time.Duration(*seconds)*time.Second, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode report: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// procs is the GOMAXPROCS the benchmark runs with. On a host whose
// cores are shared with other tenants, a second core is there for some
// iterations and not for others, and the wall time follows it: over
// ten seeds, ml-mix run medians spread 21-35% on two procs and 4-13% on
// one. One proc makes wall time the program's own CPU time plus what
// the host takes, so a parallel speed-up does not show in it, but a
// saving of work does.
const procs = 1

// printEnv prints the environment fingerprint before any workload runs,
// so a report is never compared with one taken on another machine
// shape unnoticed.
func printEnv(w io.Writer) {
	env := map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"gogc":       os.Getenv("GOGC"),
	}
	b, _ := json.Marshal(env) // a map of strings and ints always encodes
	fmt.Fprintf(w, "env %s\n", b)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the metrics of an untraced run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"wall_ms_p50", "ms"},
	{"cpu_ms_p50", "ms"},
	{"alloc_mb_per_run", "MB"},
	{"allocs_per_run", "count"},
	{"sim_s", "s"},
	{"setup_s", "s"},
}

// setupMinReps and setupMinTime bound how often set-up is repeated:
// generating the DICE inputs takes only tens of milliseconds, and a
// median over many repeats is what makes the figure repeat from one
// process to the next.
const (
	setupMinReps = 5
	setupMinTime = 2 * time.Second
)

// setUp builds the workload's inputs repeatedly and returns the last
// instance with the median build time in seconds.
func setUp(wl workload, seed uint64) (instance, float64, error) {
	var inst instance
	var times []float64
	began := telemetry.WallClock()
	for len(times) < setupMinReps || telemetry.WallSince(began) < setupMinTime {
		inst = nil // let the previous build go before timing the next
		runtime.GC()
		t0 := telemetry.WallClock()
		var err error
		inst, err = wl.setup(seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, telemetry.WallSince(t0).Seconds())
	}
	return inst, median(times), nil
}

// sample is the host cost of one iteration.
type sample struct {
	wall, cpu      time.Duration
	bytes, mallocs uint64
	gcs            uint32
}

// timeIteration runs f after a full collection, so every iteration
// starts from the same heap, and returns what it cost the process.
func timeIteration(f func()) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := telemetry.WallClock()
	f()
	wall := telemetry.WallSince(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return sample{
		wall:    wall,
		cpu:     c1 - c0,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		mallocs: m1.Mallocs - m0.Mallocs,
		gcs:     m1.NumGC - m0.NumGC,
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tally counts task runs and records whether every check held.
type tally struct {
	attempted, failed int
	wrong             error
}

// iteration runs one untraced iteration and checks it. A run that
// returns an error counts as failed; a check that fails marks the
// report incorrect.
func (t *tally) iteration(inst instance, runs int) (simSeconds float64, s sample) {
	var outs []outcome
	var err error
	s = timeIteration(func() { outs, err = inst.iterate() })
	t.attempted += runs
	if err != nil {
		t.failed += runs - len(outs)
		return 0, s
	}
	for _, o := range outs {
		simSeconds += o.res.SimSeconds
	}
	t.fail(inst.check(outs))
	return simSeconds, s
}

// fail records the first failed check.
func (t *tally) fail(err error) {
	if err != nil && t.wrong == nil {
		t.wrong = err
	}
}

func (t *tally) report(metrics map[string]metric, stderr io.Writer) *report {
	if t.wrong != nil {
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", t.wrong)
	}
	return &report{Correct: t.wrong == nil, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// start sets the workload up, prepares its checks and runs one checked
// warm-up iteration, which fills caches and pools.
func start(wl workload, seed uint64) (instance, float64, *tally, error) {
	inst, setupS, err := setUp(wl, seed)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("set-up: %w", err)
	}
	if err := inst.prepare(); err != nil {
		return nil, 0, nil, fmt.Errorf("prepare checks: %w", err)
	}
	t := &tally{}
	t.iteration(inst, wl.runs)
	return inst, setupS, t, nil
}

// measure is the untraced run: set-up, one checked warm-up iteration,
// then checked iterations until d has passed.
func measure(wl workload, seed uint64, d time.Duration, stderr io.Writer) (*report, error) {
	inst, setupS, t, err := start(wl, seed)
	if err != nil {
		return nil, err
	}
	var walls, cpus, bytes, mallocs, sims []float64
	for began := telemetry.WallClock(); telemetry.WallSince(began) < d; {
		sim, s := t.iteration(inst, wl.runs)
		walls = append(walls, ms(s.wall))
		cpus = append(cpus, ms(s.cpu))
		bytes = append(bytes, float64(s.bytes)/1e6)
		mallocs = append(mallocs, float64(s.mallocs))
		sims = append(sims, sim)
	}
	fmt.Fprintf(stderr, "perfbench: %s: %d iterations, wall ms %v\n", wl.name, len(walls), walls)
	vals := map[string]float64{
		"wall_ms_p50":      median(walls),
		"cpu_ms_p50":       median(cpus),
		"alloc_mb_per_run": median(bytes),
		"allocs_per_run":   median(mallocs),
		"sim_s":            median(sims),
		"setup_s":          setupS,
	}
	metrics := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return t.report(metrics, stderr), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
