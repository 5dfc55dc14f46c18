// Command perfbench is the repository's benchmark: one binary, three
// workloads (paper-suite, scale-10k, wire-loopback), each checked for
// correct output and reported as one JSON object on the last line of
// stdout. Run it through run.py, which builds it from the checkout:
//
//	python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0
//
// With -trace 0 the run measures the end-to-end metrics with no
// instrumentation in the program's path; with -trace 1 a separate run
// installs the benchmark's pass-through timing decorators on the
// exported seams between layers and reports the per-layer metrics.
// README.md in this directory maps every metric to its layer.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are the command-line inputs every workload receives.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root: figures_1h.txt lives here, span dumps go under .bench_build
}

// outcome is what a workload hands back: the result line plus any
// failed output checks (each makes the process exit non-zero).
type outcome struct {
	rep    report
	checks []string
	// rssMB is the process's peak RSS read at the end of the measured
	// phase, before the benchmark's own post-run checks allocate.
	rssMB float64
}

func (o *outcome) set(name, unit string, v float64) {
	if o.rep.Metrics == nil {
		o.rep.Metrics = make(map[string]metric)
	}
	o.rep.Metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(opts) (*outcome, error){
	"paper-suite":   runPaperSuite,
	"scale-10k":     runScale10k,
	"wire-loopback": runWireLoopback,
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "paper-suite | scale-10k | wire-loopback")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured phase length in wall seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.Parse()
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %d)\n", o.workload, trace, o.seconds)
		os.Exit(2)
	}
	printFingerprint(o)
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !o.trace {
		out.set("peak_rss_mb", "MB", out.rssMB)
	}
	if err := checkDeclared(out, o.root, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.rep.Correct = len(out.checks) == 0
	for _, c := range out.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	line, err := json.Marshal(out.rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.rep.Correct {
		os.Exit(1)
	}
}

// declared is the metric list of BENCHMARK.json at the checkout root.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// checkDeclared holds the reported metrics to the declared set of the
// run's mode: every reported metric must be declared with the same unit,
// every end-to-end metric must be reported, and a per-layer metric the
// workload does not exercise is reported as 0.
func checkDeclared(o *outcome, root string, trace bool) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	set := d.EndToEnd
	if trace {
		set = d.PerLayer
	}
	units := make(map[string]string, len(set))
	for _, m := range set {
		units[m.Name] = m.Unit
		if _, ok := o.rep.Metrics[m.Name]; !ok {
			if !trace {
				o.fail("end-to-end metric %q not measured", m.Name)
			}
			o.set(m.Name, m.Unit, 0)
		}
	}
	for name, m := range o.rep.Metrics {
		if unit, ok := units[name]; !ok || unit != m.Unit {
			o.fail("metric %q (%s) is not declared with that unit", name, m.Unit)
		}
	}
	return nil
}

// printFingerprint records the machine and source the run measured, as
// one JSON line on stdout ahead of the result line.
func printFingerprint(o opts) {
	fp := map[string]any{
		"fingerprint": true,
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu":         cpuModel(),
		"commit":      os.Getenv("BENCH_COMMIT"),
	}
	line, _ := json.Marshal(fp)
	fmt.Println(string(line))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set size (ru_maxrss is KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// timeIt returns the wall time of fn in seconds.
func timeIt(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}
