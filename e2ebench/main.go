// Command e2ebench is the repository's reads→contigs benchmark. It drives
// the assembler only through public functions — the focus facade, the
// dist pool and servers, jobs.Server.Handler over loopback HTTP, and the
// stage entry points under internal/ — and prints every end-to-end metric
// (--trace 0) or every per-layer metric (--trace 1) as one JSON object on
// the last line of standard output. See README.md for the workloads and
// the metric-to-layer map.
//
//	bash e2ebench/run.sh --workload assemble-d2 --seed 1 --seconds 40 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"focus"
)

// workload is one set of inputs the benchmark runs. Every workload runs
// benchConfig(); knobs_test.go checks that no workload changes a knob.
type workload struct {
	name   string
	config focus.Config
	run    func(r *runner, cfg focus.Config) error
	// byHand marks a diagnostic workload that BENCHMARK.json does not
	// list: it runs when named (or with all), not in the benchmark's runs.
	byHand bool
}

var workloads = []workload{
	{"assemble-d2", benchConfig(), func(r *runner, cfg focus.Config) error { return runBatch(r, cfg, assembleD2) }, false},
	{"records-d2-tcp", benchConfig(), func(r *runner, cfg focus.Config) error { return runBatch(r, cfg, recordsD2TCP) }, true},
	{"serve-small-jobs", benchConfig(), runServeSmallJobs, false},
}

// runner carries one invocation's settings and collects its result.
type runner struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for traces and scratch files

	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	prov      map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"` // sample count, printed in the human-readable table
}

// set records a metric with its unit and sample count.
func (r *runner) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// fail records a failed operation or a failed correctness check.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed (replaces the read sampler's seed; the community keeps its PaperDataSet seed)")
	seconds := flag.Float64("seconds", 40, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for traces and scratch files")
	flag.Parse()
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload {%s|all}, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	r := &runner{
		workload: w.name, seed: *seed, trace: *trace == 1, out: *out,
		seconds: time.Duration(*seconds * float64(time.Second)),
		metrics: map[string]metric{},
	}
	r.prov = provenance(r)
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := w.run(r, w.config); err != nil {
		// A workload that cannot run to the end has no result to print.
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	os.Exit(r.report())
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// benchmarkWorkloads are the workloads BENCHMARK.json lists.
func benchmarkWorkloads() []string {
	var names []string
	for _, w := range workloads {
		if !w.byHand {
			names = append(names, w.name)
		}
	}
	return names
}

// provenance identifies what was measured and where.
func provenance(r *runner) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpus": runtime.NumCPU(), "seed": r.seed, "workload": r.workload,
		"seconds": r.seconds.Seconds(), "trace": r.trace,
	}
}

// report prints the human-readable table, the provenance line and, last,
// the JSON result line. It returns the exit code: 1 when any operation or
// correctness check failed.
func (r *runner) report() int {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%v\n", r.workload, r.seed, r.trace)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-28s %14.6g %-8s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-28s %14.6g %-8s n=%d\n", "ops_failed_ratio", ratio, "ratio", r.attempted)
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
	prov, _ := json.Marshal(r.prov)
	fmt.Printf("provenance %s\n", prov)
	correct := r.failed == 0 && r.attempted > 0
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(r.attempted, 1), "failed": r.failed, "metrics": r.metrics,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process (so peak RSS stays per
// workload), echoes each one's output, and prints one combined result line
// with metrics prefixed by workload name.
func runAll(seed int64, seconds float64, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	type result struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace), "--out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: no result (%v)\n", w.name, err)
			return 1
		}
		if err != nil {
			code = 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for n, m := range res.Metrics {
			all.Metrics[w.name+"/"+n] = m
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	return code
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupTimes is the median set-up time over n repetitions.
type setupTimes struct {
	median float64
	n      int
}

// repeatSetup runs set-up at least three times and until it has taken
// two seconds in total, so cheap set-ups get enough repetitions for a
// steady median. The last repetition's products are the ones used.
func repeatSetup(f func() error) (setupTimes, error) {
	var ts []float64
	var total float64
	for len(ts) < 3 || total < 2 {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return setupTimes{}, err
		}
		d := time.Since(t0).Seconds()
		ts = append(ts, d)
		total += d
	}
	return setupTimes{median: median(ts), n: len(ts)}, nil
}

// resetPeakRSS lowers the kernel's resident-set high-water mark (VmHWM)
// to the current RSS, so peakRSSMB covers the measured region only and not
// set-up's transient peaks. Where the reset is unavailable the mark covers
// the whole process, and a note says so.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Printf("# peak_rss_mb includes set-up: %v\n", err)
	}
}

// peakRSSMB returns VmHWM in MB (0 when /proc is unavailable).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
