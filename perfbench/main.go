// Command perfbench is the repository's layered performance benchmark.
// It runs one workload on the fast engine, measures the whole path and
// each layer from outside (by timing its own calls into the public API
// and reading public counters), checks every simulated output, and
// prints one JSON result as the last line of standard output.
//
// Run it from the root of the repository, through the build wrapper:
//
//	bash perfbench/run.sh --workload perm1024 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --smoke
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// traced run that reports the per-layer metrics, writes the span log and
// a CPU profile labelled per layer under .bench_build/perfbench/, and
// reports the tracing overhead. See README.md for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The workload seeds. defaultSeed is the seed the benchmark was written
// against; heldOutSeed was never run while writing it, so a later claim
// can be re-checked on inputs its author did not tune for.
const (
	defaultSeed = 1
	heldOutSeed = 20030417
)

// outDir holds everything a run writes: checkpoints, span logs,
// profiles and the per-run result records.
const outDir = ".bench_build/perfbench"

// workload is one benchmark workload: its name, the layers it never
// touches (their per-layer metrics are reported as 0, which is what
// they measure there), the run, and the set-up it pays before its first
// simulated cycle. BENCHMARK.json says why each workload exists.
type workload struct {
	name   string
	absent []string
	run    func(env *env) error
	setup  func(seed uint64) error
}

var workloads = []workload{
	{name: "perm1024", absent: []string{"cluster", "serve", "traffic", "telemetry"}, run: runPerm, setup: buildPermForSetup},
	{name: "serve-daymini", absent: []string{"cluster"}, run: runServe, setup: buildServeForSetup},
	{name: "mesh16", absent: []string{"serve", "traffic", "telemetry"}, run: runMesh, setup: buildMeshForSetup},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload run gets: its inputs, its time budget, the
// oracle that counts checks, and the metric sinks.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	wl      *workload
	oracle  *oracle
	tracer  *tracer // nil unless trace
	metrics map[string]metric
}

// set records metric name, unless this run's mode does not report it.
func (e *env) set(name string, v float64) {
	m, ok := catalogue[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the catalogue")
	}
	if m.perLayer != e.trace {
		return
	}
	e.metrics[name] = metric{Value: v, Unit: m.unit}
}

func main() {
	// The driving goroutine keeps one OS thread, so the thread CPU clock
	// measures the simulation loop alone.
	runtime.LockOSThread()
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", uint64(heldOutSeed)))
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	smoke := fs.Bool("smoke", false, "run every workload briefly in both modes and check every metric of BENCHMARK.json is emitted with its unit")
	setupChild := fs.String("setup-child", "", "internal: build one workload's system in a fresh process and print its set-up time")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *setupChild != "" {
		return setupChildMain(*setupChild, *seed)
	}
	if *smoke {
		return smokeMain()
	}
	wl := lookupWorkload(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, err := runWorkload(wl, *seed, time.Duration(*seconds*float64(time.Second)), *traceMode == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runWorkload runs one workload and assembles its result, printing the
// host record, every metric with its unit and the check summary on the
// way.
func runWorkload(wl *workload, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	host := hostRecord()
	fmt.Printf("host: %s\n", mustJSON(host))
	fmt.Printf("workload %s seed %d seconds %.1f trace %v\n", wl.name, seed, seconds.Seconds(), traced)
	e := &env{seed: seed, seconds: seconds, trace: traced, wl: wl, oracle: &oracle{}, metrics: map[string]metric{}}
	if traced {
		e.tracer = newTracer()
	}
	if err := wl.run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	absent := map[string]bool{}
	for _, l := range wl.absent {
		absent[l] = true
	}
	for n, m := range catalogue {
		if m.perLayer != traced {
			continue
		}
		if _, ok := e.metrics[n]; ok {
			continue
		}
		if !absent[m.layer()] {
			return nil, fmt.Errorf("%s: metric %s was not measured", wl.name, n)
		}
		e.metrics[n] = metric{Value: 0, Unit: m.unit}
	}
	res := &result{
		Correct:   e.oracle.failed == 0,
		Attempted: e.oracle.attempted,
		Failed:    e.oracle.failed,
		Metrics:   e.metrics,
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no output check ran", wl.name)
	}
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Printf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("checks: %d attempted, %d failed, error_rate %.6g\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, msg := range e.oracle.messages {
		fmt.Printf("  check failed: %s\n", msg)
	}
	rec := map[string]any{"workload": wl.name, "seed": seed, "trace": traced, "host": host, "result": res}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", wl.name, seed, b2i(traced)))
	if err := os.WriteFile(path, append(mustJSON(rec), '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

func lookupWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// mayReadZero reports whether a per-layer metric can legitimately read 0
// on a workload whose layer it measures: a disarm cause that never
// fires, no denials, checkpoint recording off, a tracing overhead lost
// in noise, or a figure read from the CPU samples of a layer or function
// that takes well under 1% of a workload's time (router.drain on mesh16
// draws a handful of samples in a full run and may draw none in a smoke
// run). The router functions behind the per-packet costs are named
// through method expressions, so a rename breaks the build rather than
// reading 0.
func mayReadZero(name string) bool {
	switch {
	case strings.HasPrefix(name, "raw.disarm."), strings.HasSuffix(name, ".cpu_share"):
		return true
	}
	switch name {
	case "router.denied_ratio", "router.ckpt_b_per_cycle", "trace.overhead",
		"router.offer_ns_per_pkt", "router.drain_ns_per_pkt":
		return true
	}
	return false
}

// smokeMain runs every workload briefly in both modes and checks that
// each emits every metric BENCHMARK.json names, with its unit, that
// every end-to-end metric and every per-layer metric of a layer the
// workload touches is nonzero (unless it may read 0), and that the
// workload passes its output checks.
func smokeMain() int {
	spec, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: smoke:", err)
		return 1
	}
	bad := 0
	for i := range workloads {
		wl := &workloads[i]
		for _, traced := range []bool{false, true} {
			// A traced run is long enough that every watched function
			// draws CPU samples.
			d := 2 * time.Second
			if traced {
				d = 6 * time.Second
			}
			res, err := runWorkload(wl, defaultSeed, d, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: smoke:", err)
				return 1
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				fmt.Fprintf(os.Stderr, "smoke: %s trace=%v: %d metrics emitted, BENCHMARK.json names %d\n",
					wl.name, traced, len(res.Metrics), len(want))
				bad++
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					fmt.Fprintf(os.Stderr, "smoke: %s trace=%v: metric %s missing\n", wl.name, traced, m.Name)
					bad++
				case got.Unit != m.Unit:
					fmt.Fprintf(os.Stderr, "smoke: %s trace=%v: metric %s has unit %q, want %q\n", wl.name, traced, m.Name, got.Unit, m.Unit)
					bad++
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					fmt.Fprintf(os.Stderr, "smoke: %s trace=%v: metric %s is %v\n", wl.name, traced, m.Name, got.Value)
					bad++
				case !traced && got.Value <= 0:
					fmt.Fprintf(os.Stderr, "smoke: %s: end-to-end metric %s is %v, want > 0\n", wl.name, m.Name, got.Value)
					bad++
				case traced && got.Value == 0 && !absentLayer(wl, catalogue[m.Name].layer()) && !mayReadZero(m.Name):
					fmt.Fprintf(os.Stderr, "smoke: %s: per-layer metric %s is 0\n", wl.name, m.Name)
					bad++
				}
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "smoke: %s trace=%v: %d of %d checks failed\n", wl.name, traced, res.Failed, res.Attempted)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "smoke: %d problems\n", bad)
		return 1
	}
	fmt.Println("smoke: every workload emitted every metric with its unit; all checks passed")
	return 0
}

// benchmarkSpec is the part of BENCHMARK.json the smoke mode checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s names %d workloads, the program runs %d", path, len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if lookupWorkload(w.Name) == nil {
			return nil, fmt.Errorf("%s names unknown workload %q", path, w.Name)
		}
	}
	return &s, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
