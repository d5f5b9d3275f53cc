package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/raw"
)

// metricDef is one catalogue entry: its unit and whether it is a
// per-layer metric (reported by the traced run) or an end-to-end one.
type metricDef struct {
	name     string
	unit     string
	perLayer bool
}

// layer is the metric's layer: the name up to the first dot.
func (m metricDef) layer() string {
	if i := strings.IndexByte(m.name, '.'); i >= 0 {
		return m.name[:i]
	}
	return ""
}

// catalogue lists every metric the benchmark reports, keyed by name.
// BENCHMARK.json names the same set; the smoke mode checks they agree.
var catalogue = func() map[string]metricDef {
	defs := []metricDef{
		// End to end, with tracing off.
		{name: "setup_s", unit: "s"},
		{name: "sim_mcycles_per_s", unit: "Mcycle/s"},
		{name: "sim_gbps", unit: "Gbps"},
		{name: "alloc_b_per_cycle", unit: "B/cycle"},
		{name: "peak_heap_mb", unit: "MB"},
		{name: "slice_ms_p50", unit: "ms"},
		{name: "slice_ms_p95", unit: "ms"},

		// Per layer, from the traced run.
		{name: "raw.run_ns_per_cycle", unit: "ns/cycle", perLayer: true},
		{name: "raw.macro_coverage", unit: "ratio", perLayer: true},
		{name: "raw.window_cycles", unit: "cycles", perLayer: true},
		{name: "raw.step_share", unit: "ratio", perLayer: true},
		{name: "raw.macro_share", unit: "ratio", perLayer: true},
		{name: "raw.commit_share", unit: "ratio", perLayer: true},
		{name: "raw.cpu_share", unit: "ratio", perLayer: true},
		{name: "router.offer_ns_per_pkt", unit: "ns/pkt", perLayer: true},
		{name: "router.drain_ns_per_pkt", unit: "ns/pkt", perLayer: true},
		{name: "router.denied_ratio", unit: "ratio", perLayer: true},
		{name: "router.ckpt_b_per_cycle", unit: "B/cycle", perLayer: true},
		{name: "router.cpu_share", unit: "ratio", perLayer: true},
		{name: "cluster.run_ns_per_chip_cycle", unit: "ns/cycle", perLayer: true},
		{name: "cluster.trunk_frames_per_kcycle", unit: "1/kcycle", perLayer: true},
		{name: "cluster.bisection_util", unit: "ratio", perLayer: true},
		{name: "cluster.cpu_share", unit: "ratio", perLayer: true},
		{name: "serve.slice_self_ms", unit: "ms", perLayer: true},
		{name: "serve.shed_ratio", unit: "ratio", perLayer: true},
		{name: "serve.scraper_late_ms", unit: "ms", perLayer: true},
		{name: "serve.scrape_ms_p50", unit: "ms", perLayer: true},
		{name: "serve.scrape_ms_p90", unit: "ms", perLayer: true},
		{name: "serve.drain_s", unit: "s", perLayer: true},
		{name: "serve.ckpt_mb", unit: "MB", perLayer: true},
		{name: "serve.restore_s", unit: "s", perLayer: true},
		{name: "serve.cpu_share", unit: "ratio", perLayer: true},
		{name: "traffic.slice_ns", unit: "ns", perLayer: true},
		{name: "traffic.arrivals_per_slice", unit: "count", perLayer: true},
		{name: "traffic.cpu_share", unit: "ratio", perLayer: true},
		{name: "telemetry.render_ms", unit: "ms", perLayer: true},
		{name: "telemetry.body_kb", unit: "KB", perLayer: true},
		{name: "telemetry.cpu_share", unit: "ratio", perLayer: true},
		{name: "runtime.cpu_share", unit: "ratio", perLayer: true},
		{name: "trace.overhead", unit: "ratio", perLayer: true},
	}
	for _, c := range raw.MacroCauses() {
		defs = append(defs, metricDef{name: disarmMetric(c), unit: "1/kcycle", perLayer: true})
	}
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.name] = d
	}
	return m
}()

func disarmMetric(c raw.MacroCause) string { return "raw.disarm." + c.String() + "_per_kcycle" }

// setMacro reports the fast engine's macro-window counters over an
// interval: coverage, mean window length, and the declined windows per
// thousand cycles by cause.
func (e *env) setMacro(cycles, windows, macroCycles int64, disarms [raw.NumMacroCauses]int64) {
	e.set("raw.macro_coverage", ratio(float64(macroCycles), float64(cycles)))
	e.set("raw.window_cycles", ratio(float64(macroCycles), float64(windows)))
	for _, c := range raw.MacroCauses() {
		e.set(disarmMetric(c), ratio(float64(disarms[c]), float64(cycles)/1000))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memSampler reads the cumulative allocated bytes through
// runtime/metrics, which does not stop the world, and keeps the peak of
// the live heap measured after forced collections at the points where
// a workload's system is at its largest (the end of an episode).
type memSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newMemSampler() *memSampler {
	return &memSampler{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}}
}

// allocated returns the cumulative bytes allocated so far.
func (m *memSampler) allocated() uint64 {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64()
}

// settle collects garbage, folds the live heap into the peak and
// returns it. Call it outside timed stretches.
func (m *memSampler) settle() uint64 {
	runtime.GC()
	metrics.Read(m.s)
	live := m.s[1].Value.Uint64()
	m.peak = max(m.peak, live)
	return live
}

func (m *memSampler) peakMB() float64 { return float64(m.peak) / (1 << 20) }

// host is the machine record every result carries.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	LoadAvg    string  `json:"loadavg"`
	Seeds      [2]uint `json:"default_and_held_out_seed"`
}

func hostRecord() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
		Seeds:      [2]uint{defaultSeed, heldOutSeed},
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(b))
	}
	return h
}
