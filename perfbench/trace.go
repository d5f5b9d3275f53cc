package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the enclosing span, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	// ctx carries the span's pprof labels, for spans opened by do.
	ctx context.Context
}

// tracer keeps spans and counts in memory and writes them out when the
// run ends. Spans are recorded around the benchmark's own calls into
// each layer; their names are "<layer>.<call>". A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
//
// The serve workload records from several goroutines (the daemon loop
// through the feeder, the scraper, the main goroutine), so appends are
// locked.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]int64
	ctx    context.Context
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}, ctx: context.Background()}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count adds n to a named counter recorded at a span boundary.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// do runs f under a span named name, passing f the span's id, and
// returns the span's duration. CPU samples taken while f runs carry the
// pprof labels layer=<layer of name> and span=<name>; when f returns,
// the goroutine's labels are those of the nearest enclosing do span.
func (t *tracer) do(name string, parent int32, f func(id int32)) time.Duration {
	if t == nil {
		start := time.Now()
		f(-1)
		return time.Since(start)
	}
	layer, _, _ := strings.Cut(name, ".")
	id := t.begin(name, parent)
	pprof.Do(t.ctxOf(parent), pprof.Labels("layer", layer, "span", name), func(ctx context.Context) {
		t.mu.Lock()
		t.spans[id].ctx = ctx
		t.mu.Unlock()
		f(id)
	})
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id]
	return time.Duration(s.End - s.Start)
}

// ctxOf returns the label context of span id's nearest ancestor opened
// by do (the tracer's base context if none).
func (t *tracer) ctxOf(id int32) context.Context {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id >= 0 {
		if c := t.spans[id].ctx; c != nil {
			return c
		}
		id = t.spans[id].Parent
	}
	return t.ctx
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes returns, per span name, the count, the total time and the
// self time (duration minus the time its child spans cover).
func (t *tracer) selfTimes() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	agg := map[string]*spanStat{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		a := agg[s.Name]
		if a == nil {
			a = &spanStat{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.TotalMS += float64(s.End-s.Start) / 1e6
		a.SelfMS += float64(s.End-s.Start-child[i]) / 1e6
	}
	out := make([]spanStat, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// total returns the summed duration of every span named name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// finish prints the per-span self times and writes the span log.
func (t *tracer) finish(wl string, seed uint64) error {
	stats := t.selfTimes()
	fmt.Printf("spans (self time per layer call):\n")
	for _, s := range stats {
		fmt.Printf("  %-22s %8d calls %12.1f ms total %12.1f ms self\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	t.mu.Lock()
	rec := map[string]any{"spans": t.spans, "counts": t.counts, "self": stats}
	t.mu.Unlock()
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", wl, seed))
	return os.WriteFile(path, mustJSON(rec), 0o644)
}

// profiler wraps the CPU profile of a traced phase.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(wl string, seed uint64) (*profiler, error) {
	path := filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", wl, seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

// stop ends the profile and returns its summary.
func (p *profiler) stop() (*profileSummary, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	return summarizeProfile(p.path)
}
