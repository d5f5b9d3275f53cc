package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// serve-daymini: the serve daemon built the way `rawrouter -serve
// -workload daymini -checkpoint F` builds it (telemetry collector armed,
// checkpoint recording on, 4096-cycle slices), driven open loop by a
// WorkloadFeeder on the daymini preset with the run's seed. The run is a
// series of episodes: build, serve one daymini day (64 slices) while one
// client goroutine scrapes /metrics every 50 ms, POST /drain to an
// SRVCKPT1 blob, then (every serveRestoreEvery-th episode, and every
// episode of a traced run) restore a second daemon from the blob and
// check it reached the drained state. A restore replays the whole day
// and costs about as much host time as serving it, so restoring after
// every episode would halve the slices a run measures.
//
// Episode k serves the day of seed episodeSeed(seed, k): one
// heavy-tailed day moves throughput by ±10% from seed to seed, so a run
// covers several days, and its simulated figures are taken over the
// first serveFixedEpisodes of them, which every run serves.
const (
	serveSliceCycles   = 4096
	serveDaySlices     = 64 // the daymini day is 2^18 cycles
	serveScrapeEvery   = 50 * time.Millisecond
	servePrefix        = 8 // slices checked against the reference engine
	serveFixedEpisodes = 8
	serveRestoreEvery  = 4
)

func dayminiSpec(seed uint64) traffic.Spec {
	s := traffic.Presets()["daymini"]
	s.Seed = seed
	return s
}

// episodeSeed is the traffic seed of episode k of a run with seed seed
// (episode 0 uses the run's seed itself).
func episodeSeed(seed uint64, k int) uint64 {
	return seed ^ uint64(k)*0x9e3779b97f4a7c15
}

// timedFeeder wraps the workload feeder. The daemon's slice loop runs
// on the benchmark's locked driving thread, so the thread CPU time
// between consecutive Slice calls is the host time of one slice. It also
// times the feeder itself, counts the arrivals, takes the calibration
// samples between slices, and calls onSlice so the benchmark can act on
// the daemon's schedule.
type timedFeeder struct {
	inner   serve.Feeder
	tr      *tracer
	cal     *calibrator // samples between slices; nil in a traced run
	onSlice func(s int64)

	last      time.Duration // thread CPU at the previous call
	sliceMS   []float64     // thread CPU between consecutive calls
	feedNS    int64         // thread CPU inside the feeder
	calls     int64
	arrivals  int64
	sliceSpan int32 // open serve.slice span
	parent    int32 // the serve.run span the slices run under
}

func (f *timedFeeder) Slice(s int64) [4][]ip.Packet {
	now := threadCPU()
	if f.calls > 0 {
		f.sliceMS = append(f.sliceMS, ms(now-f.last))
		f.tr.end(f.sliceSpan)
		f.cal.after(now - f.last)
		now = threadCPU() // the calibration is not slice time
	}
	f.last = now
	f.calls++
	f.sliceSpan = f.tr.begin("serve.slice", f.parent)
	var out [4][]ip.Packet
	f.tr.do("traffic.slice", f.sliceSpan, func(int32) { out = f.inner.Slice(s) })
	f.feedNS += (threadCPU() - now).Nanoseconds()
	n := 0
	for p := range out {
		n += len(out[p])
	}
	f.arrivals += int64(n)
	f.tr.count("traffic.slice.arrivals", int64(n))
	if f.onSlice != nil {
		f.onSlice(s)
	}
	return out
}

func (f *timedFeeder) Close() error { return f.inner.Close() }

// daemon is one daemon incarnation and the parts the benchmark reads.
type daemon struct {
	d      *serve.Daemon
	r      *router.Router
	feeder *timedFeeder
}

// buildDaemon assembles a daemon as rawrouter -serve does. restore, if
// non-nil, is an SRVCKPT1 blob serve.New replays before returning.
func buildDaemon(seed uint64, engine raw.Engine, ckptPath string, maxSlices int64, restore []byte, tr *tracer) (*daemon, error) {
	collector := telemetry.New(telemetry.Config{})
	events := &trace.EventLog{}
	rcfg := router.DefaultConfig()
	rcfg.Checkpoint = true
	rcfg.Metrics = collector
	rcfg.Events = events
	rcfg.Engine = engine
	r, err := router.New(rcfg)
	if err != nil {
		return nil, err
	}
	w, err := traffic.Build(dayminiSpec(seed))
	if err != nil {
		return nil, err
	}
	wf, err := serve.NewWorkloadFeeder(w, serveSliceCycles)
	if err != nil {
		return nil, err
	}
	feeder := &timedFeeder{inner: wf, tr: tr, parent: -1}
	d, err := serve.New(serve.Config{
		Router:            r,
		ClockHz:           rcfg.ClockHz,
		Feeder:            feeder,
		SliceCycles:       serveSliceCycles,
		Gates:             serve.Gates{WindowSlices: 8},
		CheckpointPath:    ckptPath,
		MaxSlices:         maxSlices,
		DrainBudgetSlices: 256,
		Restore:           restore,
		Collector:         collector,
		Events:            events,
	})
	if err != nil {
		return nil, err
	}
	return &daemon{d: d, r: r, feeder: feeder}, nil
}

// buildServeForSetup is the set-up the serve workload pays before its
// first slice: router construction with recording and telemetry armed,
// the daymini workload compiled to its open-loop process, serve.New.
func buildServeForSetup(seed uint64) error {
	_, err := buildDaemon(seed, raw.EngineFast, "", serveDaySlices, nil, nil)
	return err
}

// episode is what one build → serve → drain → restore round measured.
type episode struct {
	sliceMS          []float64 // driving-thread CPU per slice, scaled to the reference host
	feedNS, calls    int64
	arrivals         int64
	servingCycles    int64
	servingCPU       time.Duration // process CPU while serving, scaled to the reference host
	rawServingCPU    time.Duration // the same, unscaled
	rawSliceMS       []float64     // driving-thread CPU per slice, unscaled
	cal              *calibrator   // the episode's calibration samples
	allocBytes       uint64
	cycles           int64 // cycle at the drain checkpoint
	egressWords      int64
	scrapeMS, lateMS []float64
	badScrapes       int
	bodyBytes        int
	renderMS         []float64
	drain, restore   time.Duration
	ckptBytes        int
	stats            router.StatsSnapshot
	offered, shed    int64
	peakLive         uint64 // live heap after the drain or the restore, whichever is larger
}

// statusView is the part of a daemon Status a restore must reproduce:
// everything the checkpoint carries. Lifecycle fields (a restored
// daemon is serving, the drained one is drained) and the admission
// ledger (daemon-side, outside the simulation) are not in it.
type statusView struct {
	Cycle, Slice, Quanta    int64
	DeadPort, ProbationPort int
	Restoring, RouterFailed bool
	Violations              int64
	SoakWindows             int
}

func viewOf(st *serve.Status) statusView {
	return statusView{
		Cycle: st.Cycle, Slice: st.Slice, Quanta: st.Quanta,
		DeadPort: st.DeadPort, ProbationPort: st.ProbationPort,
		Restoring: st.Restoring, RouterFailed: st.RouterFailed,
		Violations: st.Violations, SoakWindows: st.SoakWindows,
	}
}

// engineFree strips the host-engine macro counters, which are not part
// of the cross-engine or restore equivalence surface.
func engineFree(st router.StatsSnapshot) router.StatsSnapshot {
	st.MacroWindows, st.MacroCycles = 0, 0
	st.MacroDisarms = [raw.NumMacroCauses]int64{}
	return st
}

func serveReq(h http.Handler, method, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

// runEpisode builds a daemon, serves one daymini day under the scraper,
// drains it over HTTP and checks the drained state; with restore set it
// then restores a second daemon from the checkpoint and checks it
// reached the drained state.
func runEpisode(e *env, seed uint64, restore bool, ckptPath string, tr *tracer, mem *memSampler) (*episode, error) {
	ep := &episode{}
	dm, err := buildDaemon(seed, raw.EngineFast, ckptPath, serveDaySlices, nil, tr)
	if err != nil {
		return nil, err
	}
	if !e.trace {
		dm.feeder.cal = &calibrator{}
	}
	h := dm.d.Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var drainBody []byte
	var a0 uint64
	var cpu0 time.Duration
	dm.feeder.onSlice = func(s int64) {
		switch s {
		case 0:
			a0, cpu0 = mem.allocated(), processCPU()
			wg.Add(1)
			go func() {
				defer wg.Done()
				scrape(h, tr, stop, ep)
			}()
		case serveDaySlices - 1:
			// The daemon drains itself after the day's last slice
			// (MaxSlices), so the drain starts at the same slice however
			// the request races the loop; the request joins that drain.
			ep.rawServingCPU = processCPU() - cpu0 - dm.feeder.cal.kernelTime()
			ep.allocBytes = mem.allocated() - a0
			close(stop)
			drainStart := time.Now()
			wg.Add(1)
			go func() {
				defer wg.Done()
				drainBody = serveReq(h, http.MethodPost, "/drain").Body.Bytes()
				ep.drain = time.Since(drainStart)
			}()
		}
	}
	var res serve.Result
	var runErr error
	tr.do("serve.run", -1, func(id int32) {
		dm.feeder.parent = id
		res, runErr = dm.d.Run()
	})
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	f := dm.feeder
	ep.cal = f.cal
	factor := f.cal.factor()
	ep.servingCPU = time.Duration(float64(ep.rawServingCPU) * factor)
	ep.rawSliceMS = f.sliceMS
	for _, v := range f.sliceMS {
		ep.sliceMS = append(ep.sliceMS, v*factor)
	}
	ep.feedNS, ep.calls, ep.arrivals = f.feedNS, f.calls, f.arrivals
	ep.servingCycles = (serveDaySlices - 1) * serveSliceCycles

	o := e.oracle
	var dr struct {
		Bytes  int   `json:"bytes"`
		Forced bool  `json:"forced"`
		Cycle  int64 `json:"cycle"`
	}
	o.checkErr(json.Unmarshal(drainBody, &dr), "drain response")
	o.check(dr.Bytes > 0 && !dr.Forced && res.Reason != serve.ReasonFailed && dr.Cycle == res.Cycle,
		"drain: response %s, result %+v", drainBody, res)
	st := dm.d.Status()
	ep.stats = dm.r.Stats()
	ep.cycles = st.Cycle
	checkServeLedger(o, st, ep.stats)
	var words [4]int64
	for p := range words {
		words[p] = dm.r.OutputWords(p)
		ep.egressWords += words[p]
	}
	tot := st.Ingest.Totals()
	ep.offered, ep.shed = tot.OfferedPkts, tot.ShedPkts

	// /metrics on the drained daemon renders inline: the render cost
	// alone, with no wait for the slice loop.
	for i := 0; i < 3; i++ {
		start := time.Now()
		rec := serveReq(h, http.MethodGet, "/metrics")
		ep.renderMS = append(ep.renderMS, ms(time.Since(start)))
		ep.bodyBytes = rec.Body.Len()
	}
	ep.peakLive = mem.settle()

	blob, err := os.ReadFile(ckptPath)
	if err != nil {
		return nil, err
	}
	ep.ckptBytes = len(blob)
	o.check(len(blob) == dr.Bytes, "checkpoint file has %d bytes, drain reported %d", len(blob), dr.Bytes)
	o.check(ep.badScrapes == 0, "%d /metrics scrapes failed", ep.badScrapes)
	if !restore {
		return ep, nil
	}
	drained := viewOf(st)
	drainedStats := engineFree(ep.stats)
	dm, h = nil, nil // one daemon alive at a time

	var rd *daemon
	ep.restore = tr.do("serve.restore", -1, func(int32) {
		rd, err = buildDaemon(seed, raw.EngineFast, "", 0, blob, nil)
	})
	if err != nil {
		return nil, err
	}
	ep.peakLive = max(ep.peakLive, mem.settle())
	o.check(viewOf(rd.d.Status()) == drained, "restored status %+v, drained %+v", viewOf(rd.d.Status()), drained)
	o.check(engineFree(rd.r.Stats()) == drainedStats, "restored router counters differ from the drained router's")
	for p := range words {
		o.check(rd.r.OutputWords(p) == words[p], "restored egress %d words %d, drained %d", p, rd.r.OutputWords(p), words[p])
	}
	return ep, nil
}

// scrape is the client goroutine: it GETs /metrics every
// serveScrapeEvery until stop closes, timing each scrape from when it
// was due (so a stall also delays the scrapes queued behind it) and
// recording how late the client itself started each one.
func scrape(h http.Handler, tr *tracer, stop <-chan struct{}, ep *episode) {
	start := time.Now()
	for i := 1; ; i++ {
		due := start.Add(time.Duration(i) * serveScrapeEvery)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		late := time.Since(due)
		var rec *httptest.ResponseRecorder
		tr.do("telemetry.scrape", -1, func(int32) { rec = serveReq(h, http.MethodGet, "/metrics") })
		ep.scrapeMS = append(ep.scrapeMS, ms(time.Since(due)))
		ep.lateMS = append(ep.lateMS, ms(late))
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("raw_router_serve_slice")) {
			ep.badScrapes++
		}
	}
}

// checkServeLedger checks the drained daemon's conservation: the
// admission ledger balances on every port, the router dropped nothing,
// and after a clean drain every admitted packet was delivered.
func checkServeLedger(o *oracle, st *serve.Status, rs router.StatsSnapshot) {
	o.check(st.State == serve.StateDrained, "daemon ended %s, want drained", st.StateName)
	for p, l := range st.Ingest.Ports {
		o.check(l.OfferedWords == l.AdmittedWords+l.QueuedWords+l.ShedWords+l.DrainDiscardedWords &&
			l.OfferedPkts == l.AdmittedPkts+l.QueuedPkts+l.ShedPkts+l.DrainDiscardedPkts &&
			l.QueuedPkts == 0, "port %d admission ledger does not balance: %+v", p, l)
	}
	tot := st.Ingest.Totals()
	var out, drop int64
	for p := 0; p < 4; p++ {
		out += rs.PktsOut[p]
		drop += rs.Dropped[p] + rs.AbortDropped[p]
	}
	o.check(drop == 0 && rs.FabricLost == 0, "router dropped %d packets, lost %d", drop, rs.FabricLost)
	o.check(out == tot.AdmittedPkts, "router delivered %d packets of %d admitted", out, tot.AdmittedPkts)
}

// servePrefixCheck runs the first servePrefix slices of the days of
// the first serveFixedEpisodes episodes on the fast and the reference
// engine and checks they write byte-identical SRVCKPT1 checkpoints,
// identical status and router counters, and the same per-egress
// delivered words. These are the days behind sim_gbps; the timed
// episodes themselves run on the fast engine only, because a checkpoint
// taken mid-day would change the work they time.
func servePrefixCheck(e *env) error {
	type out struct {
		blob  []byte
		view  statusView
		stats router.StatsSnapshot
		words [4]int64
	}
	runOne := func(seed uint64, engine raw.Engine) (*out, error) {
		path := filepath.Join(outDir, fmt.Sprintf("prefix-%s-seed%d.srv", engine, seed))
		dm, err := buildDaemon(seed, engine, path, servePrefix, nil, nil)
		if err != nil {
			return nil, err
		}
		if _, err := dm.d.Run(); err != nil {
			return nil, err
		}
		o := &out{view: viewOf(dm.d.Status()), stats: engineFree(dm.r.Stats())}
		for p := range o.words {
			o.words[p] = dm.r.OutputWords(p)
		}
		checkServeLedger(e.oracle, dm.d.Status(), dm.r.Stats())
		o.blob, err = os.ReadFile(path)
		return o, err
	}
	for k := 0; k < serveFixedEpisodes; k++ {
		seed := episodeSeed(e.seed, k)
		ref, err := runOne(seed, raw.EngineRef)
		if err != nil {
			return err
		}
		fast, err := runOne(seed, raw.EngineFast)
		if err != nil {
			return err
		}
		e.oracle.check(bytes.Equal(fast.blob, ref.blob), "day %d: SRVCKPT1 after %d slices differs from the reference engine (%d vs %d bytes)",
			k, servePrefix, len(fast.blob), len(ref.blob))
		e.oracle.check(fast.view == ref.view && fast.stats == ref.stats && fast.words == ref.words,
			"day %d: daemon after %d slices differs from the reference engine", k, servePrefix)
		fmt.Printf("reference prefix, day %d: %d slices, cycle %d, checkpoint %d bytes, egress words %v\n",
			k, servePrefix, fast.view.Cycle, len(fast.blob), fast.words)
	}
	return nil
}

// runServeEpisodes runs episodes first, first+1, ... for d of wall time
// and at least minEpisodes of them, restoring after every restoreEvery-th.
func runServeEpisodes(e *env, first, minEpisodes, restoreEvery int, d time.Duration, tr *tracer, mem *memSampler) ([]*episode, error) {
	ckptPath := filepath.Join(outDir, fmt.Sprintf("drain-seed%d.srv", e.seed))
	var eps []*episode
	start := time.Now()
	for len(eps) < minEpisodes || time.Since(start) < d {
		k := first + len(eps)
		ep, err := runEpisode(e, episodeSeed(e.seed, k), k%restoreEvery == 0, ckptPath, tr, mem)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}
	return eps, nil
}

// servingRate is simulated cycles per process CPU second while serving,
// over a set of episodes.
func servingRate(eps []*episode) float64 {
	var c int64
	var d time.Duration
	for _, ep := range eps {
		c += ep.servingCycles
		d += ep.servingCPU
	}
	return float64(c) / d.Seconds()
}

func runServe(e *env) error {
	setup, err := setupSamples(e.wl.name, e.seed)
	if err != nil {
		return err
	}
	e.set("setup_s", median(setup))
	if err := servePrefixCheck(e); err != nil {
		return err
	}
	mem := newMemSampler()
	if !e.trace {
		eps, err := runServeEpisodes(e, 0, serveFixedEpisodes, serveRestoreEvery, e.seconds, nil, mem)
		if err != nil {
			return err
		}
		var sliceMS, rawSliceMS []float64
		var calib calibLog
		var rawCPU time.Duration
		var alloc uint64
		var servingCycles, words, cycles int64
		var peak uint64
		for i, ep := range eps {
			sliceMS = append(sliceMS, ep.sliceMS...)
			rawSliceMS = append(rawSliceMS, ep.rawSliceMS...)
			calib.add(ep.cal)
			rawCPU += ep.rawServingCPU
			alloc += ep.allocBytes
			servingCycles += ep.servingCycles
			if i < serveFixedEpisodes {
				words += ep.egressWords
				cycles += ep.cycles
				peak = max(peak, ep.peakLive)
			}
		}
		e.set("sim_mcycles_per_s", servingRate(eps)/1e6)
		e.set("sim_gbps", float64(words*32)/(float64(cycles)/raw.DefaultClockHz)/1e9)
		e.set("slice_ms_p50", median(sliceMS))
		e.set("slice_ms_p95", quantile(sliceMS, 0.95))
		e.set("alloc_b_per_cycle", float64(alloc)/float64(servingCycles))
		e.set("peak_heap_mb", float64(peak)/(1<<20))
		fmt.Printf("timed: %d episodes of one daymini day; %s\n", len(eps), &calib)
		fmt.Printf("unscaled: sim_mcycles_per_s %.6g slice_ms_p50 %.6g slice_ms_p95 %.6g\n",
			float64(servingCycles)/rawCPU.Seconds()/1e6, median(rawSliceMS), quantile(rawSliceMS, 0.95))
		return nil
	}

	// Untraced episodes before and after the traced ones, so slow drift
	// over the run cancels out of the tracing overhead.
	plain, err := runServeEpisodes(e, 0, 1, serveRestoreEvery, e.seconds/5, nil, mem)
	if err != nil {
		return err
	}
	prof, err := startProfile(e.wl.name, e.seed)
	if err != nil {
		return err
	}
	traced, err := runServeEpisodes(e, len(plain), 1, 1, e.seconds*3/5, e.tracer, mem)
	if err != nil {
		return err
	}
	ps, err := prof.stop()
	if err != nil {
		return err
	}
	after, err := runServeEpisodes(e, len(plain)+len(traced), 1, serveRestoreEvery, e.seconds/5, nil, mem)
	if err != nil {
		return err
	}
	e.set("trace.overhead", servingRate(append(plain, after...))/servingRate(traced)-1)
	if err := setProfileShares(e, ps); err != nil {
		return err
	}

	var sliceMS, scrapes, late, drains, restores, renders []float64
	var feedNS, calls, arrivals, cycles, offered, shed, admitted, delivered int64
	var c counters
	for _, ep := range traced {
		sliceMS = append(sliceMS, ep.sliceMS...)
		scrapes = append(scrapes, ep.scrapeMS...)
		late = append(late, ep.lateMS...)
		renders = append(renders, ep.renderMS...)
		drains = append(drains, ep.drain.Seconds())
		restores = append(restores, ep.restore.Seconds())
		feedNS += ep.feedNS
		calls += ep.calls
		arrivals += ep.arrivals
		cycles += ep.cycles
		offered += ep.offered
		shed += ep.shed
		c.add(ep.stats)
		for p := 0; p < 4; p++ {
			admitted += ep.stats.PktsIn[p]
			delivered += ep.stats.PktsOut[p]
		}
	}
	last := traced[len(traced)-1]
	var sliceTotal float64
	for _, v := range sliceMS {
		sliceTotal += v
	}
	e.set("serve.slice_self_ms", ratio(sliceTotal-float64(feedNS)/1e6, float64(len(sliceMS))))
	e.set("serve.shed_ratio", ratio(float64(shed), float64(offered)))
	e.set("serve.scraper_late_ms", median(late))
	e.set("serve.scrape_ms_p50", median(scrapes))
	e.set("serve.scrape_ms_p90", quantile(scrapes, 0.9))
	e.set("serve.drain_s", median(drains))
	e.set("serve.restore_s", median(restores))
	e.set("serve.ckpt_mb", float64(last.ckptBytes)/(1<<20))
	e.set("router.ckpt_b_per_cycle", float64(last.ckptBytes)/float64(last.cycles))
	e.set("traffic.slice_ns", ratio(float64(feedNS), float64(calls)))
	e.set("traffic.arrivals_per_slice", ratio(float64(arrivals), float64(calls)))
	e.set("telemetry.render_ms", median(renders))
	e.set("telemetry.body_kb", float64(last.bodyBytes)/1024)
	e.setMacro(cycles, c.macroWindows, c.macroCycles, c.disarms)
	e.set("router.denied_ratio", ratio(float64(c.denied), float64(c.denied+c.frags)))
	// Only the serving loop: a restore replays the day through the same
	// calls, and its cycles are not in the counts.
	setEngineCosts(e, ps.bySpan["serve.run"], cycles, admitted, delivered)
	fmt.Printf("traced: %d episodes, %d slices\n", len(traced), len(sliceMS))
	return e.tracer.finish(e.wl.name, e.seed)
}
