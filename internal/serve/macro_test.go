package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// sloArc runs the overload scenario — 4x offered load against a tiny
// admission queue with the drop-rate gate armed — under one chip engine
// and returns everything the SLO plane accounted: the result, the final
// status (violations, window throughput, ledger), and the typed event
// log. The daemon samples the telemetry plane at every slice boundary;
// under the fast engine those boundaries land between macro windows, so
// every sample the rolling window folds in must match the reference
// interpreter's cycle-by-cycle accounting exactly.
func sloArc(t *testing.T, eng raw.Engine) (Result, *Status, string, int64) {
	t.Helper()
	f := testFeeder(t, 4000)
	rcfg := router.DefaultConfig()
	rcfg.Engine = eng
	r, rerr := router.New(rcfg)
	if rerr != nil {
		t.Fatal(rerr)
	}
	ev := &trace.EventLog{}
	d, err := New(Config{
		Router:      r,
		Feeder:      f,
		SliceCycles: 1024,
		QueuePkts:   4,
		MaxSlices:   32,
		Gates:       Gates{MaxDropRate: 0.5, WindowSlices: 4},
		Events:      ev,
		Collector:   telemetry.New(telemetry.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	windows, _ := r.Chip.MacroStats()
	return res, d.Status(), ev.String(), windows
}

// TestSLOAccountingUnderMacro: the SLO rolling window judges the same
// slices to the same verdicts under the fast engine with macro windows
// engaged — identical violation counts, identical window throughput,
// identical shed/admitted ledger, identical typed event stream. This is
// the daemon-facing face of quantum-granular observation: macro windows
// cover cycles between slice boundaries but never move or blur what a
// boundary sample sees.
func TestSLOAccountingUnderMacro(t *testing.T) {
	refRes, refSt, refEvents, refWindows := sloArc(t, raw.EngineRef)
	if refWindows != 0 {
		t.Fatalf("reference engine reported %d macro windows", refWindows)
	}
	if refSt.Violations == 0 {
		t.Fatal("overload scenario never tripped the drop-rate gate")
	}
	fastRes, fastSt, fastEvents, fastWindows := sloArc(t, raw.EngineFast)
	if fastWindows == 0 {
		t.Fatal("macro never engaged under the serving daemon")
	}
	if fastRes != refRes {
		t.Fatalf("results diverged:\nfast %+v\nref  %+v", fastRes, refRes)
	}
	if fastSt.Violations != refSt.Violations || fastSt.WindowGbps != refSt.WindowGbps {
		t.Fatalf("SLO accounting diverged: fast violations=%d gbps=%g, ref violations=%d gbps=%g",
			fastSt.Violations, fastSt.WindowGbps, refSt.Violations, refSt.WindowGbps)
	}
	if ra, fa := mustJSON(t, refSt.Active), mustJSON(t, fastSt.Active); ra != fa {
		t.Fatalf("active violations diverged:\nfast %s\nref  %s", fa, ra)
	}
	if ft, rt := fastSt.Ingest.Totals(), refSt.Ingest.Totals(); ft != rt {
		t.Fatalf("ingest ledgers diverged:\nfast %+v\nref  %+v", ft, rt)
	}
	if fastEvents != refEvents {
		t.Fatalf("event logs diverged:\nfast:\n%s\nref:\n%s", fastEvents, refEvents)
	}
	t.Logf("macro windows=%d with %d violations accounted identically", fastWindows, fastSt.Violations)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
