// Command rawrouter runs the cycle-level 4-port Raw router on a synthetic
// workload and prints throughput, packet rate, and per-port statistics.
//
// Usage:
//
//	rawrouter [-size 1024] [-pattern perm|uniform|hotspot] [-cycles 200000]
//	          [-warmup 80000] [-quantum 256] [-crypto] [-layout] [-seed 1]
//	          [-workload SPEC] [-recordtrace FILE] [-recordslices N]
//	          [-engine fast|ref] [-faults SCHEDULE] [-faultseed N] [-watchdog]
//	          [-autorestore] [-reprobe N] [-checkpoint FILE] [-restore FILE]
//	          [-metrics FORMAT[:FILE]]
//
// -workload drives the router from a declarative workload spec
// (`NAME[:key=val,...]`, `json:FILE`, `trace:FILE`, or a preset — see
// internal/traffic) instead of the legacy -pattern/-size/-seed/-rate
// flags; mixing the two is rejected. -recordtrace freezes the
// workload's open-loop arrival stream as a replayable TRAF1 trace
// (-recordslices slices long). With -serve, -workload selects the
// synthetic feeder's workload.
//
// With -layout it prints the Figure 7-2 tile mapping and exits. -faults
// takes the internal/fault text encoding (e.g. "crash@5000:t6"); with
// -faultseed a seeded schedule of recoverable faults is added. -watchdog
// arms the quantum-progress watchdog so a crashed crossbar tile degrades
// the fabric to three ports instead of halting it; -autorestore lets the
// watchdog re-admit the port when the tile thaws. -reprobe N arms
// line-flap retry with an N-quanta backoff base (0 = LineDown latches).
// -checkpoint FILE writes a deterministic checkpoint blob after the run;
// -restore FILE replays one before running — the restored chip state is
// bit-for-bit the checkpointed one, and the run then continues with a
// freshly seeded workload stream (the generator itself is not part of
// the simulation). A -restore run must pass the same -faults/-faultseed
// as the run that wrote the blob, or the replay is rejected.
// -metrics arms the telemetry plane and exports a snapshot after the
// run in jsonl, csv, or prom (Prometheus text) format; exports are
// bit-for-bit identical under either -engine.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// main delegates to run so deferred cleanups (profile flush) execute
// before the process exits — os.Exit in main would skip them.
func main() {
	os.Exit(run())
}

func run() int {
	size := flag.Int("size", 1024, "packet size in bytes (header included)")
	pattern := flag.String("pattern", "perm", "traffic pattern: perm, uniform, hotspot")
	cycles := flag.Int64("cycles", 200_000, "measured cycles")
	warmup := flag.Int64("warmup", 80_000, "warmup cycles before measuring")
	quantum := flag.Int("quantum", 256, "crossbar quantum in words")
	crypto := flag.Bool("crypto", false, "enable §8.3 computation-in-fabric payload cipher")
	layout := flag.Bool("layout", false, "print the Figure 7-2 tile mapping and exit")
	seed := flag.Uint64("seed", 1, "workload seed")
	watchdog := flag.Bool("watchdog", false, "arm the quantum-progress watchdog (degrade on a wedged crossbar tile)")
	autoRestore := flag.Bool("autorestore", false, "let the watchdog re-admit a degraded port when its tile thaws (requires -watchdog)")
	reprobe := flag.Int("reprobe", 0, "line-flap retry backoff base in quanta (0 = LineDown latches permanently)")
	var common cli.Common
	var sflags cli.ServeFlags
	var wflags cli.WorkloadFlags
	wflags.RegisterWorkload(flag.CommandLine)
	common.RegisterSim(flag.CommandLine)
	common.RegisterFaults(flag.CommandLine)
	common.RegisterTrace(flag.CommandLine)
	common.RegisterCheckpoint(flag.CommandLine)
	common.RegisterMetrics(flag.CommandLine)
	common.RegisterProfile(flag.CommandLine)
	sflags.RegisterServe(flag.CommandLine)
	flag.Parse()
	if err := common.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "rawrouter:", err)
		return 2
	}
	if err := sflags.ValidateServe(&common); err != nil {
		fmt.Fprintln(os.Stderr, "rawrouter:", err)
		return 2
	}
	if err := wflags.CheckConflicts(flag.CommandLine, "size", "pattern", "seed", "rate"); err != nil {
		fmt.Fprintln(os.Stderr, "rawrouter:", err)
		return 2
	}
	workload, workloadGiven, err := wflags.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rawrouter:", err)
		return 2
	}
	if workloadGiven {
		if kind, _, _ := sflags.FeedSpec(); sflags.Serve && kind == "udp" {
			fmt.Fprintln(os.Stderr, "rawrouter: -workload describes synthetic traffic; it cannot run with -feed udp")
			return 2
		}
		recCycles := int64(4096)
		if sflags.Serve {
			recCycles = sflags.SliceCycles
		}
		if n, wrote, err := wflags.MaybeRecord(workload, recCycles); err != nil {
			fmt.Fprintln(os.Stderr, "rawrouter:", err)
			return 1
		} else if wrote {
			fmt.Printf("workload: recorded %d arrivals -> %s\n", n, wflags.RecordTrace)
		}
	}

	if *layout {
		printLayout()
		return 0
	}
	stopProf, err := common.StartProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rawrouter:", err)
		return 2
	}
	defer stopProf()
	engine, _ := common.EngineChoice() // validated above

	if sflags.Serve {
		if kind, _, _ := sflags.FeedSpec(); kind == "synthetic" && !workloadGiven {
			workload, err = traffic.Build(syntheticSpec(*pattern, *size, *seed, sflags.Rate))
			if err != nil {
				fmt.Fprintln(os.Stderr, "rawrouter:", err)
				return 2
			}
		}
		return runServe(&common, &sflags, serveParams{
			quantum: *quantum, crypto: *crypto, watchdog: *watchdog,
			autoRestore: *autoRestore, reprobe: *reprobe, workload: workload,
		})
	}

	var rec *trace.Recorder
	rcfg := router.DefaultConfig()
	rcfg.QuantumWords = *quantum
	rcfg.Crypto = *crypto
	rcfg.Watchdog = *watchdog
	rcfg.AutoRestore = *autoRestore
	rcfg.ReprobeQuanta = *reprobe
	rcfg.Checkpoint = common.Checkpoint != "" || common.Restore != ""
	if common.Trace {
		rec = trace.NewRecorder(16, *warmup+*cycles-800, *warmup+*cycles)
		rcfg.Tracer = rec
	}
	sink, _ := common.MetricsSink()
	if sink != nil {
		rcfg.Metrics = telemetry.New(telemetry.Config{})
	}
	r, err := core.New(core.Options{QuantumWords: *quantum, Crypto: *crypto,
		ChipEngine: engine, RouterConfig: &rcfg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rawrouter:", err)
		return 1
	}

	sched, err := common.Schedule(fault.RandomOptions{
		Horizon: *warmup + *cycles, MaxStalls: 8, MaxFlaps: 4,
		MaxFreezes: 2, MaxDRAM: 3, MaxStallCycles: 1500,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rawrouter:", err)
		return 2
	}
	injecting := len(sched.Events) > 0
	if injecting {
		fmt.Printf("fault schedule: %s\n", sched)
		r.Cycle().Chip.InstallFaults(fault.NewInjector(sched, 16))
		cli.ApplyControls(sched, r.Cycle())
	}

	if ok, err := common.LoadCheckpoint(r.Cycle().RestoreSnapshot); err != nil {
		fmt.Fprintln(os.Stderr, "rawrouter:", err)
		return 1
	} else if ok {
		fmt.Printf("restored checkpoint %s at cycle %d\n", common.Restore, r.Cycle().Cycle())
	}

	var gen core.TrafficGen
	described := fmt.Sprintf("pattern=%s size=%dB", *pattern, *size)
	if workloadGiven {
		gen, err = core.WorkloadTraffic(workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rawrouter:", err)
			return 2
		}
		described = "workload=" + workload.Spec.String()
	} else {
		switch *pattern {
		case "perm":
			gen = core.PermutationTraffic(*size, 2)
		case "uniform":
			gen = core.UniformTraffic(*size, *seed)
		case "hotspot":
			gen = core.HotspotTraffic(*size, *seed)
		default:
			fmt.Fprintf(os.Stderr, "rawrouter: unknown pattern %q\n", *pattern)
			return 2
		}
	}

	res := r.RunMeasured(*warmup, *cycles, gen)
	fmt.Printf("%s quantum=%dw crypto=%v\n", described, *quantum, *crypto)
	fmt.Printf("measured %d cycles at %.0f MHz\n", res.Cycles, res.ClockHz/1e6)
	fmt.Printf("throughput: %.2f Gbps   rate: %.2f Mpps   packets: %d\n",
		res.Gbps, res.Mpps, res.Packets)
	fmt.Printf("per-egress packets: %v   denied quanta: %d   reassembled: %d\n",
		res.PerPort, res.Denied, res.Reassembled)

	st := r.Cycle().Stats()
	fmt.Printf("ingress accepted %v dropped %v\n", st.Accepted, st.Dropped)
	fmt.Printf("lookups served %v\n", st.Lookups)
	if injecting {
		fmt.Printf("aborted %v underrun quanta %v fabric-lost %d\n",
			st.AbortDropped, st.Underruns, st.FabricLost)
		rt := r.Cycle()
		if rt.Failed() {
			fmt.Println("router FAIL-STOPPED (unattributable or repeated wedge)")
		} else if d := rt.DeadPort(); d >= 0 {
			fmt.Printf("degraded: port %d masked out, 3 live ports\n", d)
		} else if rt.Restoring() {
			fmt.Println("restore in progress (draining for re-admission)")
		} else if p := rt.ProbationPort(); p >= 0 {
			fmt.Printf("port %d re-admitted, probation in progress\n", p)
		}
		if st.Reprobes != [4]int64{} || st.Recovered != [4]int64{} {
			fmt.Printf("line reprobes %v recovered %v flap-drop words %v\n",
				st.Reprobes, st.Recovered, st.FlapDrops)
		}
	}

	if n, err := common.WriteCheckpoint(r.Cycle().Snapshot); err != nil {
		fmt.Fprintln(os.Stderr, "rawrouter:", err)
		return 1
	} else if n > 0 {
		fmt.Printf("checkpoint: %d bytes -> %s (cycle %d)\n", n, common.Checkpoint, r.Cycle().Cycle())
	}

	if sink != nil {
		if err := sink.Export(r.Cycle().TelemetrySnapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "rawrouter:", err)
			return 1
		}
		if sink.Path != "" {
			fmt.Printf("telemetry: %s snapshot -> %s (quanta %d)\n",
				sink.Format, sink.Path, rcfg.Metrics.Quanta())
		}
	}

	if rec != nil {
		fmt.Println()
		fmt.Print(rec.Summary(router.TileOrder(), func(tile int) string {
			role, p := router.RoleOf(tile)
			return fmt.Sprintf("%s/%d", role, p)
		}))
	}
	return 0
}

func printLayout() {
	fmt.Println("Figure 7-2 tile mapping (4x4 Raw chip):")
	for tile := 0; tile < 16; tile++ {
		role, p := router.RoleOf(tile)
		if tile%4 == 0 {
			fmt.Println()
		}
		fmt.Printf("  %2d:%-10s", tile, fmt.Sprintf("%s/%d", role, p))
	}
	fmt.Println()
	fmt.Println("\ncrossbar ring (clockwise / token order): 5 -> 6 -> 10 -> 9 -> 5")
	for p, pt := range router.Layout {
		fmt.Printf("port %d: in edge of tile %d (%s side), out edge of tile %d (%s side)\n",
			p, pt.Ingress, pt.InSide, pt.Egress, pt.OutSide)
	}
}
