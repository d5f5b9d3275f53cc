package exp

import (
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/switchfab"
	"repro/internal/traffic"
)

// HeavyTailPoint is one workload row of the heavy-tail comparison.
type HeavyTailPoint struct {
	Workload string
	Gbps     float64
	Mpps     float64
	// DeliveredFrac is delivered/offered words for the open-loop run at
	// the spec's configured rate (1.0 = the router kept up and drained).
	DeliveredFrac float64
}

// HeavyTail contrasts the classic synthetic workloads the paper
// measures (permutation, uniform) against production-shaped traffic —
// IMIX packet sizes and heavy-tailed flows with Zipf destinations —
// on the same 4-port router. Saturated closed-loop throughput comes
// from RunMeasured over the workload's Source streams; the open-loop
// column replays the workload's timestamped arrival process at its
// configured rate via RunArrivals and reports the delivered fraction.
func HeavyTail(q Quality) ([]HeavyTailPoint, *stats.Table) {
	cycles := cyclesFor(q, 30_000, 120_000)
	warm := cyclesFor(q, 30_000, 80_000)
	slices := cyclesFor(q, 8, 48)
	specs := []string{
		"permutation:offset=1",
		"uniform",
		"imix",
		"flows:alpha=1.3,zipf=1.1",
	}
	var pts []HeavyTailPoint
	for _, text := range specs {
		s, err := traffic.ParseSpec(text)
		if err != nil {
			panic(err)
		}
		w, err := traffic.Build(s)
		if err != nil {
			panic(err)
		}

		// Saturated closed-loop throughput.
		r, err := core.New(core.Options{ChipEngine: chipEngine})
		if err != nil {
			panic(err)
		}
		gen, err := core.WorkloadTraffic(w)
		if err != nil {
			panic(err)
		}
		res := r.RunMeasured(warm, cycles, gen)

		// Open-loop replay at the spec rate.
		proc, err := w.OpenLoop(1024)
		if err != nil {
			panic(err)
		}
		r2, err := core.New(core.Options{ChipEngine: chipEngine})
		if err != nil {
			panic(err)
		}
		delivered, _ := r2.RunArrivals(proc, slices, 1<<20)
		var gotWords, wantWords int64
		for _, wds := range delivered {
			gotWords += wds
		}
		for k := int64(0); k < slices; k++ {
			for _, a := range proc.Slice(k) {
				pkt := a.Pkt
				wantWords += int64((pkt.SizeBytes + 3) / 4)
			}
		}
		frac := 0.0
		if wantWords > 0 {
			frac = float64(gotWords) / float64(wantWords)
		}
		pts = append(pts, HeavyTailPoint{Workload: text, Gbps: res.Gbps, Mpps: res.Mpps, DeliveredFrac: frac})
	}
	tb := &stats.Table{
		Caption: "Heavy-tailed production traffic vs the paper's synthetic workloads (4 ports, 250 MHz)",
		Headers: []string{"workload", "sat Gbps", "sat Mpps", "open-loop delivered"},
	}
	for _, p := range pts {
		tb.AddRow(p.Workload, p.Gbps, p.Mpps, p.DeliveredFrac)
	}
	return pts, tb
}

// HeavyTailFabric runs the §2.2.2 cell-fabric comparison (FIFO input
// queueing vs VOQ+iSLIP vs ideal output queueing) under an arbitrary
// workload's destination process instead of uniform saturation — Zipf
// skew concentrates load on hot outputs, which narrows the VOQ
// advantage the uniform benchmark shows. The spec is re-pointed at 16
// ports to match the background experiments.
func HeavyTailFabric(q Quality, specText string) (*stats.Table, error) {
	s, err := traffic.ParseSpec(specText)
	if err != nil {
		return nil, err
	}
	s.Ports = 16
	w, err := traffic.Build(s)
	if err != nil {
		return nil, err
	}
	slots := cyclesFor(q, 20_000, 200_000)
	tb := &stats.Table{
		Caption: "Cell fabrics under " + w.Spec.String() + " destinations (16 ports, saturated inputs)",
		Headers: []string{"switch", "throughput"},
	}
	for _, row := range []struct {
		name string
		fab  switchfab.Fabric
	}{
		{"FIFO input-queued", switchfab.NewFIFOSwitch(16, 64)},
		{"VOQ + iSLIP(3)", switchfab.NewVOQSwitch(16, 64, 3)},
		{"ideal output-queued", switchfab.NewOQSwitch(16)},
	} {
		th, err := switchfab.WorkloadSaturation(row.fab, w, 2000, slots)
		if err != nil {
			return nil, err
		}
		tb.AddRow(row.name, th)
	}
	return tb, nil
}
