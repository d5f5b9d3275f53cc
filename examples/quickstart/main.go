// Quickstart: build the 4-port Raw router, saturate it with the paper's
// peak workload, and print the headline numbers (§7.2: 3.3 Mpps,
// 26.9 Gbps at 1,024-byte packets on a 250 MHz chip).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/router"
)

func main() {
	r, err := core.NewCycle(router.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Conflict-free permutation traffic: every input sends 1,024-byte
	// packets to a distinct output — the peak-rate workload of §7.2.
	gen := core.PermutationTraffic(1024, 1)

	res := r.RunMeasured(40_000 /* warmup */, 100_000 /* measured */, gen)

	fmt.Printf("simulated %d cycles at %.0f MHz\n", res.Cycles, res.ClockHz/1e6)
	fmt.Printf("delivered %d packets = %.2f Mpps, %.2f Gbps\n",
		res.Packets, res.Mpps, res.Gbps)
	fmt.Printf("paper (§7.2): 3.3 Mpps, 26.9 Gbps\n")
}
