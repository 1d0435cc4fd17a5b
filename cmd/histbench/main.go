// Command histbench regenerates the paper's Table 1: offline histogram
// approximation error and running time for exactdp, merging, merging2,
// fastmerging, fastmerging2, dual (and our measured gks stand-in for
// AHIST) on the hist (k=10), poly (k=10), and dow (k=50) data sets.
//
// Usage:
//
//	histbench                         # full table (exactdp on dow takes minutes)
//	histbench -skip-exact             # omit the O(n²k) exact DP
//	histbench -trials 20              # more timing repetitions
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("histbench: ")
	skipExact := flag.Bool("skip-exact", false, "omit the O(n²k) exact dynamic program")
	trials := flag.Int("trials", 0, "minimum timing repetitions per cell (0 = 10; exactdp and gks are timed once)")
	flag.Parse()

	cfg := bench.DefaultTable1Config()
	cfg.SkipExact = *skipExact
	if *trials > 0 {
		cfg.MinTrials = *trials
	}

	fmt.Println("Table 1 — offline histogram approximation")
	fmt.Println("(hist: n=1000 k=10; poly: n=4000 k=10; dow: n=16384 k=50;")
	fmt.Println(" merging/fastmerging: δ=1000 γ=1 → 2k+1 pieces; *2 variants: k/2 → k+1 pieces;")
	fmt.Println(" relative error vs exactdp, relative time vs fastmerging2)")
	fmt.Println()

	start := time.Now()
	rows := bench.RunTable1(cfg)
	if err := bench.WriteTable1(os.Stdout, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal harness time: %v\n", time.Since(start).Round(time.Millisecond))
}
