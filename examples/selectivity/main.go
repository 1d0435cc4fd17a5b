// Selectivity estimation: the database application from the paper's
// introduction. Build a near-V-optimal histogram synopsis of a skewed
// column with the merging algorithm, and compare its range-count estimates
// against classical equi-width and equi-depth histograms at equal space.
//
// Run with:
//
//	go run ./examples/selectivity
package main

import (
	"fmt"
	"log"
	"math"

	histapprox "repro"
)

func main() {
	log.SetFlags(0)

	// A synthetic "order value in cents" column over the domain [1, 20000]:
	// most orders cluster in a few price bands (skew that defeats fixed
	// bucket boundaries).
	const n = 20000
	const rows = 500_000
	values := make([]int, 0, rows)
	state := uint64(99)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	bands := []struct {
		lo, hi int
		weight float64
	}{
		{495, 505, 0.30},     // $4.95–$5.05 promos
		{999, 1001, 0.25},    // $9.99 anchor
		{1900, 2100, 0.20},   // $19–$21 bundle
		{1, 20000, 0.15},     // uniform long tail
		{15000, 15200, 0.10}, // $150–$152 premium
	}
	for len(values) < rows {
		u := next()
		acc := 0.0
		for _, b := range bands {
			acc += b.weight
			if u <= acc {
				span := b.hi - b.lo + 1
				values = append(values, b.lo+int(next()*float64(span)))
				break
			}
		}
	}

	freq, err := histapprox.ColumnFrequencies(values, n)
	if err != nil {
		log.Fatal(err)
	}
	exact := histapprox.NewExactCounter(freq)

	k := 12
	vopt, err := histapprox.NewSelectivityEstimator(freq, k)
	if err != nil {
		log.Fatal(err)
	}
	ew, err := histapprox.NewEquiWidthEstimator(freq, vopt.Pieces())
	if err != nil {
		log.Fatal(err)
	}
	ed, err := histapprox.NewEquiDepthEstimator(freq, vopt.Pieces())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("column: %d rows over [1, %d]; synopses: %d buckets each\n\n",
		rows, n, vopt.Pieces())

	queries := [][2]int{
		{480, 520},     // hits the $5 promo band
		{990, 1010},    // hits the $9.99 spike
		{1, 1000},      // cheap orders
		{2101, 14999},  // the quiet middle
		{14000, 16000}, // premium band
		{1, 20000},     // everything
	}
	fmt.Println("range           truth    v-opt(err%)    equi-width(err%)   equi-depth(err%)")
	var worstV, worstW, worstD float64
	for _, qr := range queries {
		truth, err := exact.CountRange(qr[0], qr[1])
		if err != nil {
			log.Fatal(err)
		}
		line := fmt.Sprintf("[%5d,%5d] %8.0f", qr[0], qr[1], truth)
		for i, est := range []histapprox.SelectivityEstimator{vopt, ew, ed} {
			got, err := est.EstimateRange(qr[0], qr[1])
			if err != nil {
				log.Fatal(err)
			}
			relPct := 100 * math.Abs(got-truth) / math.Max(truth, 1)
			line += fmt.Sprintf("   %9.0f(%5.1f)", got, relPct)
			switch i {
			case 0:
				worstV = math.Max(worstV, relPct)
			case 1:
				worstW = math.Max(worstW, relPct)
			case 2:
				worstD = math.Max(worstD, relPct)
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("\nworst relative error over these queries: v-optimal %.1f%%, equi-width %.1f%%, equi-depth %.1f%%\n",
		worstV, worstW, worstD)

	// The same queries answered through the batched serving path — one
	// call, bit-identical results (see examples/server for batch throughput
	// in process and over HTTP).
	as := make([]int, len(queries))
	bs := make([]int, len(queries))
	for i, qr := range queries {
		as[i], bs[i] = qr[0], qr[1]
	}
	batch, err := histapprox.EstimateRanges(vopt, as, bs, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i := range queries {
		single, err := vopt.EstimateRange(as[i], bs[i])
		if err != nil {
			log.Fatal(err)
		}
		if batch[i] != single {
			log.Fatalf("batch[%d] = %v differs from single query %v", i, batch[i], single)
		}
	}
	fmt.Printf("batched EstimateRanges over %d queries: bit-identical to single-query answers\n",
		len(queries))
}
