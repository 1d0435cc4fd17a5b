// Server: the serving layer end to end — host synopses over HTTP, query
// them with JSON and binary batch bodies, compare single and batched
// queries in process, ingest a live stream, and replicate a running engine
// to a second server with a snapshot push that hot-swaps atomically.
//
// Run with:
//
//	go run ./examples/server
package main

import (
	"bytes"
	"fmt"
	"log"
	"net/http/httptest"
	"slices"
	"time"

	histapprox "repro"
)

func main() {
	log.SetFlags(0)

	// A column of 200k values with a skewed distribution, summarized once.
	const n = 200_000
	freq := make([]float64, n)
	state := uint64(1)
	for i := 0; i < 4_000_000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		v := int(state>>33) % n
		v = (v * v / n) % n // quadratic skew
		freq[v]++
	}
	est, err := histapprox.NewSelectivityEstimator(freq, 500)
	if err != nil {
		log.Fatal(err)
	}

	// A live intake engine, ingesting while it serves.
	events, err := histapprox.NewShardedMaintainer(n, 100, 4, 0, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Server A hosts both. (httptest gives this example a real loopback
	// listener; production uses cmd/histserved or http.ListenAndServe.)
	srvA := histapprox.NewSynopsisServer(nil)
	if err := srvA.Host("col", est); err != nil {
		log.Fatal(err)
	}
	if err := srvA.Host("events", events); err != nil {
		log.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()
	fmt.Printf("server A: %s hosting %v\n", tsA.URL, names(srvA))

	// Query with JSON and binary bodies — answers are bit-identical.
	jsonClient := histapprox.NewServeClient(tsA.URL, tsA.Client(), false)
	binClient := histapprox.NewServeClient(tsA.URL, tsA.Client(), true)
	as := []int{1, n / 4, n / 2}
	bs := []int{n / 4, n / 2, n}
	fromJSON, err := jsonClient.Ranges("col", as, bs)
	if err != nil {
		log.Fatal(err)
	}
	fromBin, err := binClient.Ranges("col", as, bs)
	if err != nil {
		log.Fatal(err)
	}
	for i := range as {
		direct, _ := histapprox.EstimateRanges(est, as[i:i+1], bs[i:i+1], 1)
		fmt.Printf("count[%6d, %6d] ≈ %.0f (json) = %.0f (binary) = %.0f (in-process)\n",
			as[i], bs[i], fromJSON[i], fromBin[i], direct[0])
	}

	// In process, the same estimator answers a whole batch in one call,
	// sorted by left endpoint for locality and fanned out across all cores,
	// bit-identical to one EstimateRange call per query.
	const queries = 200_000
	qa, qb, one := make([]int, queries), make([]int, queries), make([]float64, queries)
	q := uint64(7)
	for i := range qa {
		q = q*6364136223846793005 + 1442695040888963407
		qa[i] = 1 + i*n/queries
		qb[i] = qa[i] + int(q>>33)%(n-qa[i]+1)
	}
	start := time.Now()
	for i := range qa {
		one[i], _ = est.EstimateRange(qa[i], qb[i])
	}
	single := time.Since(start)
	start = time.Now()
	batched, err := histapprox.EstimateRanges(est, qa, qb, 0)
	batch := time.Since(start)
	if err != nil || !slices.Equal(batched, one) {
		log.Fatalf("batched answers differ from single ones (%v)", err)
	}
	fmt.Printf("in-process: %.0f single vs %.0f batched queries/s (%.1fx), answers identical\n",
		queries/single.Seconds(), queries/batch.Seconds(), single.Seconds()/batch.Seconds())

	// Stream 100k events into the served engine over the wire.
	points := make([]int, 1024)
	for batch := 0; batch < 100; batch++ {
		for i := range points {
			state = state*6364136223846793005 + 1442695040888963407
			points[i] = 1 + int(state>>33)%n
		}
		if err := binClient.Add("events", points, nil); err != nil {
			log.Fatal(err)
		}
	}
	mass, err := jsonClient.Range("events", 1, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server A ingested %.0f events over the wire\n", mass)

	// Replicate: snapshot the live engine from A, push it to a fresh server
	// B. The push decodes, validates, and then hot-swaps with one atomic
	// pointer store — B's readers never block on the swap.
	srvB := histapprox.NewSynopsisServer(nil)
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	var snap bytes.Buffer
	if err := binClient.Snapshot("events", &snap); err != nil {
		log.Fatal(err)
	}
	clientB := histapprox.NewServeClient(tsB.URL, tsB.Client(), true)
	if err := clientB.Push("events", bytes.NewReader(snap.Bytes())); err != nil {
		log.Fatal(err)
	}
	replicated, err := clientB.Range("events", 1, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server B: replica answers %.0f from a %d-byte snapshot (%.4f bytes/event)\n",
		replicated, snap.Len(), float64(snap.Len())/mass)
}

func names(s *histapprox.SynopsisServer) []string {
	var out []string
	for _, info := range s.Names() {
		out = append(out, info.Name+":"+info.Kind)
	}
	return out
}
