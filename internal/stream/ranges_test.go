package stream

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sparse"
)

// The batch range kernel's contract: every answer of EstimateRangesOver is
// bit-identical to the one-range-at-a-time scan it replaced, kept below as
// the oracle, for every engine shape, pending state, batch size and range
// shape.

// oracleMaintainerRange is the per-range kernel of a Maintainer, term for
// term: a plain maintainer starts from the view's mass and adds its buffer;
// a windowed one sums scaled sealed slots, the view, then the buffer.
func oracleMaintainerRange(m *Maintainer, a, b, window int, halflife float64) float64 {
	if m.win == nil {
		var total float64
		if !m.view.empty() {
			total = m.view.rangeSum(a, b)
		}
		return oracleScan(total, m.buffer, a, b)
	}
	return oracleWindowedShard(m, a, b, window, halflife, nil, m.buffer)
}

// oracleWindowedShard is one windowed shard's subtotal.
func oracleWindowedShard(m *Maintainer, a, b, window int, halflife float64, inflight, active []sparse.Entry) float64 {
	var total float64
	slots := m.win.included(window)
	for i, h := range slots {
		total += decayFactor(len(slots)-i, halflife) * h.RangeSum(a, b)
	}
	if !m.view.empty() {
		total += m.view.rangeSum(a, b)
	}
	total = oracleScan(total, inflight, a, b)
	return oracleScan(total, active, a, b)
}

// oracleShardedRange is the per-range kernel of a Sharded engine: a plain
// engine adds every shard's terms into one running total, a windowed one adds
// per-shard subtotals.
func oracleShardedRange(s *Sharded, a, b, window int, halflife float64) float64 {
	var total float64
	for _, sh := range s.shards {
		sh.mu.Lock()
		if s.windowEpochs > 0 {
			total += oracleWindowedShard(sh.m, a, b, window, halflife, sh.inflight, sh.active)
		} else {
			if !sh.m.view.empty() {
				total += sh.m.view.rangeSum(a, b)
			}
			total = oracleScan(total, sh.inflight, a, b)
			total = oracleScan(total, sh.active, a, b)
		}
		sh.mu.Unlock()
	}
	return total
}

func oracleScan(total float64, log []sparse.Entry, a, b int) float64 {
	for _, e := range log {
		if a <= e.Index && e.Index <= b {
			total += e.Value
		}
	}
	return total
}

// freezeInflight puts every shard into the state a running background
// compaction leaves it in: the first half of its pending log in flight, the
// rest active. No compaction goroutine runs, so the state holds still for
// the comparison; the engine is only queried afterwards.
func freezeInflight(s *Sharded) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for sh.compacting {
			sh.cond.Wait()
		}
		half := len(sh.active) / 2
		sh.inflight = sh.active[:half:half]
		sh.active = append([]sparse.Entry(nil), sh.active[half:]...)
		sh.spare = nil
		sh.compacting = true
		sh.mu.Unlock()
	}
}

// rangeKernelFixture returns the stream fed to every engine: hot points,
// deletions, exact cancellations (+w then −w on one point), and −0 weights.
func rangeKernelFixture(n, total int) (points []int, weights []float64) {
	points, weights = streamFixture(n, total, 909)
	for i := 0; i+1 < total; i += 37 {
		points[i+1], weights[i+1] = points[i], -weights[i]
	}
	for i := 5; i < total; i += 101 {
		weights[i] = math.Copysign(0, -1)
	}
	return points, weights
}

// rangeKernelRanges returns 1000 ranges over [1, n] mixing nested,
// overlapping, duplicate, width-1, a = 1 and b = n ranges, some with
// endpoints on fixture points.
func rangeKernelRanges(n int, points []int) (as, bs []int) {
	state := uint64(77)
	next := func(m int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(m))
	}
	add := func(a, b int) {
		as, bs = append(as, a), append(bs, b)
	}
	// The first three: a range, its duplicate (one segment, two ranges),
	// and a range sharing its left endpoint (two segments).
	add(points[0], points[0]+n/3)
	add(points[0], points[0]+n/3)
	add(points[0], n)
	for len(as) < 1000 {
		a := 1 + next(n)
		b := a + next(n-a+1)
		switch next(8) {
		case 0: // nested around the last range
			if len(as) > 0 && bs[len(bs)-1]-as[len(as)-1] >= 2 {
				a, b = as[len(as)-1]+1, bs[len(bs)-1]-1
			}
		case 1: // duplicate
			if len(as) > 0 {
				a, b = as[len(as)-1], bs[len(bs)-1]
			}
		case 2: // width 1 on a fixture point
			a = points[next(len(points))]
			b = a
		case 3:
			a = 1
		case 4:
			b = n
		case 5: // endpoints on fixture points
			a, b = points[next(len(points))], points[next(len(points))]
			if a > b {
				a, b = b, a
			}
		}
		add(a, b)
	}
	as[999], bs[999] = 1, n
	return as, bs
}

type rangeKernelEngine struct {
	name     string
	windowed bool
	batch    func(as, bs []int, window int, halflife float64, out []float64) error
	oracle   func(a, b, window int, halflife float64) float64
}

// checkRangeKernel pins batch == oracle bit for bit for every batch size,
// window and half-life.
func checkRangeKernel(t *testing.T, e rangeKernelEngine, as, bs []int) {
	t.Helper()
	windows, halflives := []int{0}, []float64{0}
	if e.windowed {
		windows, halflives = []int{0, 1, 2, 3}, []float64{0, 1.5}
	}
	for _, size := range []int{1, 2, 3, 63, 64, 65, 1000} {
		out := make([]float64, size)
		for _, w := range windows {
			for _, hl := range halflives {
				if err := e.batch(as[:size], bs[:size], w, hl, out); err != nil {
					t.Fatalf("%s: batch of %d: %v", e.name, size, err)
				}
				for i := range out {
					want := e.oracle(as[i], bs[i], w, hl)
					if math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%s size=%d window=%d halflife=%g: range %d [%d, %d] = %v (%#x), oracle %v (%#x)",
							e.name, size, w, hl, i, as[i], bs[i], out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

func TestEstimateRangesOverMatchesPerRangeOracle(t *testing.T) {
	const n, k, W, capacity, total = 3000, 6, 3, 64, 1400
	points, weights := rangeKernelFixture(n, total)
	as, bs := rangeKernelRanges(n, points)
	opts := core.DefaultOptions()
	opts.Workers = 1
	// Windowed engines seal three epochs first; every engine keeps a live
	// tail in its pending logs.
	feed := func(add func(int, float64) error, advance func() error) {
		t.Helper()
		for i := range points {
			if err := add(points[i], weights[i]); err != nil {
				t.Fatal(err)
			}
			if advance != nil && i > 0 && i%400 == 0 {
				if err := advance(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for _, windowed := range []bool{false, true} {
		var m *Maintainer
		var err error
		if windowed {
			m, err = NewWindowedMaintainer(n, k, W, capacity, opts)
		} else {
			m, err = NewMaintainer(n, k, capacity, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		var advance func() error
		if windowed {
			advance = m.Advance
		}
		feed(m.Add, advance)
		if len(m.buffer) == 0 {
			t.Fatal("fixture leaves no pending buffer")
		}
		e := rangeKernelEngine{
			name: "maintainer", windowed: windowed, batch: m.EstimateRangesOver,
			oracle: func(a, b, w int, hl float64) float64 { return oracleMaintainerRange(m, a, b, w, hl) },
		}
		checkRangeKernel(t, e, as, bs)
		if err := m.Compact(); err != nil {
			t.Fatal(err)
		}
		e.name = "maintainer, empty buffer"
		checkRangeKernel(t, e, as, bs)

		for _, P := range []int{1, 2, 5} {
			var s *Sharded
			if windowed {
				s, err = NewWindowedSharded(n, k, W, P, capacity, opts)
			} else {
				s, err = NewSharded(n, k, P, capacity, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			advance = nil
			if windowed {
				advance = s.Advance
			}
			feed(s.Add, advance)
			if _, err := s.Summary(); err != nil {
				t.Fatal(err)
			}
			e := rangeKernelEngine{
				name: "sharded, empty logs", windowed: windowed, batch: s.EstimateRangesOver,
				oracle: func(a, b, w int, hl float64) float64 { return oracleShardedRange(s, a, b, w, hl) },
			}
			checkRangeKernel(t, e, as, bs)
			// A pending tail of about a compaction period per shard, half
			// of every shard's log then frozen in flight.
			for i := 0; i < (capacity-1)*P; i++ {
				if err := s.Add(points[total-1-i], weights[total-1-i]); err != nil {
					t.Fatal(err)
				}
			}
			freezeInflight(s)
			e.name = "sharded, compaction in flight"
			checkRangeKernel(t, e, as, bs)
		}
	}
}

// TestEstimateRangesOverAtDomainTop pins ranges ending at n = codec.MaxInt,
// the largest domain an engine accepts.
func TestEstimateRangesOverAtDomainTop(t *testing.T) {
	const n = codec.MaxInt
	s, err := NewSharded(n, 4, 2, 64, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.Add(n-i*i*1000, float64(1+i%3)); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(1+i, 1); err != nil {
			t.Fatal(err)
		}
	}
	as := []int{1, n, n - 5000, 1, n / 2, 20, n - 1e6}
	bs := []int{n, n, n, 10, n, n - 1, n - 4000}
	e := rangeKernelEngine{
		name: "sharded at the domain top", batch: s.EstimateRangesOver,
		oracle: func(a, b, w int, hl float64) float64 { return oracleShardedRange(s, a, b, w, hl) },
	}
	for size := 1; size <= len(as); size++ {
		out := make([]float64, size)
		if err := e.batch(as[:size], bs[:size], 0, 0, out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if want := e.oracle(as[i], bs[i], 0, 0); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("size %d: range %d [%d, %d] = %v, oracle %v", size, i, as[i], bs[i], out[i], want)
			}
		}
	}
}

// TestEstimateRangesOverKeepsNegativeZero pins the one place the kernels'
// first additions differ: a plain maintainer's answer starts from the view's
// mass itself, so a −0 view answers −0, while the sharded and windowed
// engines start from 0 and answer +0. Compaction never produces a −0 piece,
// but a decoded snapshot may carry one.
func TestEstimateRangesOverKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	opts := core.DefaultOptions()
	plain, err := NewMaintainer(1, 1, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := NewWindowedMaintainer(1, 1, 2, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(1, 1, 1, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, add := range []func(int, float64) error{plain.Add, windowed.Add, sharded.Add} {
		if err := add(1, negZero); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := windowed.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Summary(); err != nil {
		t.Fatal(err)
	}
	for _, owner := range []struct {
		m   *Maintainer
		log *[]sparse.Entry
	}{{plain, &plain.buffer}, {windowed, &windowed.buffer}, {sharded.shards[0].m, &sharded.shards[0].active}} {
		st := captureState(owner.m, *owner.log)
		st.values[0] = negZero
		st.install(owner.m, owner.log)
	}
	one := []int{1}
	for _, tc := range []struct {
		name   string
		batch  func(as, bs []int, window int, halflife float64, out []float64) error
		oracle float64
	}{
		{"maintainer", plain.EstimateRangesOver, oracleMaintainerRange(plain, 1, 1, 0, 0)},
		{"windowed maintainer", windowed.EstimateRangesOver, oracleMaintainerRange(windowed, 1, 1, 0, 0)},
		{"sharded", sharded.EstimateRangesOver, oracleShardedRange(sharded, 1, 1, 0, 0)},
	} {
		out := []float64{42}
		if err := tc.batch(one, one, 0, 0, out); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out[0]) != math.Float64bits(tc.oracle) {
			t.Errorf("%s: %v (%#x), oracle %v (%#x)", tc.name, out[0], math.Float64bits(out[0]), tc.oracle, math.Float64bits(tc.oracle))
		}
	}
	if got := oracleMaintainerRange(plain, 1, 1, 0, 0); !math.Signbit(got) {
		t.Fatalf("fixture: the plain maintainer's oracle answers %v, want −0", got)
	}
}

// TestEstimateRangesOverValidation pins the batch contract: a bad range
// anywhere fails the whole batch before any shard is read (a poisoned shard
// would otherwise answer first), with its index, leaving out untouched.
func TestEstimateRangesOverValidation(t *testing.T) {
	const n = 500
	s, err := NewWindowedSharded(n, 4, 3, 2, 32, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewMaintainer(n, 4, 32, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := s.Add(i, 1); err != nil {
			t.Fatal(err)
		}
		if err := plain.Add(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	poison := errors.New("poisoned shard")
	s.shards[1].mu.Lock()
	s.shards[1].err = poison
	s.shards[1].mu.Unlock()

	as, bs := make([]int, 100), make([]int, 100)
	for i := range as {
		as[i], bs[i] = 1+i, 1+i+i%7
	}
	for _, bad := range [][2]int{{0, 5}, {5, n + 1}, {9, 8}} {
		as[37], bs[37] = bad[0], bad[1]
		out := make([]float64, len(as))
		for i := range out {
			out[i] = -1
		}
		err := s.EstimateRangesOver(as, bs, 0, 0, out)
		if err == nil || !strings.HasPrefix(err.Error(), "query 37: stream: range") {
			t.Fatalf("bad range %v: error %v, want a query 37 range error", bad, err)
		}
		for i, v := range out {
			if v != -1 {
				t.Fatalf("bad range %v: out[%d] written (%v) before the batch was rejected", bad, i, v)
			}
		}
		if err := plain.EstimateRangesOver(as, bs, 0, 0, out); err == nil || !strings.HasPrefix(err.Error(), "query 37: ") {
			t.Fatalf("maintainer, bad range %v: error %v, want a query 37 error", bad, err)
		}
	}
	as[37], bs[37] = 1, 1
	out := make([]float64, len(as))
	for _, tc := range []struct {
		window   int
		halflife float64
	}{{-1, 0}, {4, 0}, {0, -1}, {0, math.NaN()}, {0, math.Inf(1)}} {
		if err := s.EstimateRangesOver(as, bs, tc.window, tc.halflife, out); err == nil || errors.Is(err, poison) {
			t.Errorf("window=%d halflife=%v: error %v, want a parameter error", tc.window, tc.halflife, err)
		}
	}
	if err := plain.EstimateRangesOver(as, bs, 1, 0, out); !errors.Is(err, errNotWindowed) {
		t.Errorf("windowed batch on a plain maintainer: %v", err)
	}
	if err := plain.EstimateRangesOver(as, bs[:99], 0, 0, out); err == nil {
		t.Error("mismatched starts and ends accepted")
	}
	if err := plain.EstimateRangesOver(as, bs, 0, 0, out[:99]); err == nil {
		t.Error("short answer slice accepted")
	}
	// A valid batch reaches the poisoned shard and reports its error.
	if err := s.EstimateRangesOver(as, bs, 0, 0, out); !errors.Is(err, poison) {
		t.Errorf("valid batch on a poisoned engine: %v, want the shard error", err)
	}
}

// TestEstimateRangesOverConcurrent runs batch reads beside concurrent
// AddBatch producers and epoch seals: run it with -race. Within one group a
// batch reads every shard under one lock hold, so repeated ranges in one
// group must answer identically even while the engine changes.
func TestEstimateRangesOverConcurrent(t *testing.T) {
	const n, W, rounds = 5000, 4, 60
	s, err := NewWindowedSharded(n, 6, W, 3, 128, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			pts := make([]int, 256)
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := range pts {
					pts[i] = 1 + (seed*7919+r*131+i*17)%n
				}
				if err := s.AddBatch(pts, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Advance(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	as, bs := make([]int, 2*rangeGroup), make([]int, 2*rangeGroup)
	for i := range as {
		as[i] = 1 + (i*97)%n
		bs[i] = min(n, as[i]+i*41)
	}
	// Ranges 0 and 63 repeat ranges 1 and 62 inside the first group.
	as[0], bs[0] = as[1], bs[1]
	as[63], bs[63] = as[62], bs[62]
	out := make([]float64, len(as))
	// Read until the seals have rotated every ring several times over.
	for r := 0; r < rounds || s.Tick() < 3*W; r++ {
		w, hl := r%(W+1), float64(r%3)/2
		if err := s.EstimateRangesOver(as, bs, w, hl, out); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("round %d: range %d answered %v for a positive stream", r, i, v)
			}
		}
		if out[0] != out[1] || out[62] != out[63] {
			t.Fatalf("round %d: repeated ranges in one group answered %v/%v and %v/%v", r, out[0], out[1], out[62], out[63])
		}
	}
}
