package histapprox

import (
	"math"
	"strings"
	"testing"
)

func TestFitRejectsNonFinite(t *testing.T) {
	bad := [][]float64{
		{1, math.NaN(), 3},
		{1, math.Inf(1), 3},
		{math.Inf(-1), 2, 3},
	}
	for _, data := range bad {
		if _, _, err := Fit(data, 1, nil); err == nil {
			t.Errorf("Fit(%v) should error", data)
		}
		if _, _, err := FitFast(data, 1, nil); err == nil {
			t.Errorf("FitFast(%v) should error", data)
		}
		if _, err := FitMultiscale(data); err == nil {
			t.Errorf("FitMultiscale(%v) should error", data)
		}
		if _, _, err := FitPolynomial(data, 1, 1, nil); err == nil {
			t.Errorf("FitPolynomial(%v) should error", data)
		}
	}
}

func TestFitAcceptsExtremeButFiniteValues(t *testing.T) {
	data := []float64{1e300, -1e300, 0, 1e-300, 5}
	if _, _, err := Fit(data, 2, nil); err != nil {
		t.Fatalf("finite extremes should be accepted: %v", err)
	}
}

func TestFitSparseRejectsNonFinite(t *testing.T) {
	for _, c := range []struct {
		name    string
		entries map[int]float64
		want    string // the index the error must name
	}{
		{"nan", map[int]float64{3: 1, 7: math.NaN(), 50: 2}, "entries[7]"},
		{"+inf", map[int]float64{3: 1, 50: math.Inf(1)}, "entries[50]"},
		{"-inf", map[int]float64{1: math.Inf(-1), 99: 4}, "entries[1]"},
		{"lowest bad index named", map[int]float64{90: math.NaN(), 20: math.Inf(1), 5: 3}, "entries[20]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, _, err := FitSparse(100, c.entries, 2, nil)
			if err == nil {
				t.Fatalf("FitSparse accepted %v and returned %v", c.entries, h)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %s", err, c.want)
			}
		})
	}
	if _, _, err := FitSparse(100, map[int]float64{3: 1e300, 7: -1e-300}, 2, nil); err != nil {
		t.Fatalf("finite extremes should be accepted: %v", err)
	}
}

func TestFitSummaryRejectsNonFinite(t *testing.T) {
	bounds := []int{10, 20, 30}
	for _, c := range []struct {
		name         string
		sums, sumSqs []float64
		want         string // the interval the error must name
	}{
		{"nan sum", []float64{1, math.NaN(), 3}, []float64{1, 1, 9}, "interval 1"},
		{"inf sum", []float64{math.Inf(-1), 2, 3}, []float64{1, 4, 9}, "interval 0"},
		{"nan sumsq", []float64{1, 2, 3}, []float64{1, 4, math.NaN()}, "interval 2"},
		{"inf sumsq", []float64{1, 2, 3}, []float64{1, math.Inf(1), 9}, "interval 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, _, err := FitSummary(30, bounds, c.sums, c.sumSqs, 2, nil)
			if err == nil {
				t.Fatalf("FitSummary accepted Σq %v, Σq² %v and returned %v", c.sums, c.sumSqs, h)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %s", err, c.want)
			}
		})
	}
}
