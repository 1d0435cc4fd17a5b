package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTimeItRunsAtLeastMinTrials(t *testing.T) {
	count := 0
	TimeIt(func() { count++ }, 7, 0)
	if count < 7 {
		t.Fatalf("ran %d times, want ≥ 7", count)
	}
}

func TestRunTable1SmokeSkipExact(t *testing.T) {
	if testing.Short() {
		t.Skip("table harness is slow")
	}
	cfg := Table1Config{SkipExact: true, MinTrials: 1, MinTotal: 0}
	rows := RunTable1(cfg)
	// 3 datasets × 6 algorithms (no exactdp).
	if len(rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	byDS := map[string][]Table1Row{}
	for _, r := range rows {
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
		if r.Err < 0 || r.Millis < 0 {
			t.Fatalf("negative measurement: %+v", r)
		}
		if r.Pieces < 1 {
			t.Fatalf("no pieces: %+v", r)
		}
	}
	for ds, rs := range byDS {
		if len(rs) != 6 {
			t.Fatalf("%s: %d rows", ds, len(rs))
		}
		var merging, dual Table1Row
		for _, r := range rs {
			switch r.Algorithm {
			case "merging":
				merging = r
			case "dual":
				dual = r
			}
		}
		// The paper's qualitative claim: merging achieves a better error
		// than dual on every data set.
		if merging.Err >= dual.Err {
			t.Fatalf("%s: merging err %v not better than dual %v", ds, merging.Err, dual.Err)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dataset", "merging2", "dow", "gks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigure2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness is slow")
	}
	cfg := Figure2Config{
		SampleSizes: []int{500, 2000},
		Trials:      3,
		Seed:        1,
		SkipExact:   true,
	}
	series := RunFigure2(cfg)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if s.OptK <= 0 {
			t.Fatalf("%s: opt_k = %v", s.Dataset, s.OptK)
		}
		// 2 sample sizes × 2 algorithms.
		if len(s.Points) != 4 {
			t.Fatalf("%s: %d points", s.Dataset, len(s.Points))
		}
		// Errors decrease (or stay flat within noise) as m grows, and every
		// error is at least opt_k − noise.
		byAlg := map[string][]Figure2Point{}
		for _, p := range s.Points {
			byAlg[p.Algorithm] = append(byAlg[p.Algorithm], p)
			if p.MeanErr <= 0 {
				t.Fatalf("%s/%s: mean err %v", s.Dataset, p.Algorithm, p.MeanErr)
			}
		}
		for alg, ps := range byAlg {
			if ps[1].MeanErr > ps[0].MeanErr*1.5 {
				t.Fatalf("%s/%s: error grew strongly with more samples: %v -> %v",
					s.Dataset, alg, ps[0].MeanErr, ps[1].MeanErr)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteFigure2(&buf, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "opt_k") {
		t.Fatal("rendered figure missing opt_k")
	}
}

func TestFigure1Series(t *testing.T) {
	fs := Figure1Series()
	if len(fs) != 3 {
		t.Fatalf("series = %d", len(fs))
	}
	if len(fs["hist"]) != 1000 || len(fs["poly"]) != 4000 || len(fs["dow"]) != 16384 {
		t.Fatal("series sizes wrong")
	}
}

func TestTimeItMinTotal(t *testing.T) {
	start := time.Now()
	TimeIt(func() { time.Sleep(time.Millisecond) }, 1, 5*time.Millisecond)
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("TimeIt returned before accumulating MinTotal")
	}
}
