package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %v, want 5", Mean(xs))
	}
	if math.Abs(Variance(xs)-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", Variance(xs), 32.0/7)
	}
	if math.Abs(StdDev(xs)-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", StdDev(xs))
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) not NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of singleton not NaN")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) not NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Error("extreme quantiles wrong")
	}
	if Quantile(xs, 0.5) != 3 {
		t.Errorf("median = %v, want 3", Quantile(xs, 0.5))
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := Quantile(xs, 0.375); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("q37.5 = %v, want 2.5", got)
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Error("Quantile mutated input")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 10
		w.Add(xs[i])
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-10 {
		t.Errorf("Welford mean %v vs batch %v", w.Mean(), Mean(xs))
	}
	if math.Abs(w.Variance()-Variance(xs)) > 1e-9 {
		t.Errorf("Welford var %v vs batch %v", w.Variance(), Variance(xs))
	}
	if w.Min() != Quantile(xs, 0) || w.Max() != Quantile(xs, 1) {
		t.Error("Welford min/max mismatch")
	}
	if w.N() != 500 {
		t.Errorf("N = %d", w.N())
	}
	s := w.Snapshot()
	if s.N != 500 || s.Mean != w.Mean() || math.Abs(s.StdDev-StdDev(xs)) > 1e-9 || s.Min != w.Min() || s.Max != w.Max() {
		t.Errorf("Snapshot %+v disagrees with the accumulator", s)
	}
}

func TestWelfordMergeProperty(t *testing.T) {
	f := func(seed int64, na, nb uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a := make([]float64, int(na%40)+2)
		b := make([]float64, int(nb%40)+2)
		var wa, wb, wAll Welford
		all := make([]float64, 0, len(a)+len(b))
		for i := range a {
			a[i] = r.NormFloat64()
			wa.Add(a[i])
			wAll.Add(a[i])
			all = append(all, a[i])
		}
		for i := range b {
			b[i] = r.NormFloat64() * 5
			wb.Add(b[i])
			wAll.Add(b[i])
			all = append(all, b[i])
		}
		wa.Merge(wb)
		return math.Abs(wa.Mean()-wAll.Mean()) < 1e-9 &&
			math.Abs(wa.Variance()-wAll.Variance()) < 1e-8 &&
			wa.Min() == wAll.Min() && wa.Max() == wAll.Max() && wa.N() == len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	b.Add(3)
	a.Merge(b)
	if a.N() != 1 || a.Mean() != 3 {
		t.Error("merge into empty failed")
	}
	var c Welford
	a.Merge(c)
	if a.N() != 1 {
		t.Error("merge of empty changed state")
	}
}

func TestWelfordEmptyAccessors(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Min()) || !math.IsNaN(w.Max()) || !math.IsNaN(w.Variance()) {
		t.Error("empty accessors should be NaN")
	}
}

func TestReservoirSmallStreamExact(t *testing.T) {
	r := NewReservoir(100, rand.New(rand.NewSource(1)))
	for i := 1; i <= 50; i++ {
		r.Add(float64(i))
	}
	if r.N() != 50 {
		t.Errorf("N = %d", r.N())
	}
	// Below capacity the reservoir holds everything: quantiles are exact.
	if got := r.Quantile(0.5); math.Abs(got-25.5) > 1e-12 {
		t.Errorf("median = %v, want 25.5", got)
	}
	if r.Quantile(0) != 1 || r.Quantile(1) != 50 {
		t.Error("extremes wrong")
	}
}

func TestReservoirLargeStreamApproximate(t *testing.T) {
	r := NewReservoir(2000, rand.New(rand.NewSource(2)))
	src := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		r.Add(src.Float64()) // uniform [0,1)
	}
	if len(r.Values()) != 2000 {
		t.Fatalf("retained %d", len(r.Values()))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := r.Quantile(q); math.Abs(got-q) > 0.03 {
			t.Errorf("q%.0f = %v, want ~%v", q*100, got, q)
		}
	}
}

func TestReservoirDegenerate(t *testing.T) {
	r := NewReservoir(0, nil) // clamped to 1
	r.Add(7)
	r.Add(8)
	if v := r.Quantile(0.5); v != 7 && v != 8 {
		t.Errorf("single-slot reservoir = %v", v)
	}
}
