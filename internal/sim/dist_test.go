package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// closedFormLogNormal is the per-draw parameterization LogNormal.Sample
// used before NewLogNormal derived mu and sigma once.
func closedFormLogNormal(mean, cv float64, r *rand.Rand) float64 {
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*r.NormFloat64())
}

// TestLogNormalMatchesClosedForm checks that hoisting the parameters moves
// no draw: the calibration's seven (mean, CV) pairs, the engine tests' two
// and extreme CVs each draw 10k samples bit for bit equal to the closed
// form on a twin stream.
func TestLogNormalMatchesClosedForm(t *testing.T) {
	cases := []struct{ mean, cv float64 }{
		{0.012, 0.25}, {0.035, 0.25}, {0.012, 0.25}, {0.22, 0.35},
		{1.0, 0.12}, {0.46, 0.25}, {0.33, 0.30}, // plantnet.DefaultCalibration
		{1.5, 0.4}, {2, 0}, // engine_test.go
		{1, 1e-9}, {1, 3}, {1e-6, 3}, {1e6, 1e-9},
	}
	for i, c := range cases {
		d := NewLogNormal(c.mean, c.cv)
		r := rand.New(rand.NewSource(int64(i) + 1))
		ref := rand.New(rand.NewSource(int64(i) + 1))
		for n := 0; n < 10000; n++ {
			got, want := d.Sample(r), closedFormLogNormal(c.mean, c.cv, ref)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("NewLogNormal(%v, %v) draw %d = %v, closed form %v", c.mean, c.cv, n, got, want)
			}
		}
		if d.Mean() != c.mean {
			t.Errorf("NewLogNormal(%v, %v).Mean() = %v", c.mean, c.cv, d.Mean())
		}
	}
}

// TestNewLogNormalRejectsNaNParameters checks that every input that would
// make each draw NaN panics at construction instead.
func TestNewLogNormalRejectsNaNParameters(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name     string
		mean, cv float64
		msg      string
	}{
		{"NaN mean", nan, 0.25, "mean"},
		{"zero mean", 0, 0.25, "mean"},
		{"negative mean", -1, 0.25, "mean"},
		{"+Inf mean", inf, 0.25, "mean"},
		{"-Inf mean", -inf, 0.25, "mean"},
		{"NaN CV", 1, nan, "CV"},
		{"+Inf CV", 1, inf, "CV"},
		{"-Inf CV", 1, -inf, "CV"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "sim: LogNormal "+c.msg) {
					t.Errorf("NewLogNormal(%v, %v) panic = %q, want one about the %s", c.mean, c.cv, msg, c.msg)
				}
			}()
			NewLogNormal(c.mean, c.cv)
		})
	}
}
