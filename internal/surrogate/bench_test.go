package surrogate

import (
	"math/rand"
	"testing"
)

func benchData(n, d int) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(1))
	return trainSet(r, n, d, quadratic)
}

func BenchmarkExtraTreesFit(b *testing.B) {
	X, y := benchData(100, 4)
	r := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewExtraTrees(DefaultForestConfig(), r)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtraTreesPredict(b *testing.B) {
	X, y := benchData(100, 4)
	m := NewExtraTrees(DefaultForestConfig(), rand.New(rand.NewSource(2)))
	if err := m.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	x := []float64{0.3, 0.5, 0.7, 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictWithStd(x)
	}
}

func BenchmarkGPFit(b *testing.B) {
	X, y := benchData(80, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewGP(DefaultGPConfig())
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGBRTFit(b *testing.B) {
	X, y := benchData(100, 4)
	r := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewGBRT(DefaultGBRTConfig(), r)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}
