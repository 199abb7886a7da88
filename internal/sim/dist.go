package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is a distribution of nonnegative durations (seconds).
type Dist interface {
	// Sample draws one value using r.
	Sample(r *rand.Rand) float64
	// Mean returns the distribution mean.
	Mean() float64
}

// Deterministic always returns V.
type Deterministic struct{ V float64 }

// Sample implements Dist.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.V }

// Mean implements Dist.
func (d Deterministic) Mean() float64 { return d.V }

// Exponential has rate 1/MeanV.
type Exponential struct{ MeanV float64 }

// Sample implements Dist.
func (d Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() * d.MeanV }

// Mean implements Dist.
func (d Exponential) Mean() float64 { return d.MeanV }

// Uniform is uniform on [Low, High].
type Uniform struct{ Low, High float64 }

// Sample implements Dist.
func (d Uniform) Sample(r *rand.Rand) float64 { return d.Low + r.Float64()*(d.High-d.Low) }

// Mean implements Dist.
func (d Uniform) Mean() float64 { return (d.Low + d.High) / 2 }

// LogNormal is parameterized by its mean and the coefficient of variation
// CV (stddev/mean), which is how service-time variability is naturally
// specified when calibrating against measured latencies. Build one with
// NewLogNormal: it derives the underlying normal's parameters once, so a
// draw costs one normal variate and one Exp.
type LogNormal struct {
	mean, cv  float64
	mu, sigma float64
}

// NewLogNormal returns the lognormal distribution with the given mean and
// coefficient of variation. A CV of zero or less is the constant mean. It
// panics on a mean that is not finite and positive, or on a NaN or
// infinite CV: either would make every draw NaN.
func NewLogNormal(mean, cv float64) LogNormal {
	if !(mean > 0) || math.IsInf(mean, 1) {
		panic(fmt.Sprintf("sim: LogNormal mean must be finite and positive, got %v", mean))
	}
	if math.IsNaN(cv) || math.IsInf(cv, 0) {
		panic(fmt.Sprintf("sim: LogNormal CV must be finite, got %v", cv))
	}
	sigma2 := math.Log(1 + cv*cv)
	return LogNormal{
		mean:  mean,
		cv:    cv,
		mu:    math.Log(mean) - sigma2/2,
		sigma: math.Sqrt(sigma2),
	}
}

// Sample implements Dist.
func (d LogNormal) Sample(r *rand.Rand) float64 {
	if d.cv <= 0 {
		return d.mean
	}
	return math.Exp(d.mu + d.sigma*r.NormFloat64())
}

// Mean implements Dist.
func (d LogNormal) Mean() float64 { return d.mean }

// TruncNormal is a normal distribution truncated at zero (resampled).
type TruncNormal struct{ MeanV, StdDev float64 }

// Sample implements Dist.
func (d TruncNormal) Sample(r *rand.Rand) float64 {
	for i := 0; i < 64; i++ {
		v := d.MeanV + d.StdDev*r.NormFloat64()
		if v >= 0 {
			return v
		}
	}
	return 0
}

// Mean implements Dist (approximate when truncation mass is significant).
func (d TruncNormal) Mean() float64 { return d.MeanV }
