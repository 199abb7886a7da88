package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPSWorkConservationProperty: for any set of jobs on a
// processor-sharing CPU, the total work delivered equals the total work
// submitted once everything completes, and no job finishes before
// totalWork/capacity (the capacity bound).
func TestPSWorkConservationProperty(t *testing.T) {
	f := func(seed int64, rawJobs uint8, rawCores uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nJobs := int(rawJobs%20) + 1
		cores := float64(rawCores%8) + 1
		e := NewEngine()
		cpu := NewCPU(e, cores)
		var totalWork float64
		var lastDone float64
		done := 0
		for i := 0; i < nJobs; i++ {
			w := 0.1 + r.Float64()*3
			totalWork += w
			cpu.Add(w, 1, func() {
				done++
				lastDone = e.Now()
			})
		}
		e.Run(1e6)
		if done != nJobs {
			return false
		}
		// Work conservation.
		if math.Abs(cpu.WorkIntegral()-totalWork) > 1e-6*totalWork {
			return false
		}
		// Makespan lower bound: work/capacity (all jobs start at t=0).
		if lastDone < totalWork/cores-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPSFairnessProperty: equal-weight jobs of equal size submitted
// together finish together.
func TestPSFairnessProperty(t *testing.T) {
	f := func(seed int64, rawJobs uint8) bool {
		nJobs := int(rawJobs%10) + 2
		e := NewEngine()
		cpu := NewCPU(e, 1)
		var times []float64
		for i := 0; i < nJobs; i++ {
			cpu.Add(1, 1, func() { times = append(times, e.Now()) })
		}
		e.Run(1e6)
		if len(times) != nJobs {
			return false
		}
		for _, tm := range times {
			if math.Abs(tm-times[0]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPoolConservationProperty: every request is eventually granted exactly
// once and the busy integral equals the sum of hold times.
func TestPoolConservationProperty(t *testing.T) {
	f := func(seed int64, rawN, rawSize uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(rawN%40) + 1
		size := int(rawSize%6) + 1
		e := NewEngine()
		p := NewPool(e, "p", size)
		var holdSum float64
		granted := 0
		for i := 0; i < n; i++ {
			hold := 0.05 + r.Float64()
			holdSum += hold
			p.Request(func() {
				granted++
				e.Schedule(hold, p.Release)
			})
		}
		e.Run(1e6)
		if granted != n || p.Busy() != 0 || p.Queued() != 0 {
			return false
		}
		return math.Abs(p.BusyIntegral()-holdSum) < 1e-6*holdSum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHoldNeverCompletes: persistent loads consume capacity but never fire
// completions; jobs sharing with a hold finish later than alone.
func TestHoldNeverCompletes(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 1)
	cpu.AddHold(1) // consumes half the core alongside one job
	var done float64
	cpu.Add(1, 1, func() { done = e.Now() })
	e.Run(1e6)
	if math.Abs(done-2) > 1e-9 {
		t.Errorf("job sharing with equal-weight hold finished at %v, want 2", done)
	}
	cpu.RemoveHold(1)
	cpu.RemoveHold(1) // the hold weight floors at zero
	if cpu.ActiveWeight() != 0 {
		t.Errorf("weight after release = %v", cpu.ActiveWeight())
	}
	// After release, new jobs run at full speed.
	start := e.Now()
	var done2 float64
	cpu.Add(1, 1, func() { done2 = e.Now() })
	e.Run(start + 100)
	if math.Abs(done2-start-1) > 1e-9 {
		t.Errorf("post-release job took %v, want 1", done2-start)
	}
}

// TestHoldUtilizationAccounted: capacity consumed by holds shows up in the
// work integral (CPU usage includes polling overhead).
func TestHoldUtilizationAccounted(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 4)
	cpu.AddHold(2)
	e.Schedule(10, func() {})
	e.Run(10)
	// 2 cores consumed for 10s = 20 work-seconds; utilization 50%.
	if got := cpu.Utilization(0, 0); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("hold utilization = %v, want 0.5", got)
	}
}

// TestGPUThroughputCapProperty: regardless of concurrency, a saturating GPU
// never delivers more than its peak rate.
func TestGPUThroughputCapProperty(t *testing.T) {
	f := func(rawJobs uint8) bool {
		nJobs := int(rawJobs%60) + 1
		e := NewEngine()
		gpu := NewGPU(e, 6, 6)
		for i := 0; i < nJobs; i++ {
			gpu.Add(1, 1, func() {})
		}
		horizon := 100.0
		e.Run(horizon)
		delivered := gpu.WorkIntegral()
		return delivered <= 6*horizon+1e-6 && delivered <= float64(nJobs)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMG1PSMeanResponse is the kernel's queueing oracle: Poisson arrivals
// on a one-core processor-sharing CPU form an M/G/1-PS queue, whose mean
// response time is E[S]/(1-ρ) for any service distribution. Over 24 seeded
// runs per case, the mean of the per-run means must lie within four
// standard errors of it, the standard error taken from the spread of the
// per-run means.
func TestMG1PSMeanResponse(t *testing.T) {
	const seeds = 24
	for _, rho := range []float64{0.5, 0.8} {
		for _, svc := range []Dist{Exponential{MeanV: 1}, Deterministic{V: 1}} {
			want := svc.Mean() / (1 - rho)
			var sum, sumSq float64
			for seed := int64(1); seed <= seeds; seed++ {
				m := mg1psMeanResponse(seed, rho, svc, 1000, 10000)
				sum += m
				sumSq += m * m
			}
			mean := sum / seeds
			se := math.Sqrt((sumSq - seeds*mean*mean) / (seeds - 1) / seeds)
			if math.Abs(mean-want) > 4*se {
				t.Errorf("rho %v %T: mean response %.4f ± %.4f (1 s.e.), want %.4f", rho, svc, mean, se, want)
			}
		}
	}
}

// mg1psMeanResponse runs warm+n Poisson arrivals at load rho and returns
// the mean response time of the n arrivals after the first warm.
func mg1psMeanResponse(seed int64, rho float64, svc Dist, warm, n int) float64 {
	r := rand.New(rand.NewSource(seed))
	e := NewEngine()
	cpu := NewCPU(e, 1)
	gap := Exponential{MeanV: svc.Mean() / rho}
	var total float64
	arrived := 0
	var arrive func()
	arrive = func() {
		start, measured := e.Now(), arrived >= warm
		arrived++
		cpu.Add(svc.Sample(r), 1, func() {
			if measured {
				total += e.Now() - start
			}
		})
		if arrived < warm+n {
			e.Schedule(gap.Sample(r), arrive)
		}
	}
	e.Schedule(gap.Sample(r), arrive)
	e.Run(math.Inf(1))
	return total / float64(n)
}
