package repro_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"e2clab/internal/bo"
	"e2clab/internal/config"
	"e2clab/internal/fault"
	"e2clab/internal/netem"
	"e2clab/internal/plantnet"
	"e2clab/internal/resilience"
	"e2clab/internal/scenario"
	"e2clab/internal/space"
	"e2clab/internal/surrogate"
)

// TestAllocCeilings is the allocation-regression gate of the hot paths:
// surrogate fit and batch prediction, the ask/tell loop, scenario
// campaigns, the sharded kernel, and the Table II/III drivers. Each ceiling
// is floor(1.10 x the count the operation allocated when its row was
// added), or a little lower where an earlier count of the same operation
// was lower. An added allocation per request, tree or candidate fails it;
// the small drift of unrelated edits does not.
//
// testing.AllocsPerRun pins GOMAXPROCS to 1 while it measures, so every
// worker pool (surrogate trees, suite scenarios, shard domains, repeated
// runs) runs inline and the count does not depend on the host's cores. The
// rows with procs set measure the multi-worker paths instead, at that fixed
// GOMAXPROCS (see allocsAtProcs). A zero ceiling is exact: that path must
// not allocate at all.
func TestAllocCeilings(t *testing.T) {
	X, y := quadraticSet(rand.New(rand.NewSource(1)), 100, 4)
	pool := make([][]float64, 1000) // the acquisition pool size, NCandidates
	r := rand.New(rand.NewSource(9))
	for i := range pool {
		pool[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	fitted := func(m surrogate.Model) surrogate.Model {
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return m
	}
	et := fitted(surrogate.NewExtraTrees(surrogate.DefaultForestConfig(), rand.New(rand.NewSource(2))))
	gbrt := fitted(surrogate.NewGBRT(surrogate.DefaultGBRTConfig(), rand.New(rand.NewSource(3))))
	gp := fitted(surrogate.NewGP(surrogate.DefaultGPConfig()))

	fitX, fitY := quadraticSet(rand.New(rand.NewSource(1)), 200, 4)
	fitRNG := rand.New(rand.NewSource(2))
	forestFit := func() error {
		return surrogate.NewExtraTrees(surrogate.DefaultForestConfig(), fitRNG).Fit(fitX, fitY)
	}
	sharded1, sharded4 := shardedScale(1), shardedScale(4)
	runner := plantnet.NewRunner()

	cases := []struct {
		name    string
		procs   int // 0: inline, under AllocsPerRun; >0: that many Ps
		ceiling float64
		op      func() error
	}{
		{"ForestFit/seq", 0, 1559, forestFit},
		{"ForestFit/par", 4, 1559, forestFit},
		{"PredictBatch/ET/batch", 0, 3, predictBatch(et, pool)},
		{"PredictBatch/ET/pointwise", 0, 0, predictPointwise(et, pool)},
		{"PredictBatch/GBRT/batch", 0, 3, predictBatch(gbrt, pool)},
		{"PredictBatch/GBRT/pointwise", 0, 0, predictPointwise(gbrt, pool)},
		{"PredictBatch/GP/batch", 0, 108, predictBatch(gp, pool)},
		{"PredictBatch/GP/pointwise", 0, 2200, predictPointwise(gp, pool)},
		{"AskLoop/ET", 0, 3879, askLoop(bo.Config{BaseEstimator: "ET"})},
		{"AskLoop/GBRT", 0, 3823, askLoop(bo.Config{BaseEstimator: "GBRT"})},
		{"AskLoop/GP", 0, 3645, askLoop(bo.Config{BaseEstimator: "GP"})},
		{"NetworkPath", 0, 3315, func() error {
			_, err := networkPath.Run(42)
			return err
		}},
		{"FaultedCampaign", 0, 9534, runSuite(faultedCampaign())},
		{"ResilientCampaign", 0, 10422, runSuite(resilientCampaign())},
		{"Suite", 0, 54722, runSuite(scenario.StandardSuite(60, 1, 42))},
		{"ShardedScale/shards=1", 0, 11289, func() error {
			_, err := runner.Run(sharded1)
			return err
		}},
		{"ShardedScale/shards=4", 4, 11632, func() error {
			_, err := runner.Run(sharded4)
			return err
		}},
		{"Table2Baseline", 0, 2809, func() error {
			_, err := plantnet.Run(plantnet.RunOptions{
				Pools: plantnet.Baseline, Clients: 80, Duration: benchDuration, Seed: 1})
			return err
		}},
		{"Table3Optimization", 0, 46755, func() error {
			_, err := table3(42)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			f := func() {
				if e := c.op(); e != nil {
					err = e
				}
			}
			// AllocsPerRun floors the mean over its runs, so three runs
			// absorb the odd allocation the runtime makes meanwhile, which
			// would otherwise flake the zero and three-alloc rows.
			var got float64
			if c.procs == 0 {
				got = testing.AllocsPerRun(3, f)
			} else {
				got = allocsAtProcs(c.procs, 3, f)
			}
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f allocs/op, ceiling %.0f", got, c.ceiling)
			if got > c.ceiling {
				t.Error("over the ceiling")
			}
		})
	}
}

// allocsAtProcs is testing.AllocsPerRun at a fixed GOMAXPROCS instead of
// 1, so worker pools sized by GOMAXPROCS start their goroutines: one warm-up
// call, then the floored mean of the heap allocations over runs calls.
// The count includes the workers' own allocations and does not depend on
// the host's cores.
func allocsAtProcs(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// quadraticSet draws n points of the unit d-cube labelled by a bowl
// centred at 0.5 in every dimension.
func quadraticSet(r *rand.Rand, n, d int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = r.Float64()
			y[i] += (X[i][j] - 0.5) * (X[i][j] - 0.5)
		}
	}
	return X, y
}

func predictBatch(m surrogate.Model, pool [][]float64) func() error {
	return func() error {
		surrogate.PredictBatch(m, pool)
		return nil
	}
}

func predictPointwise(m surrogate.Model, pool [][]float64) func() error {
	return func() error {
		for _, x := range pool {
			m.PredictWithStd(x)
		}
		return nil
	}
}

// askLoop runs 30 ask/tell cycles of the optimizer on a smooth engine-like
// surface cheap enough that the optimizer itself dominates.
func askLoop(cfg bo.Config) func() error {
	cfg.NInitialPoints, cfg.Seed = 10, 1
	return func() error {
		opt, err := bo.New(space.PlantNetProblem().Space, cfg)
		if err != nil {
			return err
		}
		for k := 0; k < 30; k++ {
			x := opt.Ask()
			opt.Tell(x, 2.4+math.Pow(x[0]-54, 2)/800+math.Pow(x[1]-54, 2)/3000+
				math.Pow(x[2]-53, 2)/2500+math.Pow(x[3]-6, 2)/40)
		}
		return nil
	}
}

// networkPath queues 40 clients' uploads on 20 LTE gateway pipes and a
// congested shared backhaul: link serialization, loss retransmission and
// the pooled transfer freelists.
var networkPath = scenario.Scenario{
	Name:         "alloc-netpath",
	NetworkModel: "simulated",
	Gateways: []scenario.GatewayClass{
		{Name: "lte", Count: 20, DelayMS: 45, RateGbps: 0.05, LossPct: 1},
	},
	ClientsPerGateway: 2,
	Degradation: []config.NetworkRule{
		{Src: "fog", Dst: "cloud", DelayMS: 20, RateGbps: 0.5, Symmetric: true},
	},
	DurationSeconds: 120,
}

// chaosBase is a mixed fiber/LTE edge with two engine replicas, the base of
// the faulted and resilient campaigns.
func chaosBase(name string) scenario.Scenario {
	return scenario.Scenario{
		Name:         name,
		NetworkModel: "simulated",
		Replicas:     2,
		Gateways: []scenario.GatewayClass{
			{Name: "fiber", Count: 16, DelayMS: 2, RateGbps: 10},
			{Name: "lte", Count: 4, DelayMS: 45, RateGbps: 0.05},
		},
		DurationSeconds: 120,
	}
}

// faultedCampaign sweeps no faults, gateway churn, and churn plus a replica
// crash and a link flap: timer cancellation, in-flight reassignment and
// link restores.
func faultedCampaign() scenario.Suite {
	churn := &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 10}
	return scenario.Suite{
		Name: "alloc-fault-sweep", Seed: 42, DurationSeconds: 120,
		Scenarios: scenario.FaultSweep(chaosBase("alloc-chaos"), []scenario.FaultProfile{
			{Name: "none"},
			{Name: "churn", Spec: &fault.Spec{GatewayChurn: churn}},
			{Name: "churn-crash", Spec: &fault.Spec{
				GatewayChurn:   churn,
				ReplicaCrashes: []fault.Crash{{Replica: 1, AtSeconds: 50, RecoverAfterSeconds: 25}},
				LinkFlaps:      []fault.Flap{{Gateway: 0, FirstAtSeconds: 20, DownSeconds: 6, PeriodSeconds: 45}},
			}},
		}),
	}
}

// resilientCampaign re-runs a churn + crash schedule policy-free, with
// bounded retries, and with retry, hedging and failover.
func resilientCampaign() scenario.Suite {
	base := chaosBase("alloc-resilient")
	base.Faults = &fault.Spec{
		GatewayChurn:   &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 10},
		ReplicaCrashes: []fault.Crash{{Replica: 1, AtSeconds: 50, RecoverAfterSeconds: 25}},
	}
	retry := &resilience.Retry{Max: 3, BaseDelaySeconds: 0.25, MaxDelaySeconds: 4}
	return scenario.Suite{
		Name: "alloc-resilience-sweep", Seed: 42, DurationSeconds: 120,
		Scenarios: scenario.ResilienceSweep(base, []scenario.ResilienceProfile{
			{Name: "none"},
			{Name: "retry", Policy: &resilience.Policy{Retry: retry}},
			{Name: "full", Policy: &resilience.Policy{
				TimeoutSeconds: 8, Retry: retry,
				Hedge: &resilience.Hedge{Quantile: 0.95}, Failover: true,
			}},
		}),
	}
}

func runSuite(s scenario.Suite) func() error {
	return func() error {
		sr, err := scenario.RunSuite(s, scenario.Options{})
		if err != nil {
			return err
		}
		for _, e := range sr.Errs {
			if e != nil {
				return e
			}
		}
		return nil
	}
}

// shardedScale is a 10,240-gateway edge tier (64 classes of 160 gateways)
// on packetized lossy uplinks with no shared backhaul, at a remote-edge
// 160 ms RTT so the conservative windows amortize the shard barrier. The
// options are built once: the sharded state cache is keyed by the
// NetworkModel pointer, so the measured run is simulation, not setup.
func shardedScale(shards int) plantnet.RunOptions {
	nm := &plantnet.NetworkModel{UploadBytes: 80e3, ResponseBytes: 8e3, Packet: true, MTUBytes: 1500}
	for c := 0; c < 64; c++ {
		delay := 0.010 + float64(c%8)*0.005
		nm.Classes = append(nm.Classes, plantnet.NetworkClass{
			Gateways: 160,
			Up:       netem.LinkSpec{DelaySec: delay, RateBps: 8e6, LossPct: 0.5},
			Down:     netem.LinkSpec{DelaySec: delay, RateBps: 10e6},
		})
	}
	cal := plantnet.DefaultCalibration()
	cal.NetworkRTT = 0.16
	return plantnet.RunOptions{
		Pools: plantnet.Baseline, Clients: 10240, Network: nm, Replicas: 4,
		Duration: 60, Warmup: 20, Seed: 1, Shards: shards, Cal: cal,
	}
}
