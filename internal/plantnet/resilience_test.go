package plantnet

import (
	"math"
	"testing"

	"e2clab/internal/fault"
	"e2clab/internal/resilience"
)

// chaosOpts is the shared faulted deployment the resilience tests run
// against: 4 gateways churning, a replica crash mid-run.
func chaosOpts() RunOptions {
	return RunOptions{
		Pools: Baseline, Replicas: 3, Clients: 60, Duration: 200, Seed: 55,
		Network: multiGatewayModel(),
		Faults: &fault.Spec{
			GatewayChurn:   &fault.Churn{MeanUpSeconds: 45, MeanDownSeconds: 20},
			ReplicaCrashes: []fault.Crash{{Replica: 1, AtSeconds: 30, RecoverAfterSeconds: 20}},
		},
	}
}

// retryFailoverPolicy is the pinned policy of the golden below.
func retryFailoverPolicy() *resilience.Policy {
	return &resilience.Policy{
		TimeoutSeconds: 8,
		Retry:          &resilience.Retry{Max: 3, BaseDelaySeconds: 0.25, MaxDelaySeconds: 4},
		Failover:       true,
	}
}

// Golden pins for the policied chaos run (seed 55). Regenerate knowingly:
// any drift here is a change to the resilience semantics or to the
// determinism of the policy substreams.
const (
	goldenResCompleted = 5045
	goldenResRespMean  = 3.025959034205608
	goldenResRerouted  = 1014
	goldenResGoodput   = 20.384615384615383
)

func TestResilienceGolden(t *testing.T) {
	opts := chaosOpts()
	opts.Resilience = retryFailoverPolicy()
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != goldenResCompleted {
		t.Errorf("Completed = %d, want %d", m.Completed, goldenResCompleted)
	}
	if math.Float64bits(m.UserResponseTime.Mean) != math.Float64bits(goldenResRespMean) {
		t.Errorf("RespMean = %.17g, want %.17g (bit-exact)", m.UserResponseTime.Mean, goldenResRespMean)
	}
	if m.Rerouted != goldenResRerouted {
		t.Errorf("Rerouted = %d, want %d", m.Rerouted, goldenResRerouted)
	}
	if math.Float64bits(m.Goodput) != math.Float64bits(goldenResGoodput) {
		t.Errorf("Goodput = %.17g, want %.17g (bit-exact)", m.Goodput, goldenResGoodput)
	}
	if m.FailedRequests != 0 || m.AvailabilityFraction != 1 {
		t.Errorf("failed=%d availability=%v, want 0 and 1 (failover absorbs the churn)",
			m.FailedRequests, m.AvailabilityFraction)
	}
	// Determinism: the policied run replays bit-identically, including the
	// policy counters.
	m2, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, m, m2)
}

// A nil policy and the zero policy must leave runs bit-identical to the
// pre-policy engine: same branches, zero extra randomness.
func TestZeroPolicyIsBitIdenticalToNoPolicy(t *testing.T) {
	plain, err := Run(chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	zero := chaosOpts()
	zero.Resilience = &resilience.Policy{}
	m, err := Run(zero)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, plain, m)
	if m.Retries != 0 || m.Hedges != 0 || m.Rerouted != 0 || m.Shed != 0 ||
		m.BreakerOpens != 0 || m.DeadlineExceeded != 0 {
		t.Error("zero policy produced resilience outcomes")
	}
	// Unfaulted, unpolicied runs carry the degenerate SLO values.
	clean, err := Run(RunOptions{Pools: Baseline, Clients: 20, Duration: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if clean.AvailabilityFraction != 1 {
		t.Errorf("clean availability = %v, want 1", clean.AvailabilityFraction)
	}
	if math.Float64bits(clean.Goodput) != math.Float64bits(clean.Throughput) {
		t.Errorf("clean goodput %v != throughput %v", clean.Goodput, clean.Throughput)
	}
}

// Retry without failover: every gateway-churn loss becomes a retry, and
// retries that land on a live gateway win back availability.
func TestRetryImprovesAvailability(t *testing.T) {
	plain, err := Run(chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	if plain.FailedRequests == 0 || plain.AvailabilityFraction >= 1 {
		t.Fatalf("chaos baseline lost nothing (failed=%d) — the comparison is vacuous", plain.FailedRequests)
	}
	opts := chaosOpts()
	opts.Resilience = &resilience.Policy{
		Retry: &resilience.Retry{Max: 3, BaseDelaySeconds: 0.25, MaxDelaySeconds: 4},
	}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Retries == 0 || m.RetrySuccesses == 0 {
		t.Fatalf("retries=%d successes=%d, want both > 0", m.Retries, m.RetrySuccesses)
	}
	if !(m.AvailabilityFraction > plain.AvailabilityFraction) {
		t.Errorf("availability %v not above unpolicied %v", m.AvailabilityFraction, plain.AvailabilityFraction)
	}
	// Bounded amplification: at most Max retries per logical request that
	// needed one.
	if max := int64(3) * (m.FailedRequests + int64(m.RetrySuccesses)); m.Retries > max {
		t.Errorf("retry amplification: %d retries > bound %d", m.Retries, max)
	}
}

// Hedging under churn: the adaptive quantile delay activates once the
// post-warmup reservoir holds enough samples, and hedge arms win the
// requests whose primary arm died with its gateway.
func TestHedgeQuantileDelay(t *testing.T) {
	plain, err := Run(chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOpts()
	opts.Resilience = &resilience.Policy{Hedge: &resilience.Hedge{Quantile: 0.9}}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hedges == 0 {
		t.Fatal("adaptive hedge never launched")
	}
	if m.HedgeWins == 0 {
		t.Error("no hedge arm ever won")
	}
	if !(m.AvailabilityFraction > plain.AvailabilityFraction) {
		t.Errorf("availability %v not above unpolicied %v (hedges should rescue churned primaries)",
			m.AvailabilityFraction, plain.AvailabilityFraction)
	}
}

// An aggressive timeout on a saturated engine trips the per-replica
// breakers; half-open probes eventually close them and the run survives.
func TestTimeoutAndBreaker(t *testing.T) {
	// 200 closed-loop clients on 2 replicas queue far past a 1.5 s budget
	// at the HTTP pool, so deadlines fire at the grant checkpoint.
	opts := RunOptions{Pools: Baseline, Replicas: 2, Clients: 200, Duration: 200, Seed: 7}
	opts.Resilience = &resilience.Policy{
		TimeoutSeconds: 1.5, // well under the queueing delay at this load
		Retry:          &resilience.Retry{Max: 2},
		Breaker:        &resilience.Breaker{FailureThreshold: 5, OpenSeconds: 5},
	}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.DeadlineExceeded == 0 {
		t.Fatal("aggressive timeout never fired")
	}
	if m.BreakerOpens == 0 {
		t.Error("deadline storm never opened a breaker")
	}
	if m.Completed == 0 {
		t.Error("breaker run completed nothing")
	}
	if m.AvailabilityFraction >= 1 {
		t.Error("expected terminal failures once retries exhaust under a 1.5 s deadline")
	}
}

// Admission control: a tight queue-depth watermark sheds load instead of
// queueing it, and shed arms are retried like any other arm failure.
func TestShedWatermark(t *testing.T) {
	opts := RunOptions{Pools: Baseline, Replicas: 1, Clients: 80, Duration: 200, Seed: 19}
	opts.Resilience = &resilience.Policy{Shed: &resilience.Shed{QueueDepth: 4}}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shed == 0 {
		t.Fatal("watermark never shed an arrival")
	}
	if m.Completed == 0 {
		t.Error("shedding run completed nothing")
	}
}

// Satellite: a fault event at exactly t=0 takes effect before the first
// arrival — nothing is ever routed to a pre-crashed replica or a
// pre-departed gateway. Exercised through the FaultTimeline seam the
// windowed phase lowering uses.
func TestTimelineEventAtTimeZero(t *testing.T) {
	opts := RunOptions{
		Pools: Baseline, Replicas: 2, Clients: 24, Duration: 120, Seed: 41,
		Faults:        &fault.Spec{},
		FaultTimeline: []fault.Event{{Kind: fault.ReplicaCrash, At: 0, Target: 0}},
	}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.CrashRequeues != 0 || m.CrashFailures != 0 {
		t.Errorf("t=0 crash requeued %d / failed %d in-flight requests, want 0/0 (nothing was in flight)",
			m.CrashRequeues, m.CrashFailures)
	}
	if m.Completed == 0 {
		t.Error("surviving replica completed nothing")
	}

	gw := RunOptions{
		Pools: Baseline, Replicas: 2, Clients: 24, Duration: 120, Seed: 41,
		Network: multiGatewayModel(),
		Faults:  &fault.Spec{},
		FaultTimeline: []fault.Event{
			{Kind: fault.GatewayLeave, At: 0, Target: 1},
			{Kind: fault.GatewayLeave, At: 0, Target: 2},
			{Kind: fault.GatewayLeave, At: 0, Target: 3},
		},
	}
	mg, err := Run(gw)
	if err != nil {
		t.Fatal(err)
	}
	if mg.GatewayFailures != 0 {
		t.Errorf("t=0 gateway departures failed %d in-flight requests, want 0", mg.GatewayFailures)
	}
	if mg.Completed == 0 {
		t.Error("surviving gateway completed nothing")
	}
}

// Satellite fault-edge matrix, engine level: a zero-duration link outage
// (down and up at the same instant) must not strand or lose anything; a
// crash whose recovery lands exactly on the horizon still fires; churn
// far slower than the run leaves the run bit-identical to the unfaulted
// one (the compiled timeline is empty).
func TestFaultEdgeMatrix(t *testing.T) {
	t.Run("zero-duration flap", func(t *testing.T) {
		opts := RunOptions{
			Pools: Baseline, Clients: 8, Duration: 150, Seed: 13,
			Network: testNetModel(0),
			Faults:  &fault.Spec{},
			FaultTimeline: []fault.Event{
				{Kind: fault.LinkDown, At: 50, Target: 0},
				{Kind: fault.LinkUp, At: 50, Target: 0},
			},
		}
		m, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if m.Completed == 0 || m.GatewayFailures != 0 || m.FailedRequests != 0 {
			t.Errorf("zero-duration flap: completed=%d gwfail=%d failed=%d",
				m.Completed, m.GatewayFailures, m.FailedRequests)
		}
	})

	t.Run("recovery at horizon", func(t *testing.T) {
		opts := RunOptions{
			Pools: Baseline, Replicas: 2, Clients: 24, Duration: 120, Seed: 23,
			Faults: &fault.Spec{ReplicaCrashes: []fault.Crash{
				{Replica: 0, AtSeconds: 60, RecoverAfterSeconds: 60},
			}},
		}
		m, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if m.CrashRequeues == 0 {
			t.Error("mid-run crash requeued nothing")
		}
		if m.Completed == 0 {
			t.Error("run with horizon-edge recovery completed nothing")
		}
	})

	t.Run("churn slower than run", func(t *testing.T) {
		opts := RunOptions{
			Pools: Baseline, Clients: 16, Duration: 100, Seed: 29,
			Network: multiGatewayModel(),
		}
		plain, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		churned := opts
		churned.Faults = &fault.Spec{GatewayChurn: &fault.Churn{
			MeanUpSeconds: 1e9, MeanDownSeconds: 5,
		}}
		m, err := Run(churned)
		if err != nil {
			t.Fatal(err)
		}
		// The first departure draw lands ~1e9 s out: the compiled timeline
		// is empty within the horizon and the engine RNGs are untouched,
		// so the run is bit-identical to the unfaulted one.
		assertSameRun(t, plain, m)
	})
}

// Crashing every replica under a retry policy: lost in-flight arms retry
// and succeed once the replica recovers — no logical request is charged
// until its attempts are exhausted.
func TestRetryAcrossTotalOutage(t *testing.T) {
	opts := RunOptions{
		Pools: Baseline, Replicas: 1, Clients: 20, Duration: 120, Seed: 5,
		Faults: &fault.Spec{ReplicaCrashes: []fault.Crash{
			{Replica: 0, AtSeconds: 30, RecoverAfterSeconds: 10},
		}},
	}
	plain, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CrashFailures == 0 {
		t.Fatal("total outage lost nothing unpolicied — vacuous")
	}
	opts.Resilience = &resilience.Policy{
		Retry: &resilience.Retry{Max: 5, BaseDelaySeconds: 2, MaxDelaySeconds: 8},
	}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Retries == 0 || m.RetrySuccesses == 0 {
		t.Errorf("retries=%d successes=%d, want both > 0 across the outage", m.Retries, m.RetrySuccesses)
	}
	if !(m.AvailabilityFraction > plain.AvailabilityFraction) {
		t.Errorf("availability %v not above unpolicied %v", m.AvailabilityFraction, plain.AvailabilityFraction)
	}
}

// Policy validation at the engine boundary.
func TestResilienceValidation(t *testing.T) {
	bad := RunOptions{Pools: Baseline, Clients: 4, Duration: 30, Warmup: 10, Seed: 1,
		Resilience: &resilience.Policy{Retry: &resilience.Retry{Max: 99}}}
	if _, err := Run(bad); err == nil {
		t.Error("retry max beyond the bound accepted")
	}
	noNet := RunOptions{Pools: Baseline, Clients: 4, Duration: 30, Warmup: 10, Seed: 1,
		Resilience: &resilience.Policy{Failover: true}}
	if _, err := Run(noNet); err == nil {
		t.Error("failover without a network model accepted")
	}
	badTimeline := RunOptions{Pools: Baseline, Clients: 4, Duration: 30, Warmup: 10, Seed: 1,
		Faults:        &fault.Spec{},
		FaultTimeline: []fault.Event{{Kind: fault.GatewayLeave, At: 1, Target: 0}}}
	if _, err := Run(badTimeline); err == nil {
		t.Error("gateway timeline event without a network model accepted")
	}
}
