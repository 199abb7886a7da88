package plantnet

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"e2clab/internal/fault"
	"e2clab/internal/resilience"
)

// fingerprintHash condenses metricsFingerprint to a pinnable digest.
func fingerprintHash(m *Metrics) string {
	sum := sha256.Sum256([]byte(metricsFingerprint(m)))
	return hex.EncodeToString(sum[:8])
}

// TestCrashChurnShardLifecycle pins the full metrics of the request
// lifecycle's rarely reached exits, in both kernel families and both
// workload modes: a request that reaches a replica crashed while it was on
// the network (reassigned to the survivor, or lost when none survives),
// losses of in-service work on the last replica, arrivals dropped or parked
// while every gateway or every replica is down, and the sharded domain's
// resubmission after a core-side failure. Both replicas crash 2 s apart,
// on the packet model: its backhaul keeps its propagation delay, so a
// sharded request is still walking the core's backhaul when the last
// replica goes. Gateway churn keeps each of the 5 gateways down 80% of
// the time.
func TestCrashChurnShardLifecycle(t *testing.T) {
	crashBoth := &fault.Spec{ReplicaCrashes: []fault.Crash{
		{Replica: 0, AtSeconds: 40, RecoverAfterSeconds: 30},
		{Replica: 1, AtSeconds: 42, RecoverAfterSeconds: 30},
	}}
	churn := &fault.Spec{GatewayChurn: &fault.Churn{MeanUpSeconds: 5, MeanDownSeconds: 20}}
	retry := &resilience.Policy{Retry: &resilience.Retry{Max: 1}}
	cases := []struct {
		name   string
		faults *fault.Spec
		policy *resilience.Policy
		open   bool
		shards int
		want   string
	}{
		{"crash/closed/seq", crashBoth, nil, false, 0, "a43ab1c56778320f"},
		{"crash/open/seq", crashBoth, nil, true, 0, "bc44bceaeecaac8f"},
		{"crash/closed/shards2", crashBoth, nil, false, 2, "1a1f9c1372e91a4d"},
		{"crash/open/shards2", crashBoth, nil, true, 2, "c21cacabb64a7702"},
		{"crash/open/seq/retry", crashBoth, retry, true, 0, "f281808c53a8310b"},
		{"churn/closed/seq", churn, nil, false, 0, "feb59d60a5d1b367"},
		{"churn/open/seq", churn, nil, true, 0, "3640c637d1a05838"},
		{"churn/closed/shards2", churn, nil, false, 2, "264aad9e418888d0"},
		{"churn/open/shards2", churn, nil, true, 2, "d29d53a79bca7195"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := RunOptions{
				Pools: Baseline, Network: shardedNetModel(c.faults == crashBoth), Replicas: 2,
				Duration: 120, Warmup: 30, Seed: 23, Shards: c.shards,
				Faults: c.faults, Resilience: c.policy,
			}
			if c.open {
				opts.OpenLoopRate = 15
			} else {
				opts.Clients = 30
			}
			m, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if m.Completed == 0 || m.FailedRequests == 0 {
				t.Errorf("completed=%d failed=%d, want both > 0", m.Completed, m.FailedRequests)
			}
			if got := fingerprintHash(m); got != c.want {
				t.Errorf("fingerprint %s, want %s (outcomes %+v)", got, c.want, m.Outcomes)
			}
		})
	}
}
