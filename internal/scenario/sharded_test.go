package scenario

import (
	"path/filepath"
	"testing"
)

// shardedScenario is a simulated-network scenario eligible for the
// domain-sharded kernel (several gateway classes = several domain shards).
func shardedScenario() Scenario {
	return Scenario{
		Name:         "sharded",
		NetworkModel: "simulated",
		Shards:       2,
		Gateways: []GatewayClass{
			{Name: "fiber", Count: 6, DelayMS: 2, RateGbps: 10},
			{Name: "lte", Count: 4, DelayMS: 45, RateGbps: 0.05, LossPct: 1},
		},
		ClientsPerGateway: 2,
		DurationSeconds:   120,
		Repeats:           2,
	}
}

// TestShardedScenarioWorkerCountInvariant: at the scenario layer too, the
// shard count is only a parallelism knob — Shards 2, 4, and 8 produce
// bit-identical Results.
func TestShardedScenarioWorkerCountInvariant(t *testing.T) {
	ref, err := shardedScenario().Run(21)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Completed == 0 {
		t.Fatal("sharded scenario completed nothing")
	}
	for _, shards := range []int{4, 8} {
		sc := shardedScenario()
		sc.Shards = shards
		r, err := sc.Run(21)
		if err != nil {
			t.Fatal(err)
		}
		if dump(ref) != dump(r) {
			t.Errorf("Shards=%d scenario result diverged from Shards=2", shards)
		}
	}
}

// TestShardedScenarioNormalization: Shards without a simulated network (or
// Shards: 1) resolves to the sequential kernel and fingerprints identically
// to a spec that never mentions shards.
func TestShardedScenarioNormalization(t *testing.T) {
	an := shardedScenario()
	an.NetworkModel = "" // analytical: no network to partition
	d := an.withDefaults()
	if d.Shards != 0 {
		t.Errorf("analytical scenario resolved Shards = %d, want 0", d.Shards)
	}
	one := shardedScenario()
	one.Shards = 1
	if d := one.withDefaults(); d.Shards != 0 {
		t.Errorf("Shards=1 resolved to %d, want 0", d.Shards)
	}
	plain := shardedScenario()
	plain.Shards = 0
	hi1, lo1, err1 := fingerprint(one.withDefaults(), 5)
	hi2, lo2, err2 := fingerprint(plain.withDefaults(), 5)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if hi1 != hi2 || lo1 != lo2 {
		t.Error("Shards=1 fingerprints differently from the sequential spec")
	}
}

// TestShardedSuiteCheckpointSemantics: retuning the worker count resumes a
// finished campaign untouched (the fingerprint collapses invariant shard
// counts), while switching between the sequential and sharded deterministic
// families re-runs it.
func TestShardedSuiteCheckpointSemantics(t *testing.T) {
	mk := func(shards int) Suite {
		sc := shardedScenario()
		sc.Shards = shards
		return Suite{Name: "sharded-suite", Seed: 3, Scenarios: []Scenario{sc}}
	}
	ckpt := filepath.Join(t.TempDir(), "suite.json")
	first := mustRun(t, mk(2), Options{Parallel: 1, CheckpointPath: ckpt})
	if first.Executed != 1 {
		t.Fatalf("first run executed %d scenarios, want 1", first.Executed)
	}
	// Worker-count change: same family, same bits — resume.
	sr := mustRun(t, mk(8), Options{Parallel: 1, CheckpointPath: ckpt})
	if sr.Resumed != 1 || sr.Executed != 0 {
		t.Errorf("worker-count change: executed=%d resumed=%d, want pure resume", sr.Executed, sr.Resumed)
	}
	if dump(first.Results[0]) != dump(sr.Results[0]) {
		t.Error("resumed result differs from the original run")
	}
	// Family switch to sequential: different deterministic family — re-run.
	sr = mustRun(t, mk(0), Options{Parallel: 1, CheckpointPath: ckpt})
	if sr.Executed != 1 || sr.Resumed != 0 {
		t.Errorf("family switch: executed=%d resumed=%d, want full re-run", sr.Executed, sr.Resumed)
	}
}

// TestShardedSuiteDefault: a suite-level Shards applies to scenarios that
// do not set their own.
func TestShardedSuiteDefault(t *testing.T) {
	sc := shardedScenario()
	sc.Shards = 0
	s := Suite{Name: "inherit", Seed: 3, Shards: 4, Scenarios: []Scenario{sc}}
	resolved, err := s.resolved()
	if err != nil {
		t.Fatal(err)
	}
	if resolved[0].Shards != 4 {
		t.Errorf("resolved Shards = %d, want the suite default 4", resolved[0].Shards)
	}
}
