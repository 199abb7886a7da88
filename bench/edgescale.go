package main

import (
	"fmt"

	"e2clab/internal/scenario"
)

// edge runs testdata/edge-scale.json: six scenarios of a 10,240-gateway
// estate (16 regional gateway classes) on packetized lossy uplinks, each a
// continuous open-loop run of 16 replicas on the sharded kernel (the suite
// sets shards 2). The suite pool has one worker, so the shard workers get
// both cores. The replica count keeps the engine unsaturated, so the
// network paths, the large calendar and the shard coordinator do the work
// rather than the engine queue.
type edge struct {
	suiteLoad
	// allocs counts the heap allocations of the last pass.
	allocs uint64
}

// edgeWarmupSeconds is the warm-up scenario's horizon: long enough to build
// every gateway's links and reach steady state, short against a pass.
const edgeWarmupSeconds = 20

func newEdge(seed int64, size suiteSize, dataDir string) (*edge, error) {
	l, err := loadSuite(dataDir, "edge-scale.json", seed, size, 1, edgeWarmupSeconds)
	if err != nil {
		return nil, err
	}
	return &edge{suiteLoad: l}, nil
}

func (e *edge) pass(tr *tracer) (passOut, error) {
	m0 := mallocs()
	out, res, err := e.run(e.suite, scenario.Options{}, tr)
	e.allocs = mallocs() - m0
	if err != nil {
		return out, err
	}
	e.last = res
	return out, nil
}

func (e *edge) layers(tr *tracer, m *metrics, reps int) error {
	runs := tr.durations("scenario.Run")
	completed := 0
	for _, r := range e.last.Results {
		completed += r.Completed
	}
	// One scenario is one engine run; its lowering costs microseconds
	// (scenario.lower_us), so the span is the sharded run.
	m.add("plantnet.run_ms", "ms", median(runs))
	m.add("plantnet.allocs_per_run", "count", float64(e.allocs)/float64(len(runs)))
	m.add("plantnet.run_ns_per_req", "ns", sum(runs)*1e6/float64(completed))

	// The same suite on the sequential kernel. It is another deterministic
	// family, so only its cost is compared.
	seq := e.suite
	seq.Shards = 0
	m0 := mallocs()
	out, _, err := e.run(seq, scenario.Options{}, nil)
	seqAllocs := mallocs() - m0
	if err != nil {
		return err
	}
	if out.failed > 0 {
		return fmt.Errorf("edge-scale: %d sequential scenarios failed", out.failed)
	}
	m.add("shard.seq_run_ms", "ms", median(out.opsMS))
	m.add("shard.speedup", "ratio", sum(out.opsMS)/sum(runs))
	m.add("shard.alloc_ratio", "ratio", float64(e.allocs)/float64(seqAllocs))
	return nil
}
