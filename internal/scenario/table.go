package scenario

import (
	"fmt"

	"e2clab/internal/export"
)

// ComparisonTable renders the cross-scenario comparison: one row per
// scenario in suite order, so fixed-seed output is reproducible
// byte-for-byte. Failed or unreached scenarios render their status in
// place of metrics.
func ComparisonTable(sr *SuiteResult) *export.Table {
	t := export.NewTable(fmt.Sprintf("suite %s — cross-scenario comparison", sr.Suite),
		"scenario", "net model", "gateways", "clients", "resp (s)", "±std", "engine (s)",
		"network (s)", "p95 (s)", "throughput (req/s)", "completed", "availability")
	for i, r := range sr.Results {
		if r == nil {
			status := "not run"
			if sr.Errs[i] != nil {
				status = "FAILED: " + sr.Errs[i].Error()
			}
			t.AddRow(fmt.Sprintf("#%d", i), status)
			continue
		}
		t.AddRow(r.Name, r.NetModel, r.Gateways, r.Clients,
			r.RespMean, r.EngineResp.StdDev, r.EngineResp.Mean,
			r.NetOverheadSec, r.RespP95, r.Throughput, r.Completed,
			fmt.Sprintf("%.4f", r.Availability))
	}
	return t
}

// DetailTable renders one scenario's aggregate as a metric/value table.
func DetailTable(r *Result) *export.Table {
	t := export.NewTable(fmt.Sprintf("scenario %s", r.Name), "metric", "value")
	t.AddRow("network model", r.NetModel)
	t.AddRow("gateways", r.Gateways)
	t.AddRow("clients", r.Clients)
	t.AddRow("workload phases", r.Phases)
	t.AddRow("user resp time (s)", fmt.Sprintf("%.3f (±%.4f)", r.RespMean, r.EngineResp.StdDev))
	t.AddRow("engine resp time (s)", r.EngineResp.Mean)
	t.AddRow("network overhead (s)", r.NetOverheadSec)
	t.AddRow("engine resp min/max (s)", fmt.Sprintf("%.3f / %.3f", r.EngineResp.Min, r.EngineResp.Max))
	t.AddRow("engine resp p95 (s)", r.RespP95)
	t.AddRow("throughput (req/s)", r.Throughput)
	t.AddRow("completed requests", r.Completed)
	t.AddRow("samples", r.EngineResp.N)
	if r.GatewayFailures+r.CrashRequeues+r.CrashFailures+r.DroppedArrivals > 0 {
		t.AddRow("fault: gateway failures", r.GatewayFailures)
		t.AddRow("fault: crash requeues", r.CrashRequeues)
		t.AddRow("fault: crash failures", r.CrashFailures)
		t.AddRow("fault: dropped arrivals", r.DroppedArrivals)
	}
	if r.FailedRequests+r.Retries+r.Hedges+r.Rerouted+r.Shed+r.BreakerOpens+r.DeadlineExceeded > 0 {
		t.AddRow("availability", fmt.Sprintf("%.4f", r.Availability))
		t.AddRow("goodput (req/s)", r.Goodput)
		t.AddRow("failed requests", r.FailedRequests)
		t.AddRow("resilience: retries", fmt.Sprintf("%d (%d won)", r.Retries, r.RetrySuccesses))
		t.AddRow("resilience: hedges", fmt.Sprintf("%d (%d won)", r.Hedges, r.HedgeWins))
		t.AddRow("resilience: rerouted", r.Rerouted)
		t.AddRow("resilience: shed", r.Shed)
		t.AddRow("resilience: breaker opens", r.BreakerOpens)
		t.AddRow("resilience: deadline exceeded", r.DeadlineExceeded)
	}
	return t
}
