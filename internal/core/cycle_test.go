package core

import (
	"errors"
	"testing"

	"e2clab/internal/plantnet"
	"e2clab/internal/testbed"
	"e2clab/internal/workflow"
)

func TestCycleHappyPath(t *testing.T) {
	e := paperExperiment()
	e.Layers = e.Layers[:1] // engine only; one registered service suffices
	e.Network = nil
	reg := NewRegistry()
	svc := &PlantNetService{}
	if err := reg.Register(svc); err != nil {
		t.Fatal(err)
	}
	ranWorkload := false
	backedUp := false
	w, cleanup, err := e.Cycle(reg, func(d *testbed.Deployment) error {
		if d.NodeCount() != 1 {
			t.Errorf("workload saw %d nodes", d.NodeCount())
		}
		ranWorkload = true
		return nil
	}, func() error { backedUp = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	rep, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() {
		t.Fatalf("cycle failed: %v", rep.Statuses)
	}
	if !ranWorkload || !backedUp {
		t.Error("workload/backup not executed")
	}
	if len(svc.Deployed) != 1 || svc.Deployed[0] != plantnet.Baseline {
		t.Errorf("service deploy saw %+v", svc.Deployed)
	}
	// Release task freed the reservation.
	if e.Testbed.Available("chifflot") != 8 {
		t.Error("nodes not released after cycle")
	}
}

func TestCycleSkipsBackupOnWorkloadFailure(t *testing.T) {
	e := paperExperiment()
	e.Layers = e.Layers[:1]
	e.Network = nil
	reg := NewRegistry()
	if err := reg.Register(&PlantNetService{}); err != nil {
		t.Fatal(err)
	}
	backedUp := false
	w, cleanup, err := e.Cycle(reg,
		func(d *testbed.Deployment) error { return errors.New("workload crashed") },
		func() error { backedUp = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	rep, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if backedUp {
		t.Error("backup ran after workload failure")
	}
	if rep.Statuses["backup"] != workflow.SkippedUpstream {
		t.Errorf("backup status %v", rep.Statuses["backup"])
	}
	if len(rep.Errors) == 0 {
		t.Error("workload failure not reported")
	}
	// Cleanup (deferred by caller) releases the nodes.
	cleanup()
	if e.Testbed.Available("chifflot") != 8 {
		t.Error("cleanup did not release nodes")
	}
}

func TestCycleWithoutBackupOrRegistry(t *testing.T) {
	e := paperExperiment()
	e.Network = nil
	w, cleanup, err := e.Cycle(nil, func(d *testbed.Deployment) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	rep, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() {
		t.Fatalf("cycle failed: %v", rep.Statuses)
	}
}

func TestCycleNeedsWorkload(t *testing.T) {
	e := paperExperiment()
	if _, _, err := e.Cycle(nil, nil, nil); err == nil {
		t.Error("nil workload accepted")
	}
}
