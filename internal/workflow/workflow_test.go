package workflow

import (
	"errors"
	"testing"
)

func TestRunInDependencyOrder(t *testing.T) {
	w := New()
	var order []string
	mk := func(name string, deps ...string) Task {
		return Task{Name: name, DependsOn: deps,
			Run: func() error { order = append(order, name); return nil }}
	}
	// The paper's experiment cycle: deploy engine -> start clients ->
	// run workload -> backup.
	w.MustAdd(mk("engine:launch"))
	w.MustAdd(mk("clients:launch", "engine:launch"))
	w.MustAdd(mk("workload:run", "clients:launch"))
	w.MustAdd(mk("backup", "workload:run"))
	rep, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() {
		t.Fatalf("statuses = %v", rep.Statuses)
	}
	want := []string{"engine:launch", "clients:launch", "workload:run", "backup"}
	for i, n := range want {
		if order[i] != n {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestIndependentTasksKeepRegistrationOrder(t *testing.T) {
	w := New()
	var order []string
	for _, n := range []string{"c", "a", "b"} {
		n := n
		w.MustAdd(Task{Name: n, Run: func() error { order = append(order, n); return nil }})
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "c" || order[1] != "a" || order[2] != "b" {
		t.Errorf("order = %v, want registration order", order)
	}
}

func TestFailurePropagation(t *testing.T) {
	w := New()
	boom := errors.New("deployment failed")
	w.MustAdd(Task{Name: "deploy", Run: func() error { return boom }})
	ran := false
	w.MustAdd(Task{Name: "workload", DependsOn: []string{"deploy"},
		Run: func() error { ran = true; return nil }})
	w.MustAdd(Task{Name: "cleanup-indep", Run: func() error { return nil }})
	w.MustAdd(Task{Name: "post", DependsOn: []string{"workload"},
		Run: func() error { ran = true; return nil }})
	rep, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("downstream of failed task ran")
	}
	if rep.Statuses["deploy"] != Failed {
		t.Errorf("deploy status %v", rep.Statuses["deploy"])
	}
	if rep.Statuses["workload"] != SkippedUpstream || rep.Statuses["post"] != SkippedUpstream {
		t.Errorf("downstream statuses %v", rep.Statuses)
	}
	if rep.Statuses["cleanup-indep"] != Succeeded {
		t.Error("independent task should still run")
	}
	if rep.Succeeded() {
		t.Error("Succeeded() = true with a failure")
	}
	if !errors.Is(rep.Errors["deploy"], boom) {
		t.Errorf("deploy error = %v", rep.Errors["deploy"])
	}
}

func TestCycleDetected(t *testing.T) {
	w := New()
	w.MustAdd(Task{Name: "a", DependsOn: []string{"b"}, Run: func() error { return nil }})
	w.MustAdd(Task{Name: "b", DependsOn: []string{"a"}, Run: func() error { return nil }})
	if err := w.Validate(); err == nil {
		t.Error("cycle accepted")
	}
	if _, err := w.Run(); err == nil {
		t.Error("Run on cyclic workflow succeeded")
	}
}

func TestUnknownDependency(t *testing.T) {
	w := New()
	w.MustAdd(Task{Name: "a", DependsOn: []string{"ghost"}, Run: func() error { return nil }})
	if err := w.Validate(); err == nil {
		t.Error("unknown dependency accepted")
	}
}

func TestAddValidation(t *testing.T) {
	w := New()
	if err := w.Add(Task{Name: "", Run: func() error { return nil }}); err == nil {
		t.Error("unnamed task accepted")
	}
	if err := w.Add(Task{Name: "x"}); err == nil {
		t.Error("task without Run accepted")
	}
	if err := w.Add(Task{Name: "x", Run: func() error { return nil }}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(Task{Name: "x", Run: func() error { return nil }}); err == nil {
		t.Error("duplicate accepted")
	}
	if w.Len() != 1 {
		t.Errorf("Len = %d", w.Len())
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		NotRun: "not_run", Succeeded: "succeeded",
		Failed: "failed", SkippedUpstream: "skipped_upstream",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestDiamondDependency(t *testing.T) {
	w := New()
	var order []string
	mk := func(name string, deps ...string) Task {
		return Task{Name: name, DependsOn: deps,
			Run: func() error { order = append(order, name); return nil }}
	}
	w.MustAdd(mk("root"))
	w.MustAdd(mk("left", "root"))
	w.MustAdd(mk("right", "root"))
	w.MustAdd(mk("join", "left", "right"))
	rep, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() || order[0] != "root" || order[3] != "join" {
		t.Errorf("diamond order = %v", order)
	}
}
