// Package workflow implements E2Clab's workflow manager: the ordered
// execution of per-service lifecycle tasks (prepare, launch, finalize) with
// explicit dependencies — e.g. clients must not start before the engine is
// up, and backups run only after every workload finished. The real
// framework drives this from workflow.yaml; here a Workflow is a small,
// deterministic DAG runner.
package workflow

import (
	"fmt"
	"sort"
	"sync"
)

// Status of a task after a run.
type Status int

const (
	// NotRun means the task was never attempted (upstream failure).
	NotRun Status = iota
	// Succeeded means the task ran and returned nil.
	Succeeded
	// Failed means the task returned an error.
	Failed
	// SkippedUpstream means a dependency failed, so the task was skipped.
	SkippedUpstream
)

func (s Status) String() string {
	switch s {
	case NotRun:
		return "not_run"
	case Succeeded:
		return "succeeded"
	case Failed:
		return "failed"
	case SkippedUpstream:
		return "skipped_upstream"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Task is one unit of the experiment workflow.
type Task struct {
	// Name is unique within the workflow ("cloud/engine:launch").
	Name string
	// DependsOn lists task names that must succeed first.
	DependsOn []string
	// Run performs the work.
	Run func() error
}

// Workflow is a DAG of tasks.
type Workflow struct {
	mu    sync.Mutex
	tasks map[string]*Task
	order []string
}

// New returns an empty workflow.
func New() *Workflow { return &Workflow{tasks: make(map[string]*Task)} }

// Add registers a task. Duplicate names are an error.
func (w *Workflow) Add(t Task) error {
	if t.Name == "" {
		return fmt.Errorf("workflow: task needs a name")
	}
	if t.Run == nil {
		return fmt.Errorf("workflow: task %q has no Run function", t.Name)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.tasks[t.Name]; dup {
		return fmt.Errorf("workflow: duplicate task %q", t.Name)
	}
	cp := t
	w.tasks[t.Name] = &cp
	w.order = append(w.order, t.Name)
	return nil
}

// MustAdd is Add that panics; workflows are assembled from literals.
func (w *Workflow) MustAdd(t Task) {
	if err := w.Add(t); err != nil {
		panic(err)
	}
}

// Len returns the number of tasks.
func (w *Workflow) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.tasks)
}

// Validate checks that all dependencies exist and the graph is acyclic.
func (w *Workflow) Validate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.validateLocked()
}

func (w *Workflow) validateLocked() error {
	for name, t := range w.tasks {
		for _, dep := range t.DependsOn {
			if _, ok := w.tasks[dep]; !ok {
				return fmt.Errorf("workflow: task %q depends on unknown task %q", name, dep)
			}
		}
	}
	if _, err := w.topoOrderLocked(); err != nil {
		return err
	}
	return nil
}

// topoOrderLocked returns a deterministic topological order (Kahn's
// algorithm, ties broken by registration order).
func (w *Workflow) topoOrderLocked() ([]string, error) {
	indeg := make(map[string]int, len(w.tasks))
	dependents := make(map[string][]string)
	for name, t := range w.tasks {
		indeg[name] = len(t.DependsOn)
		for _, dep := range t.DependsOn {
			dependents[dep] = append(dependents[dep], name)
		}
	}
	var ready []string
	for _, name := range w.order {
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	var out []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		deps := dependents[n]
		sort.SliceStable(deps, func(i, j int) bool {
			return indexOf(w.order, deps[i]) < indexOf(w.order, deps[j])
		})
		for _, d := range deps {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if len(out) != len(w.tasks) {
		return nil, fmt.Errorf("workflow: dependency cycle detected (%d of %d tasks orderable)", len(out), len(w.tasks))
	}
	return out, nil
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

// Report is the outcome of a workflow run.
type Report struct {
	// Order is the execution order used.
	Order []string
	// Statuses maps task name to outcome.
	Statuses map[string]Status
	// Errors maps failed task names to their error.
	Errors map[string]error
}

// Succeeded reports whether every task succeeded.
func (r *Report) Succeeded() bool {
	for _, s := range r.Statuses {
		if s != Succeeded {
			return false
		}
	}
	return true
}

// Run executes the workflow in dependency order. Tasks whose dependencies
// failed (directly or transitively) are skipped, everything else still
// runs — matching E2Clab's behaviour of finalizing what it can.
func (w *Workflow) Run() (*Report, error) {
	w.mu.Lock()
	if err := w.validateLocked(); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	order, _ := w.topoOrderLocked()
	tasks := make(map[string]*Task, len(w.tasks))
	for k, v := range w.tasks {
		tasks[k] = v
	}
	w.mu.Unlock()

	rep := &Report{
		Order:    order,
		Statuses: make(map[string]Status, len(order)),
		Errors:   make(map[string]error),
	}
	for _, name := range order {
		t := tasks[name]
		blocked := false
		for _, dep := range t.DependsOn {
			if rep.Statuses[dep] != Succeeded {
				blocked = true
				break
			}
		}
		if blocked {
			rep.Statuses[name] = SkippedUpstream
			continue
		}
		if err := t.Run(); err != nil {
			rep.Statuses[name] = Failed
			rep.Errors[name] = err
			continue
		}
		rep.Statuses[name] = Succeeded
	}
	return rep, nil
}
