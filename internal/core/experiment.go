// Package core is the E2Clab facade: it wires the testbed, the
// layers-services scenario description, network emulation, user-defined
// services, monitoring, and — the contribution of the CLUSTER 2021 paper —
// the Optimization Manager that automates the reproducible optimization
// cycle (parallel deployment, simultaneous execution, asynchronous model
// optimization, reconfiguration) over the Edge-to-Cloud Continuum.
//
// The Manager optimizes one objective. A problem with several metrics (the
// right-hand class of the paper's Figure 4) must be scalarized into one
// metric by the user's objective function before it is handed over.
package core

import (
	"fmt"
	"sort"
	"sync"

	"e2clab/internal/netem"
	"e2clab/internal/testbed"
)

// Experiment is one E2Clab scenario: where services run (layers/services)
// and how layers communicate (network).
type Experiment struct {
	Name    string
	Testbed *testbed.Testbed
	Layers  []testbed.Layer
	Network *netem.Network
}

// Validate checks the scenario's internal consistency before deployment.
func (e *Experiment) Validate() error {
	if e.Name == "" {
		return fmt.Errorf("core: experiment needs a name")
	}
	if e.Testbed == nil {
		return fmt.Errorf("core: experiment %q has no testbed", e.Name)
	}
	if len(e.Layers) == 0 {
		return fmt.Errorf("core: experiment %q has no layers", e.Name)
	}
	names := make([]string, 0, len(e.Layers))
	seen := map[string]bool{}
	for _, l := range e.Layers {
		if l.Name == "" {
			return fmt.Errorf("core: experiment %q has an unnamed layer", e.Name)
		}
		if seen[l.Name] {
			return fmt.Errorf("core: duplicate layer %q", l.Name)
		}
		seen[l.Name] = true
		names = append(names, l.Name)
		if len(l.Services) == 0 {
			return fmt.Errorf("core: layer %q has no services", l.Name)
		}
		for _, s := range l.Services {
			if e.Testbed.Cluster(s.Cluster) == nil {
				return fmt.Errorf("core: service %s/%s references unknown cluster %q", l.Name, s.Name, s.Cluster)
			}
		}
	}
	if e.Network != nil {
		if err := e.Network.Validate(names); err != nil {
			return err
		}
	}
	return nil
}

// Deploy validates and reserves testbed nodes for the whole scenario.
func (e *Experiment) Deploy() (*testbed.Deployment, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e.Testbed.Deploy(e.Layers)
}

// Service is a user-defined E2Clab service: "any system or a group of
// systems that provide a specific functionality or action in the scenario
// workflow". Users override Deploy to define the deployment logic — node
// distribution and software installation — exactly as the paper's Service
// class prescribes (Section V-C).
type Service interface {
	// Name is the service's registry key.
	Name() string
	// Deploy installs the service on its nodes with the given environment
	// (thread-pool sizes, etc. for the Pl@ntNet service).
	Deploy(nodes []*testbed.Node, env map[string]string) error
}

// Registry holds user-defined services (E2Clab's register mechanism).
type Registry struct {
	mu       sync.RWMutex
	services map[string]Service
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{services: make(map[string]Service)} }

// Register adds a service; re-registering a name is an error.
func (r *Registry) Register(s Service) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("core: cannot register unnamed service")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.services[s.Name()]; dup {
		return fmt.Errorf("core: service %q already registered", s.Name())
	}
	r.services[s.Name()] = s
	return nil
}

// Get looks a service up by name.
func (r *Registry) Get(name string) (Service, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.services[name]
	return s, ok
}

// Names lists registered services, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.services))
	for n := range r.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DeployServices walks a deployment's placements and invokes each placed
// service's user-defined Deploy with its nodes and env.
func (r *Registry) DeployServices(e *Experiment, d *testbed.Deployment) error {
	for _, l := range e.Layers {
		for _, svc := range l.Services {
			impl, ok := r.Get(svc.Name)
			if !ok {
				return fmt.Errorf("core: no registered implementation for service %q", svc.Name)
			}
			nodes := d.Placement[l.Name+"/"+svc.Name]
			if err := impl.Deploy(nodes, svc.Env); err != nil {
				return fmt.Errorf("core: deploying %s: %w", svc.Name, err)
			}
		}
	}
	return nil
}
