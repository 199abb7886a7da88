// Package core is the E2Clab facade: it wires the testbed, the
// layers-services scenario description, network emulation, monitoring, and
// — the contribution of the CLUSTER 2021 paper — the Optimization Manager
// that automates the reproducible optimization cycle (parallel deployment,
// simultaneous execution, asynchronous model optimization,
// reconfiguration) over the Edge-to-Cloud Continuum.
//
// The Manager optimizes one objective. A problem with several metrics (the
// right-hand class of the paper's Figure 4) must be scalarized into one
// metric by the user's objective function before it is handed over.
package core

import (
	"fmt"

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
