package plantnet

import (
	"fmt"
	"math/rand"

	"e2clab/internal/netem"
	"e2clab/internal/sim"
)

// NetworkModel switches a run from the analytical network (the caller
// prices the request path in closed form via netem.TransferSeconds and adds
// it outside the engine) to the simulated network continuum: every request
// traverses explicit per-hop sim.Links — its gateway's uplink, then the
// shared backhaul toward the engine — before the pipeline, and the reverse
// path after it. Links are bandwidth-shared and loss-aware, so bursts queue
// on slow uplinks and degradation interacts with load, which the analytical
// constant cannot capture.
//
// Clients are spread round-robin over the gateways of all classes in
// declaration order (mirroring the replica assignment), so a class with
// twice the gateways carries twice the traffic. Each gateway is its own
// uplink contention domain; the backhaul hops are shared by every request
// in the run.
type NetworkModel struct {
	// UploadBytes / ResponseBytes size the payloads crossing the links
	// (request photo up, identification result down).
	UploadBytes   float64
	ResponseBytes float64
	// Classes describes the gateway tiers (at least one).
	Classes []NetworkClass
	// BackhaulUp holds the shared hops beyond the gateway uplink in
	// device->engine order; BackhaulDown the response hops in
	// engine->device order. Zero specs are elided when links are built.
	BackhaulUp   []netem.LinkSpec
	BackhaulDown []netem.LinkSpec
	// Packet switches every link to packetized TCP-like transport
	// (per-packet loss + AIMD congestion windows of MTUBytes packets)
	// instead of whole-payload geometric resend — the "packet" network
	// model. MTUBytes <= 0 selects the 1500-byte default.
	Packet   bool
	MTUBytes float64
}

// NetworkClass is a homogeneous group of gateways sharing an uplink
// quality; each gateway gets its own pair of uplink links (one per
// direction) shared by the clients routed through it.
type NetworkClass struct {
	Gateways int
	Up, Down netem.LinkSpec
}

// Validate rejects structurally unusable models.
func (nm *NetworkModel) Validate() error {
	if len(nm.Classes) == 0 {
		return fmt.Errorf("plantnet: network model needs at least one gateway class")
	}
	for i, c := range nm.Classes {
		if c.Gateways < 1 {
			return fmt.Errorf("plantnet: network class %d has %d gateways", i, c.Gateways)
		}
	}
	if nm.UploadBytes < 0 || nm.ResponseBytes < 0 {
		return fmt.Errorf("plantnet: negative payload sizes %v/%v", nm.UploadBytes, nm.ResponseBytes)
	}
	return nil
}

// gateways returns the model's total gateway count (0 for no model).
func (nm *NetworkModel) gateways() int {
	if nm == nil {
		return 0
	}
	n := 0
	for _, c := range nm.Classes {
		n += c.Gateways
	}
	return n
}

// hasBackhaul reports whether the model builds any shared backhaul link.
func (nm *NetworkModel) hasBackhaul() bool {
	for _, specs := range [][]netem.LinkSpec{nm.BackhaulUp, nm.BackhaulDown} {
		for _, s := range specs {
			if !s.IsZero() {
				return true
			}
		}
	}
	return false
}

// ownsUplink reports whether gateway g (a global index) has a dedicated
// link of its own, the target of its link flaps and transitions.
func (nm *NetworkModel) ownsUplink(g int) bool {
	for _, c := range nm.Classes {
		if g < c.Gateways {
			return !c.Up.IsZero() || !c.Down.IsZero()
		}
		g -= c.Gateways
	}
	return false
}

// gatewayPath is one gateway's hop sequence: up in device->engine order,
// down in engine->device order. Backhaul entries alias the shared links.
type gatewayPath struct {
	up, down []*sim.Link
}

// netState is the instantiated network of one run: every built link (for
// reset and stat aggregation) plus the per-gateway paths requests cycle
// through. For fault targeting it also records each gateway's OWN uplink
// pair (excluding backhaul aliases) and the shared backhaul links.
type netState struct {
	links              []*sim.Link
	paths              []gatewayPath
	own                [][2]*sim.Link // per gateway: dedicated up/down links (nil when the class has none)
	backhaul           []*sim.Link    // shared backhaul links, both directions
	upBytes, downBytes float64
}

// buildNetState instantiates the model's links on the engine. All loss
// draws come from rng in event order, so a run is deterministic in its
// seed; the construction itself draws nothing.
func buildNetState(se *sim.Engine, nm *NetworkModel, rng *rand.Rand) *netState {
	ns := &netState{upBytes: nm.UploadBytes, downBytes: nm.ResponseBytes}
	build := func(spec netem.LinkSpec) *sim.Link {
		l := spec.Build(se, rng)
		if nm.Packet {
			l.EnablePacket(nm.MTUBytes)
		}
		ns.links = append(ns.links, l)
		return l
	}
	var backUp, backDown []*sim.Link
	for _, spec := range nm.BackhaulUp {
		if !spec.IsZero() {
			backUp = append(backUp, build(spec))
		}
	}
	for _, spec := range nm.BackhaulDown {
		if !spec.IsZero() {
			backDown = append(backDown, build(spec))
		}
	}
	ns.backhaul = append(append([]*sim.Link(nil), backUp...), backDown...)
	for _, c := range nm.Classes {
		for g := 0; g < c.Gateways; g++ {
			var up, down []*sim.Link
			var pair [2]*sim.Link
			if !c.Up.IsZero() {
				pair[0] = build(c.Up)
				up = append(up, pair[0])
			}
			up = append(up, backUp...)
			down = append(down, backDown...)
			if !c.Down.IsZero() {
				pair[1] = build(c.Down)
				down = append(down, pair[1])
			}
			ns.own = append(ns.own, pair)
			ns.paths = append(ns.paths, gatewayPath{up: up, down: down})
		}
	}
	return ns
}

// reset returns every link to a fresh state after an Engine.Reset; the
// owner re-seeds the shared rng.
func (ns *netState) reset() {
	for _, l := range ns.links {
		l.Reset()
	}
}
