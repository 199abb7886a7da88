// Package scenario is the declarative scenario-suite layer of the
// reproduction: where config.Scenario describes ONE Edge-to-Cloud
// deployment, this package generates and executes FAMILIES of them — the
// experiment campaigns the E2Clab methodology prescribes ("evaluate the
// application under as many deployment scenarios as needed before moving to
// production").
//
// A Scenario pairs a gateway-level topology (how many edge gateways of
// which network class feed the engine, and on which continuum layer the
// engine runs) with a netem degradation profile, a workload shape
// (constant, bursty, or diurnal), and the engine configuration to evaluate.
// Scenario.Deployment lowers it to the config.Scenario / netem form the
// rest of the framework consumes; Run executes it on the calibrated
// Pl@ntNet engine simulator.
//
// Determinism contract: a Scenario's Result is a pure function of the
// scenario spec and the seed it is run under. All stochastic inputs are
// derived up front (rngutil), phases and repeats aggregate in a fixed
// order, and the suite runner (suite.go) preserves that order regardless
// of worker-pool parallelism — fixed-seed suite output is bit-identical
// whether it runs sequentially, in parallel, or across an interruption and
// resume.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"

	"e2clab/internal/config"
	"e2clab/internal/fault"
	"e2clab/internal/netem"
	"e2clab/internal/plantnet"
	"e2clab/internal/resilience"
	"e2clab/internal/rngutil"
	"e2clab/internal/stats"
	"e2clab/internal/workload"
)

// GatewayClass is a homogeneous group of edge gateways sharing an uplink
// quality — the unit of heterogeneous gateway mixes (fiber-, LTE- and
// satellite-backhauled sites behave very differently).
type GatewayClass struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Uplink constraints from this class's gateways to the next layer up.
	DelayMS  float64 `json:"delay_ms,omitempty"`
	RateGbps float64 `json:"rate_gbps,omitempty"`
	LossPct  float64 `json:"loss_pct,omitempty"`
	// Cluster is the testbed cluster hosting this class's gateway nodes
	// (defaults to "chiclet", the paper's edge-client cluster).
	Cluster string `json:"cluster,omitempty"`
}

// Scenario is one declarative edge-to-cloud deployment to evaluate.
type Scenario struct {
	Name string `json:"name"`

	// EngineLayer places the identification engine on "cloud" (default) or
	// "fog": a fog placement shortens the request path by one hop.
	EngineLayer string `json:"engine_layer,omitempty"`
	// NetworkModel selects how the request path is priced: "analytical"
	// (the default, also spelled "") adds the closed-form
	// netem.TransferSeconds path cost to the engine-side response time,
	// while "simulated" folds the path into the discrete-event kernel —
	// every request crosses per-gateway uplink and shared backhaul
	// sim.Links, so queueing at the gateways and loss-driven
	// retransmission interact with load. "packet" is the simulated model
	// with packetized TCP-like transport on every link: per-packet loss
	// draws and multiplicative congestion backoff instead of whole-payload
	// geometric resend. The resolved value is part of the suite checkpoint
	// fingerprint: resumed campaigns cannot silently mix models.
	NetworkModel string `json:"network_model,omitempty"`
	// Shards runs each engine repetition on the domain-sharded parallel
	// kernel with this many workers (>= 2). It requires a simulated
	// network model and is normalized to 0 (sequential) otherwise. Results
	// are bit-identical for every Shards >= 2, so the checkpoint
	// fingerprint collapses the worker count: a resumed campaign may
	// change it freely. The sharded kernel is its own deterministic
	// family, though — switching between sequential and sharded DOES
	// change results, and that switch is fingerprinted.
	Shards int `json:"shards,omitempty"`
	// Replicas is the number of engine instances (paper: 2 chifflot nodes).
	Replicas int `json:"replicas,omitempty"`
	// Pools is the engine thread-pool configuration; zero value means the
	// production baseline of Table II.
	Pools plantnet.PoolConfig `json:"pools,omitempty"`

	// Gateways describes the edge tier; at least one class is required.
	Gateways []GatewayClass `json:"gateways"`
	// ClientsPerGateway scales the closed-loop population: total clients =
	// sum of class counts x this (default 2, the paper's 40 gateways x 2 =
	// 80-request workload).
	ClientsPerGateway int `json:"clients_per_gateway,omitempty"`

	// Degradation holds extra netem rules applied on top of the gateway
	// uplinks (added latency/loss between layers — tc/netem profiles).
	Degradation []config.NetworkRule `json:"degradation,omitempty"`

	// Workload shapes the client population over the experiment (constant,
	// bursty, diurnal, trace). Zero value means constant.
	Workload Shape `json:"workload,omitempty"`

	// Faults is the deterministic fault schedule injected into every engine
	// run of the scenario (fault times are relative to each run's own
	// t=0, so a phased workload replays the schedule per phase). Gateway
	// churn and link faults require a simulated network model. The schedule
	// is part of the JSON spec and therefore of the suite checkpoint
	// fingerprint: changing it invalidates resume for the scenario.
	Faults *fault.Spec `json:"faults,omitempty"`

	// Resilience is the client/routing policy every engine run applies on
	// top of whatever the fault schedule throws at it: per-request
	// timeouts, jittered retries, hedged requests, circuit breaking,
	// gateway failover, and admission control. Nil (or the zero policy)
	// means the pre-policy behavior, bit-for-bit. Failover requires a
	// simulated network model. Like Faults, the policy is part of the JSON
	// spec and therefore of the suite checkpoint fingerprint.
	Resilience *resilience.Policy `json:"resilience,omitempty"`

	// UploadBytes / ResponseBytes size the request payloads crossing the
	// network (defaults: 1.2 MB photo up, 50 KB identification down).
	UploadBytes   float64 `json:"upload_bytes,omitempty"`
	ResponseBytes float64 `json:"response_bytes,omitempty"`

	// DurationSeconds / Repeats override the suite-level protocol for this
	// scenario (0 = inherit).
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	Repeats         int     `json:"repeats,omitempty"`
}

// withDefaults returns a copy with every optional field resolved.
func (s Scenario) withDefaults() Scenario {
	if s.EngineLayer == "" {
		s.EngineLayer = "cloud"
	}
	// Normalize the explicit default spelling so a scenario that says
	// "analytical" fingerprints identically to one that says nothing.
	if s.NetworkModel == "analytical" {
		s.NetworkModel = ""
	}
	if s.Replicas <= 0 {
		s.Replicas = 1
	}
	// The sharded kernel needs a simulated network to partition; anything
	// else (including Shards: 1) is the sequential kernel, spelled 0 so
	// equivalent specs fingerprint identically. (NetworkModel is checked
	// directly — it is already normalized above, and simulatesNetwork()
	// would recurse into withDefaults.)
	if s.Shards <= 1 || (s.NetworkModel != "simulated" && s.NetworkModel != "packet") {
		s.Shards = 0
	}
	if s.Pools == (plantnet.PoolConfig{}) {
		s.Pools = plantnet.Baseline
	}
	if s.ClientsPerGateway <= 0 {
		s.ClientsPerGateway = 2
	}
	for i := range s.Gateways {
		if s.Gateways[i].Cluster == "" {
			s.Gateways[i].Cluster = "chiclet"
		}
	}
	if s.UploadBytes <= 0 {
		s.UploadBytes = 1.2e6
	}
	if s.ResponseBytes <= 0 {
		s.ResponseBytes = 5e4
	}
	if s.DurationSeconds <= 0 {
		s.DurationSeconds = 300
	}
	if s.Repeats <= 0 {
		s.Repeats = 1
	}
	return s
}

// Validate checks the scenario is structurally sound, including that its
// lowered deployment passes config.Scenario and netem validation.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: needs a name")
	}
	// A NaN or infinite duration never ends a run, a non-finite delay or
	// rate is meaningless, and neither can be fingerprinted: json.Marshal
	// rejects exactly the non-finite numbers.
	if _, err := json.Marshal(s); err != nil {
		return fmt.Errorf("scenario %q: every number in the spec must be finite: %w", s.Name, err)
	}
	d := s.withDefaults()
	if d.EngineLayer != "cloud" && d.EngineLayer != "fog" {
		return fmt.Errorf("scenario %q: engine_layer must be cloud or fog, got %q", s.Name, s.EngineLayer)
	}
	if d.NetworkModel != "" && d.NetworkModel != "simulated" && d.NetworkModel != "packet" {
		return fmt.Errorf("scenario %q: network_model must be analytical, simulated, or packet, got %q", s.Name, s.NetworkModel)
	}
	if len(d.Gateways) == 0 {
		return fmt.Errorf("scenario %q: needs at least one gateway class", s.Name)
	}
	for _, g := range d.Gateways {
		if g.Name == "" {
			return fmt.Errorf("scenario %q: unnamed gateway class", s.Name)
		}
		if g.Count < 1 {
			return fmt.Errorf("scenario %q: gateway class %q has count %d", s.Name, g.Name, g.Count)
		}
	}
	if err := d.Pools.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := d.Workload.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := d.validateFaults(); err != nil {
		return err
	}
	if err := d.validateResilience(); err != nil {
		return err
	}
	cfg, err := d.Deployment()
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	// Validate every per-class network against the deployment's layers.
	layers := make([]string, len(cfg.Layers))
	for i, l := range cfg.Layers {
		layers[i] = l.Name
	}
	for _, g := range d.Gateways {
		if err := d.classNetwork(g).Validate(layers); err != nil {
			return fmt.Errorf("scenario %q, class %q: %w", s.Name, g.Name, err)
		}
	}
	return nil
}

// validateFaults cross-checks the fault schedule against the scenario's
// lowered topology; d is already defaulted.
func (d Scenario) validateFaults() error {
	if d.Faults.IsZero() {
		return nil
	}
	if err := d.Faults.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", d.Name, err)
	}
	netFaults := d.Faults.GatewayChurn != nil || len(d.Faults.LinkFlaps) > 0 ||
		len(d.Faults.LinkSchedule) > 0
	if netFaults && d.NetworkModel != "simulated" && d.NetworkModel != "packet" {
		return fmt.Errorf("scenario %q: gateway churn and link faults need network_model simulated or packet", d.Name)
	}
	for _, cr := range d.Faults.ReplicaCrashes {
		if cr.Replica >= d.Replicas {
			return fmt.Errorf("scenario %q: fault crashes replica %d of %d", d.Name, cr.Replica, d.Replicas)
		}
	}
	total := d.TotalGateways()
	checkTarget := func(g int, what string) error {
		if g == fault.Backhaul {
			if d.EngineLayer == "fog" {
				return fmt.Errorf("scenario %q: %s targets the backhaul, but a fog placement has none", d.Name, what)
			}
			return nil
		}
		if g >= total {
			return fmt.Errorf("scenario %q: %s targets gateway %d of %d", d.Name, what, g, total)
		}
		return nil
	}
	for _, f := range d.Faults.LinkFlaps {
		if err := checkTarget(f.Gateway, "link flap"); err != nil {
			return err
		}
	}
	for _, tr := range d.Faults.LinkSchedule {
		if err := checkTarget(tr.Gateway, "link transition"); err != nil {
			return err
		}
	}
	return nil
}

// validateResilience cross-checks the policy against the scenario's
// lowered topology; d is already defaulted.
func (d Scenario) validateResilience() error {
	if d.Resilience.IsZero() {
		return nil
	}
	if err := d.Resilience.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", d.Name, err)
	}
	if d.Resilience.Failover && !d.simulatesNetwork() {
		return fmt.Errorf("scenario %q: failover routing needs network_model simulated or packet", d.Name)
	}
	return nil
}

// TotalGateways sums the gateway counts across classes.
func (s Scenario) TotalGateways() int {
	n := 0
	for _, g := range s.Gateways {
		n += g.Count
	}
	return n
}

// Clients is the full closed-loop population the scenario drives.
func (s Scenario) Clients() int {
	d := s.withDefaults()
	return d.TotalGateways() * d.ClientsPerGateway
}

// path lists the layer hops a request crosses from the edge to the engine.
func (s Scenario) path() [][2]string {
	if s.EngineLayer == "fog" {
		return [][2]string{{"edge", "fog"}}
	}
	return [][2]string{{"edge", "fog"}, {"fog", "cloud"}}
}

// layers returns the continuum layers of the deployment, edge first.
func (s Scenario) layers() []string {
	if s.EngineLayer == "fog" {
		return []string{"edge", "fog"}
	}
	return []string{"edge", "fog", "cloud"}
}

// Deployment lowers the scenario to the config.Scenario form (layers,
// services, composed network rules) that `e2clab deploy` and the
// provenance archive consume.
func (s Scenario) Deployment() (*config.Scenario, error) {
	d := s.withDefaults()
	if len(d.Gateways) == 0 {
		return nil, fmt.Errorf("scenario %q: needs at least one gateway class", s.Name)
	}
	engineCluster := "chifflot" // the paper's GPU nodes
	engineSvc := config.ServiceConfig{
		Name: "plantnet_engine", Quantity: d.Replicas, Cluster: engineCluster,
		Env: map[string]string{
			"http":      fmt.Sprint(d.Pools.HTTP),
			"download":  fmt.Sprint(d.Pools.Download),
			"extract":   fmt.Sprint(d.Pools.Extract),
			"simsearch": fmt.Sprint(d.Pools.Simsearch),
		},
	}
	edge := config.LayerConfig{Name: "edge"}
	for _, g := range d.Gateways {
		edge.Services = append(edge.Services, config.ServiceConfig{
			Name: "gateway_" + g.Name, Quantity: g.Count, Cluster: g.Cluster,
		})
	}
	fog := config.LayerConfig{Name: "fog", Services: []config.ServiceConfig{
		{Name: "relay", Quantity: 1, Cluster: "chetemi"},
	}}
	var layers []config.LayerConfig
	if d.EngineLayer == "fog" {
		fog.Services = append(fog.Services, engineSvc)
		layers = []config.LayerConfig{edge, fog}
	} else {
		cloud := config.LayerConfig{Name: "cloud", Services: []config.ServiceConfig{engineSvc}}
		layers = []config.LayerConfig{edge, fog, cloud}
	}
	var rules []config.NetworkRule
	for _, g := range d.Gateways {
		if g.DelayMS > 0 || g.RateGbps > 0 || g.LossPct > 0 {
			rules = append(rules, config.NetworkRule{
				Src: "edge", Dst: "fog", DelayMS: g.DelayMS,
				RateGbps: g.RateGbps, LossPct: g.LossPct, Symmetric: true,
			})
		}
	}
	rules = append(rules, d.Degradation...)
	return &config.Scenario{Name: d.Name, NetworkModel: d.networkModelName(),
		Layers: layers, Network: rules}, nil
}

// networkModelName is the resolved, explicit model name ("analytical",
// "simulated", or "packet") — what tables, archives, and resumed Results
// report.
func (s Scenario) networkModelName() string {
	switch s.withDefaults().NetworkModel {
	case "simulated":
		return "simulated"
	case "packet":
		return "packet"
	}
	return "analytical"
}

// simulatesNetwork reports whether the resolved model folds the request
// path into the event kernel ("simulated" or "packet").
func (s Scenario) simulatesNetwork() bool {
	m := s.withDefaults().NetworkModel
	return m == "simulated" || m == "packet"
}

// toNetemRules converts config-form rules to the netem form.
func toNetemRules(rules []config.NetworkRule) []netem.Rule {
	out := make([]netem.Rule, len(rules))
	for i, r := range rules {
		out[i] = netem.Rule{Src: r.Src, Dst: r.Dst, DelayMS: r.DelayMS,
			RateGbps: r.RateGbps, LossPct: r.LossPct, Symmetric: r.Symmetric}
	}
	return out
}

// classNetwork builds the netem network one gateway class experiences: its
// own uplink on the edge hop, plus the scenario-wide degradation rules.
func (s Scenario) classNetwork(g GatewayClass) *netem.Network {
	rules := append([]netem.Rule{{
		Src: "edge", Dst: "fog", DelayMS: g.DelayMS,
		RateGbps: g.RateGbps, LossPct: g.LossPct, Symmetric: true,
	}}, toNetemRules(s.Degradation)...)
	return netem.New(rules...)
}

// networkModel lowers the scenario's topology and netem rules to the
// simulated-network form the engine consumes: each gateway becomes its own
// uplink contention domain on the edge hop (class uplink composed with the
// degradation rules, one link per direction), and — for a cloud placement —
// the fog->cloud hop becomes a single backhaul chain shared by every
// request, which is where a congested backbone queues. Unconstrained hops
// are elided (they are priced at exactly zero by both models).
func (s Scenario) networkModel() *plantnet.NetworkModel {
	d := s.withDefaults()
	m := &plantnet.NetworkModel{UploadBytes: d.UploadBytes, ResponseBytes: d.ResponseBytes}
	for _, g := range d.Gateways {
		n := d.classNetwork(g)
		m.Classes = append(m.Classes, plantnet.NetworkClass{
			Gateways: g.Count,
			Up:       n.Lower("edge", "fog"),
			Down:     n.Lower("fog", "edge"),
		})
	}
	if d.EngineLayer != "fog" {
		// Per-class uplink rules only touch the edge hop, so the shared
		// backhaul is fully described by the degradation rules.
		deg := netem.New(toNetemRules(d.Degradation)...)
		m.BackhaulUp = []netem.LinkSpec{deg.Lower("fog", "cloud")}
		m.BackhaulDown = []netem.LinkSpec{deg.Lower("cloud", "fog")}
	}
	if d.NetworkModel == "packet" {
		m.Packet = true
	}
	return m
}

// NetworkOverheadSeconds returns the expected per-request network time —
// the 1.2 MB photo travelling up the continuum path and the identification
// result coming back — averaged over gateway classes weighted by gateway
// count. It is +Inf when any class's path is fully lossy (see
// netem.TransferSeconds), in which case the scenario is unreachable.
func (s Scenario) NetworkOverheadSeconds() float64 {
	d := s.withDefaults()
	total := d.TotalGateways()
	if total == 0 {
		return 0
	}
	var overhead float64
	for _, g := range d.Gateways {
		n := d.classNetwork(g)
		var t float64
		for _, hop := range d.path() {
			t += n.TransferSeconds(hop[0], hop[1], d.UploadBytes)
			t += n.TransferSeconds(hop[1], hop[0], d.ResponseBytes)
		}
		overhead += t * float64(g.Count) / float64(total)
	}
	return overhead
}

// Result is one executed scenario's aggregate, the row unit of the
// cross-scenario comparison tables. Every field is finite (unreachable or
// sample-free scenarios fail with an error instead), so Results round-trip
// bit-exactly through the JSON checkpoint. Fields may only be ints, int64s,
// float64s, strings derived from the spec, or structs of those (see
// resultLayout).
type Result struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	Gateways int    `json:"gateways"`
	Clients  int    `json:"clients"`
	Phases   int    `json:"phases"`
	// NetModel is the resolved network model the scenario ran under
	// ("analytical", "simulated" or "packet"); like Name it is derived
	// from the spec, not stored in checkpoints (the fingerprint pins the
	// spec).
	NetModel string `json:"net_model,omitempty"`

	// EngineResp pools every post-warmup response-time sample across
	// phases and repeats. Analytical mode: engine-side only, excluding the
	// network path. Simulated mode: the full user-observed time — requests
	// cross the simulated links inside the run.
	EngineResp stats.Summary `json:"engine_resp"`
	// NetOverheadSec is the closed-form expected per-request network time.
	// In simulated mode it is reported for comparison only (the measured
	// samples already include the network, queueing and all).
	NetOverheadSec float64 `json:"net_overhead_sec"`
	// RespMean is the user-observed mean: engine + network overhead in
	// analytical mode, the pooled sample mean in simulated mode.
	RespMean float64 `json:"resp_mean"`
	// RespP95 is the duration-weighted mean of per-run engine p95s.
	RespP95 float64 `json:"resp_p95"`
	// Throughput is the duration-weighted completions/s.
	Throughput float64 `json:"throughput"`
	Completed  int     `json:"completed"`

	// Outcomes sums the request-outcome counters (fault and resilience
	// policy) across phases and repeats; all zero when the scenario
	// injects no faults and applies no policy. See plantnet.Outcomes for
	// the taxonomy.
	plantnet.Outcomes
	// Goodput is the duration-weighted post-warmup completions/s whose
	// response met the policy timeout (== Throughput with no policy);
	// Availability is completed / (completed + failed), 1 when nothing
	// failed — the availability-SLO fraction the resilience layer targets.
	Goodput      float64 `json:"goodput"`
	Availability float64 `json:"availability"`
}

// repeatParallelism bounds each phase's RunRepeated pool. Repeats run
// sequentially: the suite pool is the parallelism knob, and nesting a
// repeat pool inside every suite worker would oversubscribe.
const repeatParallelism = 1

// Run executes the scenario: every workload phase (or, for a continuous
// shape, the single piecewise-rate run) executes plantnet.RunRepeated with
// a seed derived from `seed`, and results aggregate in phase order — the
// Result is a pure function of (scenario, seed). One plantnet.Runner is
// carried across the phases, so engine setup is paid once per scenario.
func (s Scenario) Run(seed int64) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d := s.withDefaults()
	// The closed-form path cost: the response-time addend in analytical
	// mode, a reported reference in simulated mode — and, in both, the
	// reachability gate (+Inf means some class's path composes to total
	// loss; simulating it would strand every request on a black-hole link).
	overhead := d.NetworkOverheadSeconds()
	if math.IsInf(overhead, 1) {
		return nil, fmt.Errorf("scenario %q: unreachable — a gateway class's path composes to 100%% loss", d.Name)
	}
	var netmod *plantnet.NetworkModel
	if d.simulatesNetwork() {
		netmod = d.networkModel()
	}
	phases := d.Workload.Expand(d.Clients(), d.DurationSeconds)
	phaseCount := len(phases)
	seeder := rngutil.NewSeeder(seed + 31)
	runner := plantnet.NewRunner()
	// One engine run per phase — or one continuous run when the shape
	// carries queue state across its phase boundaries (or is a trace).
	type phaseRun struct {
		clients  int
		arrivals *workload.PiecewiseRate
		duration float64
	}
	var runs []phaseRun
	if d.Workload.continuous() {
		var pr *workload.PiecewiseRate
		if d.Workload.kind() == "trace" {
			pr = d.Workload.Trace.Rates()
			phaseCount = len(d.Workload.Trace.Counts)
		} else {
			rpc := d.Workload.RatePerClient
			if rpc <= 0 {
				// Calibration draws its probe seed before the phase seeds,
				// so explicit-rate and calibrated scenarios stay pure
				// functions of (spec, seed).
				cal, err := d.calibrateRate(runner, netmod, seeder.Next())
				if err != nil {
					return nil, fmt.Errorf("scenario %q: calibrating rate: %w", d.Name, err)
				}
				rpc = cal
			}
			pr = d.Workload.rates(phases, rpc)
		}
		runs = []phaseRun{{arrivals: pr, duration: d.DurationSeconds}}
	} else {
		for _, ph := range phases {
			runs = append(runs, phaseRun{clients: ph.Clients, duration: ph.DurationSeconds})
		}
	}
	// Phased workloads lower the fault schedule ONCE onto the scenario's
	// wall-clock timeline and slice it into per-phase windows, so a crash
	// scheduled at t=400 of a 3x300s diurnal shape lands mid-phase-2
	// instead of replaying relative to every phase's own t=0. The
	// dedicated compile seed is drawn before the phase seeds (mirroring
	// the engine's Seed+307 convention), and repeats of a phase replay the
	// same realization — one timeline per scenario execution.
	var fwin [][]fault.Event
	if !d.Faults.IsZero() && len(runs) > 1 {
		durs := make([]float64, len(runs))
		var total float64
		for i, pr := range runs {
			durs[i] = pr.duration
			total += pr.duration
		}
		ngw := 0
		if netmod != nil {
			ngw = d.TotalGateways()
		}
		tl := fault.Compile(d.Faults, seeder.Next()+307, total, ngw)
		fwin = fault.Windows(tl, durs)
	}
	var pooled stats.Welford
	var thrSec, p95Sec, goodSec, elapsed float64
	completed := 0
	var out plantnet.Outcomes
	for i, pr := range runs {
		opts := plantnet.RunOptions{
			Pools:          d.Pools,
			Clients:        pr.clients,
			Arrivals:       pr.arrivals,
			Network:        netmod,
			Shards:         d.Shards,
			Replicas:       d.Replicas,
			Faults:         d.Faults,
			Resilience:     d.Resilience,
			Duration:       pr.duration,
			Warmup:         math.Min(60, pr.duration/5),
			SampleInterval: math.Min(10, pr.duration/10),
			MaxParallel:    repeatParallelism,
			Seed:           seeder.Next(),
		}
		if fwin != nil {
			opts.FaultTimeline = fwin[i]
		}
		rep, err := runner.RunRepeated(opts, d.Repeats)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", d.Name, err)
		}
		for _, m := range rep.Runs {
			for _, sample := range m.Samples {
				if !math.IsNaN(sample.RespTime) {
					pooled.Add(sample.RespTime)
				}
			}
			p95Sec += m.RespP95 * pr.duration
			goodSec += m.Goodput * pr.duration
			completed += m.Completed
			out.Add(m.Outcomes)
		}
		thrSec += rep.Throughput * pr.duration
		elapsed += pr.duration
	}
	// Fewer than two samples would leave NaNs (StdDev) in the Result,
	// which the JSON checkpoint cannot represent.
	if pooled.N() < 2 {
		return nil, fmt.Errorf("scenario %q: %d post-warmup samples (duration too short?)", d.Name, pooled.N())
	}
	engine := pooled.Snapshot()
	respMean := engine.Mean + overhead
	if netmod != nil {
		// Simulated mode measures the network inside the run; adding the
		// closed form on top would double-count it.
		respMean = engine.Mean
	}
	availability := 1.0
	if failed := int(out.FailedRequests); completed+failed > 0 {
		availability = float64(completed) / float64(completed+failed)
	}
	return &Result{
		Name:           d.Name,
		Gateways:       d.TotalGateways(),
		Clients:        d.Clients(),
		Phases:         phaseCount,
		NetModel:       d.networkModelName(),
		EngineResp:     engine,
		NetOverheadSec: overhead,
		RespMean:       respMean,
		RespP95:        p95Sec / (elapsed * float64(d.Repeats)),
		Throughput:     thrSec / elapsed,
		Completed:      completed,
		Outcomes:       out,
		Goodput:        goodSec / (elapsed * float64(d.Repeats)),
		Availability:   availability,
	}, nil
}

// calibrateRate measures the per-client request rate this configuration
// actually sustains: a short healthy closed-loop probe (same pools,
// replicas, and network model; no faults) whose throughput divided by the
// population becomes the continuous lowering's RatePerClient. The probe
// runs on the scenario's own Runner and draws a dedicated seed, so the
// calibrated rate — and everything downstream of it — is deterministic in
// (spec, seed). Falls back to 0.35 req/s (the baseline engine's inverse
// ~2.8 s cycle) if the probe completes nothing.
func (d Scenario) calibrateRate(runner *plantnet.Runner, netmod *plantnet.NetworkModel, seed int64) (float64, error) {
	probe := plantnet.RunOptions{
		Pools:    d.Pools,
		Clients:  d.Clients(),
		Network:  netmod,
		Replicas: d.Replicas,
		Duration: 120,
		Warmup:   30,
		Seed:     seed,
	}
	m, err := runner.Run(probe)
	if err != nil {
		return 0, err
	}
	if m.Throughput <= 0 {
		return 0.35, nil
	}
	return m.Throughput / float64(d.Clients()), nil
}
