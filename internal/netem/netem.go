// Package netem models E2Clab's network manager: user-defined communication
// constraints (latency, bandwidth, loss) between scenario layers, the way
// the real framework applies tc/netem rules between Edge, Fog, and Cloud
// machines ("network emulation to define Edge-to-Cloud communication
// constraints").
package netem

import (
	"fmt"
	"math"
)

// Rule constrains traffic from layer Src to layer Dst.
type Rule struct {
	Src, Dst string
	// DelayMS is the one-way added latency in milliseconds.
	DelayMS float64
	// RateGbps is the bandwidth cap in Gbit/s (0 = unlimited).
	RateGbps float64
	// LossPct is the packet-loss percentage.
	LossPct float64
	// Symmetric applies the rule in both directions.
	Symmetric bool
}

// Network is a set of rules over named layers.
type Network struct {
	rules []Rule
}

// New builds a network from rules.
func New(rules ...Rule) *Network { return &Network{rules: append([]Rule(nil), rules...)} }

// Validate checks that every rule references known layers and has sane
// parameters.
func (n *Network) Validate(layers []string) error {
	known := make(map[string]bool, len(layers))
	for _, l := range layers {
		known[l] = true
	}
	for i, r := range n.rules {
		if !known[r.Src] {
			return fmt.Errorf("netem: rule %d references unknown src layer %q", i, r.Src)
		}
		if !known[r.Dst] {
			return fmt.Errorf("netem: rule %d references unknown dst layer %q", i, r.Dst)
		}
		if r.DelayMS < 0 || r.LossPct < 0 || r.LossPct > 100 || r.RateGbps < 0 {
			return fmt.Errorf("netem: rule %d has invalid parameters %+v", i, r)
		}
	}
	return nil
}

// Between returns the effective rule from src to dst. Unmatched pairs get a
// zero Rule (no constraint). When several rules match, constraints compose:
// delays and losses add, the lowest non-zero rate wins.
func (n *Network) Between(src, dst string) Rule {
	out := Rule{Src: src, Dst: dst}
	for _, r := range n.rules {
		if (r.Src == src && r.Dst == dst) || (r.Symmetric && r.Src == dst && r.Dst == src) {
			out.DelayMS += r.DelayMS
			out.LossPct = 100 - (100-out.LossPct)*(100-r.LossPct)/100
			if r.RateGbps > 0 && (out.RateGbps == 0 || r.RateGbps < out.RateGbps) {
				out.RateGbps = r.RateGbps
			}
		}
	}
	return out
}

// TransferSeconds returns the expected time to move payloadBytes from src
// to dst: one-way delay plus serialization at the bandwidth cap, inflated
// by retransmissions at the loss rate. A fully lossy path (100% loss,
// possibly reached by composing Between rules) delivers nothing, so the
// expected transfer time is +Inf.
func (n *Network) TransferSeconds(src, dst string, payloadBytes float64) float64 {
	r := n.Between(src, dst)
	return transferSeconds(r.DelayMS/1000, r.RateGbps*1e9, r.LossPct, payloadBytes)
}

// transferSeconds is the closed-form expected transfer time shared by
// Network.TransferSeconds and LinkSpec.TransferSeconds: one-way delay plus
// serialization, inflated by geometric retransmission at the loss rate.
func transferSeconds(delaySec, rateBps, lossPct, payloadBytes float64) float64 {
	if lossPct >= 100 {
		return math.Inf(1)
	}
	t := delaySec
	if rateBps > 0 {
		t += payloadBytes * 8 / rateBps
	}
	if lossPct > 0 {
		t /= 1 - lossPct/100
	}
	if math.IsNaN(t) || t < 0 {
		return 0
	}
	return t
}

// Rules returns a copy of the rule set (for the provenance archive).
func (n *Network) Rules() []Rule { return append([]Rule(nil), n.rules...) }
