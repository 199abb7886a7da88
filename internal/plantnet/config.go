// Package plantnet models the Pl@ntNet Identification Engine: the exact
// nine-task pipeline of Table I executing on the four thread pools of
// Table II, over a processor-sharing CPU and a limited-parallelism GPU.
//
// The real engine is a proprietary Docker service; this package is the
// calibrated discrete-event substitute. Its free parameters
// live in Calibration and are fixed so that the simulated engine reproduces
// the queueing phenomena the paper measures on Grid'5000 chifflot nodes:
// HTTP-pool-bound throughput at the baseline configuration, GPU saturation
// at ~6 concurrent inferences, CPU saturation when the extract pool grows
// to 8-9 threads, and the response-time optima at extract=6 / simsearch=55.
package plantnet

import "fmt"

// PoolConfig is a thread-pool configuration of the Identification Engine —
// the optimization variables of the paper's Equation 2.
type PoolConfig struct {
	HTTP      int // simultaneous requests being processed (CPU)
	Download  int // simultaneous images being downloaded (CPU)
	Extract   int // simultaneous inferences in a single GPU (GPU)
	Simsearch int // simultaneous similarity searches (CPU)
}

// Baseline is the production configuration of Table II, defined by
// Pl@ntNet engineers from practical experience.
var Baseline = PoolConfig{HTTP: 40, Download: 40, Extract: 7, Simsearch: 40}

// PreliminaryOptimum is the configuration found by the paper's Bayesian
// optimization methodology (Table III).
var PreliminaryOptimum = PoolConfig{HTTP: 54, Download: 54, Extract: 7, Simsearch: 53}

// RefinedOptimum is the configuration after OAT sensitivity analysis
// (Table IV): extract refined from 7 to 6.
var RefinedOptimum = PoolConfig{HTTP: 54, Download: 54, Extract: 6, Simsearch: 53}

// Validate checks pool sizes are positive.
func (c PoolConfig) Validate() error {
	if c.HTTP < 1 || c.Download < 1 || c.Extract < 1 || c.Simsearch < 1 {
		return fmt.Errorf("plantnet: invalid pool config %+v", c)
	}
	return nil
}

// Vector renders the configuration in the optimization-variable order of
// Equation 2: (http, download, simsearch, extract).
func (c PoolConfig) Vector() []float64 {
	return []float64{float64(c.HTTP), float64(c.Download), float64(c.Simsearch), float64(c.Extract)}
}

// FromVector builds a PoolConfig from the Equation 2 variable order.
func FromVector(x []float64) PoolConfig {
	return PoolConfig{
		HTTP:      int(x[0]),
		Download:  int(x[1]),
		Simsearch: int(x[2]),
		Extract:   int(x[3]),
	}
}

func (c PoolConfig) String() string {
	return fmt.Sprintf("http=%d download=%d extract=%d simsearch=%d", c.HTTP, c.Download, c.Extract, c.Simsearch)
}

// Hardware describes the node running the Identification Engine. Defaults
// follow Grid'5000 chifflot: 2x Xeon Gold 6126 (24 cores), one Tesla
// V100-PCIE-32GB.
type Hardware struct {
	CPUCores float64
	GPUMemGB float64
	SysMemGB float64
}

// Chifflot is the paper's engine node.
func Chifflot() Hardware { return Hardware{CPUCores: 24, GPUMemGB: 32, SysMemGB: 192} }

// TaskNames lists the identification processing steps of Table I, in
// execution order.
var TaskNames = []string{
	"pre-process",
	"wait-download",
	"download",
	"wait-extract",
	"extract",
	"process",
	"wait-simsearch",
	"simsearch",
	"post-process",
}
