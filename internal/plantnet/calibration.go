package plantnet

import "e2clab/internal/sim"

// Calibration fixes the engine model's free parameters. The defaults are
// chosen so the simulated engine matches the paper's measurements in shape
// and approximate magnitude:
//
//   - Baseline (40/40/7/40) at 80 simultaneous requests is HTTP-pool bound:
//     in-engine time ≈ 1.35 s, throughput ≈ 40/1.35 ≈ 30 req/s, user
//     response time ≈ 80/30 ≈ 2.7 s (paper: 2.657 ± 0.091).
//   - The GPU's aggregate inference throughput peaks at GPUSatConcurrency
//     concurrent inferences and degrades slowly beyond it
//     (GPUOversubPenalty), so extract=6 maximizes throughput and
//     extract=7..9 trade latency for nothing — Figure 9's minimum at 6.
//   - Each extract-pool worker pins ExtractThreadCPU cores of busy-polling
//     and tensor-marshaling overhead whether or not an inference is in
//     flight, so extract=8,9 push the CPU to saturation and inflate the
//     simsearch task time — the paper's explanation of Figure 9b/9c.
//   - Simsearch is part CPU (slowed by contention) and part index I/O
//     (not), which yields the ~50-60% simsearch-pool busy time of
//     Figure 9g at 53 threads.
type Calibration struct {
	// CPU work, in core-seconds, of the HTTP-pool tasks of Table I.
	PreProcessWork  sim.Dist
	ProcessWork     sim.Dist
	PostProcessWork sim.Dist

	// DownloadTime is the image-download I/O time; DownloadCPUWeight is the
	// CPU share held while a download is in flight.
	DownloadTime      sim.Dist
	DownloadCPUWeight float64

	// ExtractWork is the DNN inference work in GPU units; the GPU delivers
	// GPURate units/s in aggregate at saturation, reached at
	// GPUSatConcurrency concurrent inferences. Beyond saturation, aggregate
	// throughput degrades by a factor 1/(1 + GPUOversubPenalty*(k-sat)).
	ExtractWork       sim.Dist
	GPURate           float64
	GPUSatConcurrency float64
	GPUOversubPenalty float64
	// ExtractThreadCPU is the pinned per-extract-pool-thread CPU overhead
	// (cores) for busy polling and tensor marshaling.
	ExtractThreadCPU float64

	// Simsearch: CPU phase (contended) followed by index I/O (not).
	SimsearchCPUWork sim.Dist
	SimsearchIOTime  sim.Dist

	// Memory model (GB): static functions of the configuration, matching
	// the paper's observation that GPU and system memory grow with the
	// extract pool size and stay constant during execution.
	GPUMemBaseGB      float64
	GPUMemPerThreadGB float64
	SysMemBaseGB      float64
	SysMemPerExtract  float64
	SysMemPerThread   float64

	// NetworkRTT is the client<->engine round-trip on the testbed network.
	NetworkRTT float64

	// Power model (Watts). Power = idle + slope * utilization, per device.
	// The paper reports a GPU power draw between 50 and 80 W with GPU
	// utilization 35-60% (nvidia-smi's kernels-executing metric); our
	// utilization is delivered-throughput/peak, so the slope is fitted to
	// land in the same band under load.
	GPUIdlePowerW  float64
	GPUPowerSlopeW float64
	CPUIdlePowerW  float64
	CPUPowerSlopeW float64
}

// DefaultCalibration returns the calibration used throughout the
// reproduction.
func DefaultCalibration() Calibration {
	return Calibration{
		PreProcessWork:  sim.NewLogNormal(0.012, 0.25),
		ProcessWork:     sim.NewLogNormal(0.035, 0.25),
		PostProcessWork: sim.NewLogNormal(0.012, 0.25),

		DownloadTime:      sim.NewLogNormal(0.22, 0.35),
		DownloadCPUWeight: 0.2,

		ExtractWork:       sim.NewLogNormal(1.0, 0.12),
		GPURate:           33.0,
		GPUSatConcurrency: 6,
		GPUOversubPenalty: 0.04,
		ExtractThreadCPU:  0.9,

		SimsearchCPUWork: sim.NewLogNormal(0.46, 0.25),
		SimsearchIOTime:  sim.NewLogNormal(0.33, 0.30),

		GPUMemBaseGB:      1.3,
		GPUMemPerThreadGB: 1.25,
		SysMemBaseGB:      6,
		SysMemPerExtract:  0.5,
		SysMemPerThread:   0.02,

		NetworkRTT: 0.004,

		GPUIdlePowerW:  28,
		GPUPowerSlopeW: 55,
		CPUIdlePowerW:  70,  // 2x Xeon Gold 6126, package idle
		CPUPowerSlopeW: 180, // up to ~250 W at full load
	}
}

// GPUMemGB returns the engine's GPU memory footprint for a configuration.
func (c Calibration) GPUMemGB(cfg PoolConfig) float64 {
	return c.GPUMemBaseGB + c.GPUMemPerThreadGB*float64(cfg.Extract)
}

// SysMemGB returns the engine container's system memory footprint.
func (c Calibration) SysMemGB(cfg PoolConfig) float64 {
	return c.SysMemBaseGB + c.SysMemPerExtract*float64(cfg.Extract) +
		c.SysMemPerThread*float64(cfg.HTTP+cfg.Download+cfg.Simsearch)
}
