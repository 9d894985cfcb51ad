//! Service-time model: turns a model's analytic characterization into
//! CPU-request and GPU-query latencies.

use crate::{CpuPlatform, GpuPlatform};
use drs_models::characterize::{characterize, Characterization};
use drs_models::{ModelConfig, PoolingKind, TableRole};

/// Software-stack slowdown of *GEMM-like compute* versus the roofline.
///
/// The analytic FLOP counts assume perfectly fused kernels at SIMD
/// peak; the paper's stack (Caffe2 + MKL) dispatches per-operator and
/// materializes intermediates, but MKL GEMMs themselves run close to
/// peak — a modest 2× tax.
pub const SW_COMPUTE_FACTOR: f64 = 2.0;

/// Software-stack slowdown of *memory-bound work* (embedding gathers,
/// weight/activation streaming, host-side tensor serialization) versus
/// the bandwidth roofline.
///
/// Framework gather/pool operators reach only a fraction of stream
/// bandwidth (pointer chasing, per-row bounds checks, no software
/// prefetch), so the tax here is much larger than on GEMMs. Together
/// with [`SW_COMPUTE_FACTOR`] this calibrates absolute service times
/// into the paper's range: DLRM capacities land at
/// hundreds-to-thousands of QPS per 40-core node (Figure 9's axis) and
/// tail-latency SLAs of tens of milliseconds genuinely constrain
/// scheduling — which is what makes the Low/Medium/High tier axis
/// meaningful.
pub const SW_MEMORY_FACTOR: f64 = 5.0;

/// How efficiently a model's kernels map onto the GPU.
///
/// Derived from the model's structure, this captures the paper's
/// observation that speedups differ sharply "between different classes
/// of recommendation models" (Figure 4): dense GEMM stacks saturate the
/// device, embedding gathers are bandwidth-limited and launch-heavy,
/// and attention/GRU models dispatch many small, poorly-occupying
/// kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuClass {
    /// GEMM-dominated models (NCF, WnD, MT-WnD, DLRM-RMC3).
    Compute,
    /// Embedding-gather-dominated models (DLRM-RMC1/2).
    Memory,
    /// Attention / recurrent models (DIN, DIEN).
    Attention,
}

impl GpuClass {
    /// Fraction of device peak FLOP/s this class reaches at full
    /// occupancy.
    fn flops_efficiency(self) -> f64 {
        match self {
            GpuClass::Compute => 1.0,
            GpuClass::Memory => 0.8,
            GpuClass::Attention => 0.15,
        }
    }

    /// Multiplier on the device's gather bandwidth.
    fn gather_bw_scale(self) -> f64 {
        match self {
            GpuClass::Compute | GpuClass::Memory => 1.0,
            GpuClass::Attention => 1.0 / 3.0,
        }
    }
}

/// Precomputed service-time model for one recommendation model.
///
/// # Examples
///
/// ```
/// use drs_models::zoo;
/// use drs_platform::{CpuPlatform, GpuPlatform, ModelCost};
///
/// let cost = ModelCost::new(&zoo::dlrm_rmc1());
/// let cpu = CpuPlatform::skylake();
/// let t64 = cost.cpu_request_us(&cpu, 64, 1);
/// let t128 = cost.cpu_request_us(&cpu, 128, 1);
/// assert!(t128 > t64, "bigger batches take longer in absolute terms");
/// let gpu = GpuPlatform::gtx_1080ti();
/// assert!(cost.gpu_query_us(&cpu, &gpu, 1024) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ModelCost {
    name: &'static str,
    ch: Characterization,
    class: GpuClass,
    /// Distinct feature tensors serialized per item for GPU transfer.
    feature_tensors: f64,
    /// Host→device payload bytes per item (dense features + indices).
    input_bytes_per_item: f64,
    /// Ordinary kernel launches per inference.
    plain_kernels: f64,
    /// Embedding-table kernel launches per inference.
    table_kernels: f64,
}

impl ModelCost {
    /// Builds the cost model from a paper-scale configuration.
    pub fn new(cfg: &ModelConfig) -> Self {
        let ch = characterize(cfg);
        let class = if matches!(
            cfg.pooling,
            PoolingKind::Attention | PoolingKind::AttentionRnn
        ) {
            GpuClass::Attention
        } else if ch.sparse_byte_fraction(64) > 0.5 {
            GpuClass::Memory
        } else {
            GpuClass::Compute
        };

        let dense_bytes = 4.0 * cfg.dense_input_dim as f64;
        let idx_bytes: f64 = cfg.tables.iter().map(|t| 4.0 * t.lookups as f64).sum();
        let feature_tensors =
            (if cfg.dense_input_dim > 0 { 1.0 } else { 0.0 }) + cfg.tables.len() as f64;

        let mut plain_kernels = 1.0; // feature interaction
        plain_kernels += cfg.dense_fc.len() as f64;
        plain_kernels += (cfg.num_tasks * cfg.predict_fc.len()) as f64;
        if matches!(
            cfg.pooling,
            PoolingKind::Attention | PoolingKind::AttentionRnn
        ) {
            let behaviors = cfg
                .tables
                .iter()
                .filter(|t| t.role == TableRole::Behavior)
                .count() as f64;
            plain_kernels += 3.0 * behaviors; // pair features, scorer, pool
        }
        if cfg.pooling == PoolingKind::AttentionRnn {
            // Two recurrent layers (GRU + AUGRU), ~3 gate kernels each
            // per timestep — sequential launches dominate DIEN on GPU.
            plain_kernels += 2.0 * 3.0 * cfg.seq_len() as f64;
        }

        ModelCost {
            name: cfg.name,
            ch,
            class,
            feature_tensors,
            input_bytes_per_item: dense_bytes + idx_bytes,
            plain_kernels,
            table_kernels: cfg.tables.len() as f64,
        }
    }

    /// Model name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The GPU efficiency class this model was assigned.
    pub fn gpu_class(&self) -> GpuClass {
        self.class
    }

    /// The underlying analytic characterization.
    pub fn characterization(&self) -> &Characterization {
        &self.ch
    }

    /// Service time of one CPU request of `batch` items on a single
    /// worker core, in microseconds, with `active_cores` cores currently
    /// busy machine-wide (contention).
    ///
    /// `fixed overhead + compute/(peak·simd_eff·freq) + gathers/DRAM
    /// share + (weights+activations)/LLC` — see DESIGN.md §6.1.
    pub fn cpu_request_us(&self, cpu: &CpuPlatform, batch: usize, active_cores: usize) -> f64 {
        let batch = batch.max(1);
        let eff = cpu.simd_efficiency(batch) * cpu.freq_scale(active_cores);
        let t_compute = self.ch.flops(batch) / (cpu.peak_core_gflops() * 1e3 * eff);
        let t_gather = self.ch.emb_bytes_per_item * batch as f64
            / (cpu.per_core_dram_bw(active_cores) * cpu.gather_efficiency(batch) * 1e3);
        let t_stream = (self.ch.weight_bytes + self.ch.act_bytes_per_item * batch as f64)
            / (cpu.llc_effective_bw(active_cores) * 1e3);
        cpu.request_overhead_us
            + SW_COMPUTE_FACTOR * t_compute
            + SW_MEMORY_FACTOR * (t_gather + t_stream)
    }

    /// Service time of one *shard-partial* CPU request of `batch`
    /// items on a node holding `gather_fraction` of the model's
    /// embedding traffic: the fixed serving overhead plus that share
    /// of the irregular gather term. The dense stacks are not paid
    /// here — a table-wise shard only gathers and pools its local
    /// tables; the merging node runs the dense tail once per query
    /// ([`ModelCost::dense_tail_us`]).
    ///
    /// At `gather_fraction = 1.0` plus the dense tail this is exactly
    /// [`ModelCost::cpu_request_us`] on an uncontended core (tested),
    /// so sharded and unsharded service models cannot drift apart.
    ///
    /// # Panics
    ///
    /// Panics if `gather_fraction` is outside `[0, 1]`.
    pub fn shard_gather_request_us(
        &self,
        cpu: &CpuPlatform,
        batch: usize,
        active_cores: usize,
        gather_fraction: f64,
    ) -> f64 {
        assert!(
            (0.0..=1.0).contains(&gather_fraction),
            "gather fraction {gather_fraction} outside [0, 1]"
        );
        let batch = batch.max(1);
        let t_gather = self.ch.emb_bytes_per_item * gather_fraction * batch as f64
            / (cpu.per_core_dram_bw(active_cores) * cpu.gather_efficiency(batch) * 1e3);
        cpu.request_overhead_us + SW_MEMORY_FACTOR * t_gather
    }

    /// The dense tail of a sharded query: compute plus
    /// weight/activation streaming, run once at the merging node after
    /// the exchange delivers the pooled partials. Modeled as a single
    /// uncontended pass (the merge node's workers are gathering other
    /// queries, not blocking on this tail).
    pub fn dense_tail_us(&self, cpu: &CpuPlatform, batch: usize) -> f64 {
        let batch = batch.max(1);
        let eff = cpu.simd_efficiency(batch) * cpu.freq_scale(1);
        let t_compute = self.ch.flops(batch) / (cpu.peak_core_gflops() * 1e3 * eff);
        let t_stream = (self.ch.weight_bytes + self.ch.act_bytes_per_item * batch as f64)
            / (cpu.llc_effective_bw(1) * 1e3);
        SW_COMPUTE_FACTOR * t_compute + SW_MEMORY_FACTOR * t_stream
    }

    /// End-to-end time to run one whole query of `qsize` items on the
    /// GPU, in microseconds: host serving overhead, per-item tensor
    /// preparation, PCIe transfer, kernel launches, device compute and
    /// memory.
    pub fn gpu_query_us(&self, cpu: &CpuPlatform, gpu: &GpuPlatform, qsize: usize) -> f64 {
        let q = qsize.max(1);
        cpu.request_overhead_us + self.gpu_data_us(gpu, q) + self.gpu_device_us(gpu, q)
    }

    /// The data-loading component (host prep + PCIe) of a GPU query, µs.
    pub fn gpu_data_us(&self, gpu: &GpuPlatform, qsize: usize) -> f64 {
        let q = qsize.max(1) as f64;
        let prep = gpu.serialize_fixed_us + self.feature_tensors * gpu.prep_us_per_feature_item * q;
        let transfer = gpu.pcie_lat_us + self.input_bytes_per_item * q / (gpu.pcie_bw_gbs * 1e3);
        // Host-side serialization runs in the same slow framework stack
        // as CPU inference; PCIe wire time does not scale with it.
        SW_MEMORY_FACTOR * prep + transfer
    }

    /// The device component (launches + compute + memory) of a GPU
    /// query, µs.
    pub fn gpu_device_us(&self, gpu: &GpuPlatform, qsize: usize) -> f64 {
        let q = qsize.max(1);
        let launch =
            self.plain_kernels * gpu.kernel_launch_us + self.table_kernels * gpu.table_kernel_us;
        let eff = self.class.flops_efficiency() * gpu.occupancy(q);
        let t_flops = self.ch.flops(q) / (gpu.peak_gflops * 1e3 * eff);
        let t_gather = self.ch.emb_bytes_per_item * q as f64
            / (gpu.gather_bw_gbs * self.class.gather_bw_scale() * 1e3);
        let t_stream =
            (self.ch.weight_bytes + self.ch.act_bytes_per_item * q as f64) / (gpu.mem_bw_gbs * 1e3);
        SW_COMPUTE_FACTOR * (launch + t_flops) + SW_MEMORY_FACTOR * (t_gather + t_stream)
    }

    /// Fraction of a GPU query's end-to-end time spent on data loading —
    /// the Figure 4 observation ("60–80 % across models").
    pub fn gpu_data_fraction(&self, cpu: &CpuPlatform, gpu: &GpuPlatform, qsize: usize) -> f64 {
        self.gpu_data_us(gpu, qsize) / self.gpu_query_us(cpu, gpu, qsize)
    }

    /// GPU speedup over a single CPU core at a given batch size
    /// (Figure 4's y-axis).
    pub fn gpu_speedup(&self, cpu: &CpuPlatform, gpu: &GpuPlatform, batch: usize) -> f64 {
        self.cpu_request_us(cpu, batch, 1) / self.gpu_query_us(cpu, gpu, batch)
    }

    /// Smallest batch size in `[1, 1024]` at which the GPU outperforms
    /// a single CPU core (Figure 4's annotated crossover), or `None` if
    /// the GPU never wins.
    pub fn gpu_crossover_batch(&self, cpu: &CpuPlatform, gpu: &GpuPlatform) -> Option<u32> {
        (0..=10u32)
            .map(|p| 1u32 << p)
            .find(|&b| self.gpu_speedup(cpu, gpu, b as usize) >= 1.0)
            .map(|hi| {
                // Refine within (hi/2, hi].
                let mut lo = hi / 2;
                let mut hi = hi;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if self.gpu_speedup(cpu, gpu, mid as usize) >= 1.0 {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                hi
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_models::zoo;

    fn cost(cfg: &ModelConfig) -> ModelCost {
        ModelCost::new(cfg)
    }

    fn skl() -> CpuPlatform {
        CpuPlatform::skylake()
    }

    fn gpu() -> GpuPlatform {
        GpuPlatform::gtx_1080ti()
    }

    #[test]
    fn classes_assigned_by_structure() {
        assert_eq!(cost(&zoo::wide_and_deep()).gpu_class(), GpuClass::Compute);
        assert_eq!(cost(&zoo::ncf()).gpu_class(), GpuClass::Compute);
        assert_eq!(cost(&zoo::dlrm_rmc3()).gpu_class(), GpuClass::Compute);
        assert_eq!(cost(&zoo::dlrm_rmc1()).gpu_class(), GpuClass::Memory);
        assert_eq!(cost(&zoo::dlrm_rmc2()).gpu_class(), GpuClass::Memory);
        assert_eq!(cost(&zoo::din()).gpu_class(), GpuClass::Attention);
        assert_eq!(cost(&zoo::dien()).gpu_class(), GpuClass::Attention);
    }

    #[test]
    fn cpu_time_monotone_in_batch() {
        for cfg in zoo::all() {
            let c = cost(&cfg);
            let mut prev = 0.0;
            for b in [1, 2, 4, 16, 64, 256, 1024] {
                let t = c.cpu_request_us(&skl(), b, 1);
                assert!(t > prev, "{} batch {b}", cfg.name);
                prev = t;
            }
        }
    }

    #[test]
    fn cpu_per_item_cost_improves_with_batch() {
        // Amortization: per-item time at batch 64 and 256 beats batch 1.
        for cfg in zoo::all() {
            let c = cost(&cfg);
            let t1 = c.cpu_request_us(&skl(), 1, 1);
            for b in [64, 256] {
                let per_item = c.cpu_request_us(&skl(), b, 1) / b as f64;
                assert!(per_item < t1, "{} batch {b}", cfg.name);
            }
        }
    }

    #[test]
    fn cpu_contention_slows_requests() {
        for cfg in zoo::all() {
            let c = cost(&cfg);
            let quiet = c.cpu_request_us(&skl(), 64, 1);
            let busy = c.cpu_request_us(&skl(), 64, 40);
            assert!(busy > quiet, "{}", cfg.name);
        }
    }

    #[test]
    fn broadwell_contention_worse_for_memory_bound() {
        // The Figure 12c mechanism: going fully request-parallel hurts
        // Broadwell (inclusive LLC) more than Skylake on an
        // embedding-bound model.
        let c = cost(&zoo::dlrm_rmc1());
        let skl_ratio = c.cpu_request_us(&skl(), 64, 40) / c.cpu_request_us(&skl(), 64, 1);
        let bdw = CpuPlatform::broadwell();
        let bdw_ratio = c.cpu_request_us(&bdw, 64, 28) / c.cpu_request_us(&bdw, 64, 1);
        assert!(
            bdw_ratio > skl_ratio,
            "Broadwell {bdw_ratio:.2}x vs Skylake {skl_ratio:.2}x"
        );
    }

    #[test]
    fn every_model_crosses_over_by_1024() {
        // Figure 6: "GPUs readily accelerate larger queries" — every
        // model eventually wins on the device.
        for cfg in zoo::all() {
            let x = cost(&cfg).gpu_crossover_batch(&skl(), &gpu());
            assert!(x.is_some(), "{} never crosses", cfg.name);
            assert!(x.unwrap() <= 1024, "{}", cfg.name);
        }
    }

    #[test]
    fn crossover_ordering_compute_before_memory_and_launchbound() {
        // Figure 4: "the batch-size at which GPUs start to outperform
        // CPUs … varies widely": compute-heavy models cross early;
        // embedding- and launch-bound models cross late.
        let x = |cfg: &ModelConfig| cost(cfg).gpu_crossover_batch(&skl(), &gpu()).unwrap();
        let wnd = x(&zoo::wide_and_deep());
        let rmc3 = x(&zoo::dlrm_rmc3());
        let rmc1 = x(&zoo::dlrm_rmc1());
        let rmc2 = x(&zoo::dlrm_rmc2());
        let ncf = x(&zoo::ncf());
        let dien = x(&zoo::dien());
        assert!(wnd <= 16, "WND crossover {wnd}");
        assert!(rmc3 <= 16, "RMC3 crossover {rmc3}");
        assert!(rmc2 > rmc3, "RMC2 {rmc2} vs RMC3 {rmc3}");
        assert!(rmc1 > rmc3, "RMC1 {rmc1} vs RMC3 {rmc3}");
        assert!(ncf >= 32, "NCF crossover {ncf} (tiny model, fixed costs)");
        assert!(dien >= 64, "DIEN crossover {dien} (launch-bound)");
    }

    #[test]
    fn large_batch_speedups_in_paper_band() {
        // Figure 4/6: significant but bounded GPU wins at batch 1024,
        // largest for the compute-intensive WnD family.
        let mut speedups = Vec::new();
        for cfg in zoo::all() {
            let s = cost(&cfg).gpu_speedup(&skl(), &gpu(), 1024);
            assert!(s > 1.2, "{}: speedup {s}", cfg.name);
            assert!(s < 40.0, "{}: speedup {s}", cfg.name);
            speedups.push((cfg.name, s));
        }
        let max = speedups
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!(
            max.0 == "WND" || max.0 == "MT-WND",
            "expected WnD family fastest on GPU, got {max:?}"
        );
    }

    #[test]
    fn data_loading_dominates_gpu_time() {
        // Section III-A3: data loading is 60–80 % of GPU inference time
        // on average across models.
        let fracs: Vec<f64> = zoo::all()
            .iter()
            .map(|cfg| cost(cfg).gpu_data_fraction(&skl(), &gpu(), 256))
            .collect();
        for (cfg, f) in zoo::all().iter().zip(&fracs) {
            assert!((0.2..0.95).contains(f), "{}: data fraction {f}", cfg.name);
        }
        let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
        assert!((0.45..0.85).contains(&mean), "mean data fraction {mean}");
    }

    #[test]
    fn speedup_grows_with_batch_for_compute_models() {
        let c = cost(&zoo::wide_and_deep());
        let s8 = c.gpu_speedup(&skl(), &gpu(), 8);
        let s1024 = c.gpu_speedup(&skl(), &gpu(), 1024);
        assert!(s1024 > s8, "{s8} → {s1024}");
    }

    #[test]
    fn shard_terms_recompose_to_full_request() {
        // gather(frac=1) + dense tail == the unsharded request on an
        // uncontended core, for every model and several batch sizes:
        // the sharded service model cannot drift from the real one.
        for cfg in zoo::all() {
            let c = cost(&cfg);
            for b in [1usize, 16, 64, 256] {
                let whole = c.cpu_request_us(&skl(), b, 1);
                let recomposed =
                    c.shard_gather_request_us(&skl(), b, 1, 1.0) + c.dense_tail_us(&skl(), b);
                assert!(
                    (whole - recomposed).abs() < 1e-9 * whole,
                    "{} batch {b}: {whole} vs {recomposed}",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn shard_gather_scales_with_fraction() {
        let c = cost(&zoo::dlrm_rmc2());
        let full = c.shard_gather_request_us(&skl(), 64, 1, 1.0);
        let half = c.shard_gather_request_us(&skl(), 64, 1, 0.5);
        let none = c.shard_gather_request_us(&skl(), 64, 1, 0.0);
        assert!(full > half && half > none);
        assert!(
            (none - skl().request_overhead_us).abs() < 1e-12,
            "zero-fraction shard pays only the serving overhead"
        );
        // The gather term itself halves exactly.
        assert!((full - none - 2.0 * (half - none)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_gather_fraction_rejected() {
        let _ = cost(&zoo::dlrm_rmc1()).shard_gather_request_us(&skl(), 64, 1, 1.5);
    }

    #[test]
    fn crossover_refinement_is_tight() {
        // The refined crossover b satisfies speedup(b) >= 1 > speedup(b-1).
        for cfg in zoo::all() {
            let c = cost(&cfg);
            if let Some(b) = c.gpu_crossover_batch(&skl(), &gpu()) {
                assert!(
                    c.gpu_speedup(&skl(), &gpu(), b as usize) >= 1.0,
                    "{}",
                    cfg.name
                );
                if b > 1 {
                    assert!(
                        c.gpu_speedup(&skl(), &gpu(), (b - 1) as usize) < 1.0,
                        "{} crossover {b} not tight",
                        cfg.name
                    );
                }
            }
        }
    }
}
