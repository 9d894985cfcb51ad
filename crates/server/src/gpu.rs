//! GPU offload executor: a virtual-time FIFO device priced by the
//! cost model.
//!
//! The repo has no physical accelerator, so offloaded queries are
//! *scheduled* rather than executed: service times come from
//! [`drs_platform::ModelCost::gpu_query_us`] — host serialization,
//! PCIe transfer, kernel launches, device compute — and the executor
//! serves its queue FIFO, one query at a time. It is the accelerator
//! of every stack in this crate, [`crate::Simulation`] included, and
//! because it lives on the cost-model clock even on the real path, an
//! offload-all real run must reproduce its virtual twin exactly (see
//! `tests/cross_validation.rs`).
//!
//! Under multi-tenant serving one physical device is shared by every
//! co-located model, so the executor carries one [`ModelCost`] per
//! tenant and each offload is priced by its owner's model.

use drs_core::{us_to_ns, SimTime};
use drs_platform::{CpuPlatform, GpuPlatform, ModelCost};

/// Virtual-time FIFO executor for GPU-offloaded queries, shared by
/// every tenant of a node.
///
/// # Examples
///
/// ```
/// use drs_models::zoo;
/// use drs_platform::{CpuPlatform, GpuPlatform, ModelCost};
/// use drs_server::GpuExecutor;
///
/// let mut gx = GpuExecutor::new(
///     ModelCost::new(&zoo::dlrm_rmc1()),
///     CpuPlatform::skylake(),
///     GpuPlatform::gtx_1080ti(),
/// );
/// let first = gx.schedule(0, 0, 800);
/// let second = gx.schedule(0, 0, 800);
/// assert_eq!(second, 2 * first, "FIFO: the second query queues");
/// ```
#[derive(Debug, Clone)]
pub struct GpuExecutor {
    /// Per-tenant cost models, in tenant order.
    costs: Vec<ModelCost>,
    cpu: CpuPlatform,
    gpu: GpuPlatform,
    busy_until: SimTime,
    busy_ns: u128,
    completed: u64,
}

impl GpuExecutor {
    /// Creates an idle executor for one model on one host/device pair.
    pub fn new(cost: ModelCost, cpu: CpuPlatform, gpu: GpuPlatform) -> Self {
        Self::new_multi(vec![cost], cpu, gpu)
    }

    /// Creates an idle executor shared by several co-located models:
    /// `costs[k]` prices tenant `k`'s offloads.
    ///
    /// # Panics
    ///
    /// Panics if `costs` is empty.
    pub fn new_multi(costs: Vec<ModelCost>, cpu: CpuPlatform, gpu: GpuPlatform) -> Self {
        assert!(!costs.is_empty(), "an executor needs a tenant");
        GpuExecutor {
            costs,
            cpu,
            gpu,
            busy_until: 0,
            busy_ns: 0,
            completed: 0,
        }
    }

    /// End-to-end service time of one whole query of `size` items for
    /// `tenant`, in microseconds — byte-for-byte the simulator's cost
    /// math.
    pub fn service_us(&self, tenant: usize, size: u32) -> f64 {
        self.costs[tenant].gpu_query_us(&self.cpu, &self.gpu, size as usize)
    }

    /// [`service_us`](GpuExecutor::service_us) in nanoseconds.
    pub fn service_ns(&self, tenant: usize, size: u32) -> SimTime {
        us_to_ns(self.service_us(tenant, size))
    }

    /// FIFO-schedules `tenant`'s query arriving at `now` and returns
    /// its completion time: it starts when the device frees up and
    /// holds the device for its full service time.
    pub fn schedule(&mut self, now: SimTime, tenant: usize, size: u32) -> SimTime {
        self.schedule_timed(now, tenant, size).1
    }

    /// [`schedule`](GpuExecutor::schedule), but also returning when
    /// service *starts* — `start > now` means the FIFO queued the
    /// query behind earlier work, which is exactly the span schema's
    /// queue-wait stage.
    pub fn schedule_timed(&mut self, now: SimTime, tenant: usize, size: u32) -> (SimTime, SimTime) {
        let start = self.busy_until.max(now);
        let done = start + self.service_ns(tenant, size);
        self.busy_ns += (done - start) as u128;
        self.busy_until = done;
        self.completed += 1;
        (start, done)
    }

    /// Total device-busy virtual time, nanoseconds.
    pub fn busy_ns(&self) -> u128 {
        self.busy_ns
    }

    /// Queries scheduled so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// When the device frees up (virtual time). `busy_until - now`,
    /// clamped at zero, is the device backlog — the fleet-pulse gauge
    /// sampled as `gpu_backlog_ns_n{n}`.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_models::zoo;

    fn gx() -> GpuExecutor {
        GpuExecutor::new(
            ModelCost::new(&zoo::ncf()),
            CpuPlatform::skylake(),
            GpuPlatform::gtx_1080ti(),
        )
    }

    #[test]
    fn idle_device_serves_at_cost() {
        let mut g = gx();
        let done = g.schedule(5_000, 0, 256);
        assert_eq!(done, 5_000 + g.service_ns(0, 256));
        assert_eq!(g.completed(), 1);
    }

    #[test]
    fn busy_device_queues_fifo() {
        let mut g = gx();
        let d1 = g.schedule(0, 0, 512);
        let d2 = g.schedule(1, 0, 512); // arrives while busy
        assert_eq!(d2, d1 + g.service_ns(0, 512));
        assert_eq!(g.busy_ns(), 2 * g.service_ns(0, 512) as u128);
    }

    #[test]
    fn gap_leaves_device_idle() {
        let mut g = gx();
        let d1 = g.schedule(0, 0, 64);
        let late = d1 + 1_000_000;
        let d2 = g.schedule(late, 0, 64);
        assert_eq!(d2, late + g.service_ns(0, 64));
        // Busy time excludes the idle gap.
        assert_eq!(g.busy_ns(), 2 * g.service_ns(0, 64) as u128);
    }

    #[test]
    fn service_grows_with_query_size() {
        let g = gx();
        assert!(g.service_us(0, 1000) > g.service_us(0, 10));
    }

    #[test]
    fn tenants_share_one_device_fifo() {
        // Two models on one device: tenant 1's query queues behind
        // tenant 0's and is priced by its *own* model.
        let mut g = GpuExecutor::new_multi(
            vec![
                ModelCost::new(&zoo::dlrm_rmc1()),
                ModelCost::new(&zoo::ncf()),
            ],
            CpuPlatform::skylake(),
            GpuPlatform::gtx_1080ti(),
        );
        assert_ne!(g.service_ns(0, 400), g.service_ns(1, 400));
        let d0 = g.schedule(0, 0, 400);
        let d1 = g.schedule(0, 1, 400);
        assert_eq!(d1, d0 + g.service_ns(1, 400), "queued behind tenant 0");
    }
}
