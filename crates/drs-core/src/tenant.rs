//! The multi-tenant vocabulary: which services share an engine pool.
//!
//! DeepRecSys's datacenter setting co-locates many recommendation
//! services on shared hardware, and its central result is that
//! batching/offload knobs must be tuned **per model**, not globally
//! (PAPER §III): the zoo's compute/memory profiles diverge too much for
//! one knob to serve a compute-heavy and an embedding-heavy model well
//! at once. [`MultiModelSpec`] is the shared description every
//! execution layer consumes to serve such a co-location: one
//! [`TenantSpec`] per service — its model, its SLA tier, the policy it
//! serves when untuned, and its fair share of the pool.

use crate::policy::SchedulerPolicy;
use drs_models::ModelConfig;
pub use drs_query::TenantId;

/// One co-located recommendation service: its model, SLA tier,
/// scheduling knobs, and fair-share weight on the shared pool.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable service name (defaults to the model's name).
    pub name: String,
    /// The model this tenant serves.
    pub model: ModelConfig,
    /// The tenant's p95 SLA tier, milliseconds (defaults to the
    /// model's Table-II target).
    pub sla_ms: f64,
    /// Scheduling knobs served when no online controller is attached;
    /// with a controller, its `gpu_threshold` seeds the batch phase
    /// exactly as in single-tenant serving.
    pub policy: SchedulerPolicy,
    /// Fair-share weight for the shared-pool arbiter: a tenant with
    /// weight 2 is entitled to twice the pool of a weight-1 tenant
    /// under contention (idle capacity is never reserved).
    pub weight: u32,
}

impl TenantSpec {
    /// Builds a tenant serving `model` under `policy`, with the model's
    /// name, its Table-II SLA, and unit weight.
    pub fn new(model: ModelConfig, policy: SchedulerPolicy) -> Self {
        TenantSpec {
            name: model.name.to_string(),
            sla_ms: model.sla_ms,
            model,
            policy,
            weight: 1,
        }
    }

    /// Overrides the tenant's SLA tier.
    ///
    /// # Panics
    ///
    /// Panics if `sla_ms` is not positive.
    pub fn with_sla_ms(mut self, sla_ms: f64) -> Self {
        assert!(sla_ms > 0.0, "SLA must be positive");
        self.sla_ms = sla_ms;
        self
    }

    /// Overrides the tenant's fair-share weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn with_weight(mut self, weight: u32) -> Self {
        assert!(weight > 0, "a tenant needs a positive share");
        self.weight = weight;
        self
    }
}

/// The set of services co-located on one shared engine pool, in
/// [`TenantId`] order: tenant `k` of a serving stack is `tenants()[k]`.
///
/// # Examples
///
/// ```
/// use drs_core::{MultiModelSpec, SchedulerPolicy, TenantSpec};
/// use drs_models::zoo;
///
/// let spec = MultiModelSpec::new(vec![
///     TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(256)),
///     TenantSpec::new(zoo::wide_and_deep(), SchedulerPolicy::cpu_only(16)).with_weight(2),
/// ]);
/// assert_eq!(spec.len(), 2);
/// assert_eq!(spec.tenants()[0].name, "DLRM-RMC1");
/// assert_eq!(spec.tenants()[1].sla_ms, 25.0, "Table-II tier by default");
/// ```
#[derive(Debug, Clone)]
pub struct MultiModelSpec {
    tenants: Vec<TenantSpec>,
}

impl MultiModelSpec {
    /// Builds a co-location spec.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        assert!(!tenants.is_empty(), "a co-location needs tenants");
        MultiModelSpec { tenants }
    }

    /// The single-service degenerate case every existing constructor
    /// reduces to.
    pub fn single(model: ModelConfig, policy: SchedulerPolicy) -> Self {
        MultiModelSpec::new(vec![TenantSpec::new(model, policy)])
    }

    /// The tenants, in [`TenantId`] order.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Number of co-located services.
    #[expect(clippy::len_without_is_empty)] // a co-location is never empty
    pub fn len(&self) -> usize {
        self.tenants.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_models::zoo;

    #[test]
    fn defaults_come_from_the_model() {
        let t = TenantSpec::new(zoo::ncf(), SchedulerPolicy::cpu_only(8));
        assert_eq!(t.name, "NCF");
        assert_eq!(t.sla_ms, 5.0);
        assert_eq!(t.weight, 1);
        let t = t.with_sla_ms(10.0).with_weight(3);
        assert_eq!(t.sla_ms, 10.0);
        assert_eq!(t.weight, 3);
    }

    #[test]
    #[should_panic(expected = "a co-location needs tenants")]
    fn empty_spec_rejected() {
        let _ = MultiModelSpec::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive share")]
    fn zero_weight_rejected() {
        let _ = TenantSpec::new(zoo::ncf(), SchedulerPolicy::cpu_only(8)).with_weight(0);
    }
}
