//! SLA tiers (Section V: Low / Medium / High latency targets).

use drs_models::ModelConfig;

/// The three tail-latency targets evaluated per model: the published
/// Table-II target (`Medium`) and targets 50 % tighter (`Low`) and 50 %
/// looser (`High`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlaTier {
    /// 0.5 × the published target.
    Low,
    /// The published Table-II target.
    Medium,
    /// 1.5 × the published target.
    High,
}

impl SlaTier {
    /// All tiers in increasing-laxity order.
    pub const ALL: [SlaTier; 3] = [SlaTier::Low, SlaTier::Medium, SlaTier::High];

    /// Multiplier applied to the published target.
    pub fn multiplier(self) -> f64 {
        match self {
            SlaTier::Low => 0.5,
            SlaTier::Medium => 1.0,
            SlaTier::High => 1.5,
        }
    }

    /// The p95 target in milliseconds for a model at this tier.
    pub fn sla_ms(self, cfg: &ModelConfig) -> f64 {
        cfg.sla_ms * self.multiplier()
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SlaTier::Low => "Low",
            SlaTier::Medium => "Medium",
            SlaTier::High => "High",
        }
    }
}

impl std::fmt::Display for SlaTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_models::zoo;

    #[test]
    fn tiers_scale_published_target() {
        let cfg = zoo::dlrm_rmc2(); // 400 ms published
        assert_eq!(SlaTier::Low.sla_ms(&cfg), 200.0);
        assert_eq!(SlaTier::Medium.sla_ms(&cfg), 400.0);
        assert_eq!(SlaTier::High.sla_ms(&cfg), 600.0);
    }

    #[test]
    fn tiers_ordered() {
        let cfg = zoo::ncf();
        let v: Vec<f64> = SlaTier::ALL.iter().map(|t| t.sla_ms(&cfg)).collect();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn labels_distinct() {
        let l: std::collections::BTreeSet<_> = SlaTier::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(l.len(), 3);
    }
}
