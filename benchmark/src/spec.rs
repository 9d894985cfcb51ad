//! What the benchmark declares and how its workloads are shaped.
//!
//! `BENCHMARK.json` at the root of the repository is the single list of
//! workload and metric names, units, directions and regression bounds;
//! it is compiled into the binary so that `--compare` judges with the
//! same bounds the driver does and a run can verify it printed exactly
//! the declared metrics. The traffic shape of each workload lives here.

use crate::json::{self, Json};
use drs_models::{zoo, ModelConfig, ModelScale};
use drs_query::SizeDistribution;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub(crate) struct Spec {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
    pub run_seconds: f64,
}

impl Spec {
    /// The declaration compiled into this binary.
    pub fn embedded() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let field = |v: &Json, k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            doc.get(key)
                .ok_or_else(|| format!("missing {key:?}"))?
                .as_arr()
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        better: match field(m, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("bad direction {other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: doc
                .get("workloads")
                .ok_or("missing \"workloads\"")?
                .as_arr()
                .iter()
                .map(|w| Ok((field(w, "name")?, field(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing \"run_seconds\"")?,
        })
    }

    /// The metrics a run prints: end-to-end with tracing off, per-layer
    /// with tracing on.
    pub fn metrics(&self, trace: bool) -> &[MetricDecl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// One recommendation service of a workload: its model and its traffic.
#[derive(Debug, Clone)]
pub(crate) struct Tenant {
    pub model: ModelConfig,
    pub sizes: SizeDistribution,
    /// Offered load of the `lo` window (about a quarter of what one worker
    /// sustains), QPS.
    pub lo_qps: f64,
    /// Offered load of the `hi` phase (30-45 % of what one worker sustains:
    /// queueing shows, yet the median still repeats from seed to seed), QPS.
    pub hi_qps: f64,
}

/// The traffic shape of one workload.
#[derive(Debug, Clone)]
pub(crate) struct Workload {
    pub tenants: Vec<Tenant>,
    /// Roughly what one worker sustains, QPS over all tenants: sizes the
    /// saturation windows and the rate they are offered at (20 times
    /// this).
    pub capacity_qps: f64,
}

/// Median 8 items: every query is smaller than the 64-item batch, so the
/// batcher coalesces and never splits.
const SMALL_QUERIES: SizeDistribution = SizeDistribution::LogNormal {
    mu: 2.08,
    sigma: 0.5,
};

pub(crate) fn workload(name: &str) -> Option<Workload> {
    let one = |model: ModelConfig, sizes, lo_qps, hi_qps| Tenant {
        model,
        sizes,
        lo_qps,
        hi_qps,
    };
    Some(match name {
        "rmc1_prod" => Workload {
            tenants: vec![one(
                zoo::dlrm_rmc1(),
                SizeDistribution::production(),
                40.0,
                55.0,
            )],
            capacity_qps: 180.0,
        },
        "wnd_small" => Workload {
            tenants: vec![one(zoo::wide_and_deep(), SMALL_QUERIES, 50.0, 85.0)],
            capacity_qps: 200.0,
        },
        "ncf_small" => Workload {
            tenants: vec![one(zoo::ncf(), SMALL_QUERIES, 1200.0, 2500.0)],
            capacity_qps: 7500.0,
        },
        "colo_rmc1_wnd" => Workload {
            tenants: vec![
                one(zoo::dlrm_rmc1(), SizeDistribution::production(), 20.0, 30.0),
                one(zoo::wide_and_deep(), SMALL_QUERIES, 20.0, 40.0),
            ],
            capacity_qps: 190.0,
        },
        _ => return None,
    })
}

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    /// Seconds the run measures for (`--seconds`).
    pub seconds: f64,
    pub model: ModelScale,
    /// `--smoke`: tiny models, no goldens; numbers are meaningless.
    pub smoke: bool,
}

impl Scale {
    pub fn new(seconds: f64, smoke: bool) -> Scale {
        Scale {
            seconds,
            model: if smoke {
                ModelScale::tiny()
            } else {
                ModelScale::default_scale()
            },
            smoke,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_declaration_is_consistent() {
        let spec = Spec::embedded();
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        let mut names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        for (w, why) in &spec.workloads {
            assert!(workload(w).is_some(), "workload {w} has no traffic shape");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        for m in &spec.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        names.extend(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| m.name.as_str()),
        );
        assert!(
            names.iter().all(|n| name_ok(n)),
            "names match [A-Za-z0-9][A-Za-z0-9_.-]*"
        );
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }
}
