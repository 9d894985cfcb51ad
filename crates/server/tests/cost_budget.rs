//! The virtual serving loop's allocation budget: a steady-state query
//! allocates nothing.
//!
//! Every shape serves the first 2,000 and then the first 4,000 queries
//! of one stream, counting the heap allocations (`alloc`,
//! `alloc_zeroed` and `realloc`) the serving call makes on its own
//! thread. What a run allocates once (its recorders, node state,
//! report) or a logarithmic number of times (buffers that double)
//! cancels in the difference; what it allocates per query does not.
//! The budget is 0.01 allocations per added query.
//!
//! The count is per thread, so tests running in parallel in this binary
//! do not see each other's allocations. The real path's per-batch
//! budget is not measured here.

use drs_core::{ClusterConfig, ClusterTopology, MultiModelSpec, NodeSpec, Report, RoutingPolicy};
use drs_core::{SchedulerPolicy, ServingStack, TenantSpec};
use drs_models::zoo;
use drs_platform::{CpuPlatform, GpuPlatform, InterconnectModel};
use drs_query::{ArrivalProcess, MixedStream, Query, QueryGenerator, SizeDistribution};
use drs_server::{Cluster, ControllerConfig, Serve, Server, ServerOptions, Simulation};
use drs_shard::{PlacementPolicy, ShardPlan};
use drs_telemetry::RingRecorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations per thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left, and its
    // allocations are none of this file's business.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// re-enters the allocator when touched.
#[expect(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Queries in the smaller and the larger run.
const SMALL: usize = 2_000;
const LARGE: usize = 4_000;

/// Allocations per query added between the two runs, at most.
const BUDGET_PER_QUERY: f64 = 0.01;

/// Allocations this thread makes while `serve` runs.
fn allocs_during(serve: impl FnOnce() -> Report) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let report = serve();
    let after = ALLOCS.with(Cell::get);
    drop(report);
    after - before
}

/// Serves the first [`SMALL`] and then the first [`LARGE`] queries of
/// `queries` and holds the difference to the budget.
fn assert_within_budget(label: &str, queries: &[Query], serve: impl Fn(&[Query]) -> Report) {
    assert!(queries.len() >= LARGE, "{label}: stream too short");
    let small = allocs_during(|| serve(&queries[..SMALL]));
    let large = allocs_during(|| serve(&queries[..LARGE]));
    let per_query = (large as f64 - small as f64) / (LARGE - SMALL) as f64;
    println!(
        "{label}: {small} allocations at {SMALL} queries, {large} at {LARGE}: \
         {per_query:.4} per added query"
    );
    assert!(
        per_query <= BUDGET_PER_QUERY,
        "{label}: {per_query:.4} allocations per added query (budget {BUDGET_PER_QUERY}); \
         {small} at {SMALL} queries, {large} at {LARGE}"
    );
}

fn poisson(qps: f64, seed: u64) -> Vec<Query> {
    QueryGenerator::new(
        ArrivalProcess::poisson(qps),
        SizeDistribution::production(),
        seed,
    )
    .take(LARGE)
    .collect()
}

#[test]
fn simulation_with_offload() {
    let sim = Simulation::new(
        &zoo::dlrm_rmc1(),
        ClusterConfig {
            machines: 1,
            cpu: CpuPlatform::skylake(),
            gpu: Some(GpuPlatform::gtx_1080ti()),
        },
        SchedulerPolicy::with_gpu(64, 128),
    );
    let queries = poisson(600.0, 71);
    assert_within_budget("simulation, offload", &queries, |qs| sim.serve_queries(qs));
}

#[test]
fn one_node_server_untraced_and_traced() {
    let server = Server::new(
        &zoo::dlrm_rmc1(),
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
    );
    let queries = poisson(500.0, 73);
    assert_within_budget("server", &queries, |qs| {
        server.serve(qs, Serve::virtual_time())
    });
    assert_within_budget("server, traced", &queries, |qs| {
        let mut ring = RingRecorder::new(1_024);
        server.serve(qs, Serve::virtual_time().traced(&mut ring))
    });
}

#[test]
fn two_tenant_drr_server() {
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(128)),
        TenantSpec::new(zoo::wide_and_deep(), SchedulerPolicy::cpu_only(64)).with_weight(2),
    ]);
    let server = Server::new_multi(
        &spec,
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(24, SchedulerPolicy::cpu_only(128)),
    );
    let queries: Vec<Query> = MixedStream::new(vec![
        QueryGenerator::new(
            ArrivalProcess::poisson(300.0),
            SizeDistribution::production(),
            75,
        ),
        QueryGenerator::new(
            ArrivalProcess::poisson(150.0),
            SizeDistribution::production(),
            76,
        ),
    ])
    .take(LARGE)
    .collect();
    assert_within_budget("2-tenant DRR", &queries, |qs| {
        server.serve(qs, Serve::virtual_time())
    });
}

#[test]
fn four_node_sharded_cluster() {
    let cfg = zoo::dlrm_rmc2();
    let topo = ClusterTopology::new(vec![
        NodeSpec::cpu_only(CpuPlatform::skylake())
            .with_mem_bytes(16 << 30);
        4
    ]);
    let plan = ShardPlan::place(&cfg, &topo, PlacementPolicy::LookupBalanced).unwrap();
    let cluster = Cluster::new_sharded(
        &cfg,
        topo,
        RoutingPolicy::ShardAware,
        plan,
        InterconnectModel::datacenter_100g(),
        ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
    );
    let queries = poisson(400.0, 77);
    assert_within_budget("sharded x4", &queries, |qs| {
        cluster.serve(qs, Serve::virtual_time())
    });
}

/// The controller the benchmark's controller replay runs.
#[test]
fn controller_run() {
    let opts = ServerOptions::new(40, SchedulerPolicy::with_gpu(64, 128))
        .with_controller(ControllerConfig::standard());
    let server = Server::new(
        &zoo::dlrm_rmc1(),
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        opts,
    );
    let queries = poisson(500.0, 79);
    assert_within_budget("controller", &queries, |qs| {
        server.serve(qs, Serve::virtual_time())
    });
}
