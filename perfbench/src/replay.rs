//! The layer replay of the traced run.
//!
//! For a sample of requests the benchmark calls each layer's public API in
//! turn, the same calls `FanOutService::serve_at` makes inside one
//! component leg: `process_synopsis`, `rank_top`, `improve` per ranked
//! set, then `compose`. Every call gets a span. The replay's response must
//! equal `serve_with_at`'s bit for bit, so the spans time the same work.
//! The same request is then also timed whole through `serve_with_at`
//! (the fan-out) and `Component::execute` (one leg each), and, for the
//! first [`EXACT_REPLAYS`], its exact cost through `process_exact`. The
//! replay gives what the serving spans cannot: the fan-out's own cost,
//! whole legs, ranking and the exact reference.

use std::time::{Duration, Instant};

use at_core::{
    rank_top, ApproximateService, ComposableService, Correlation, ExecutionPolicy, FanOutService,
};

use crate::stats;
use crate::trace::{Span, TraceId, Tracer};

/// Replayed requests whose exact cost is also measured (exact CF
/// processing costs about 5 ms a request).
pub const EXACT_REPLAYS: usize = 100;

/// A response reduced to its bits, for exact comparison.
pub trait Bits {
    /// Every float as its bit pattern, in a fixed order.
    fn bits(&self) -> Vec<u64>;
}

impl Bits for Vec<f64> {
    fn bits(&self) -> Vec<u64> {
        self.iter().map(|v| v.to_bits()).collect()
    }
}

/// Per-layer figures gathered over the replayed requests.
#[derive(Default)]
pub struct LayerStats {
    /// `serve_with_at` wall time per request, µs.
    pub serve_us: Vec<f64>,
    /// Serve wall time minus the fan-out's critical path (the slowest
    /// leg, or the legs spread evenly over the cores when that is longer)
    /// minus compose, µs: what spawning and joining the legs costs.
    pub overhead_us: Vec<f64>,
    /// `Component::execute` per leg, µs.
    pub execute_us: Vec<f64>,
    /// Slowest leg over the median leg, per request.
    pub straggler: Vec<f64>,
    /// `rank_top` per request, summed over components, µs.
    pub rank_us: Vec<f64>,
    /// `process_exact` per request, summed over components, µs.
    pub exact_us: Vec<f64>,
    /// Replays whose response differed from `serve_with_at`'s.
    pub mismatches: usize,
    /// Every replay span, for the trace file.
    pub spans: Vec<Span>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Replay one component leg call by call under a clock-free `policy`,
/// recording spans; returns the leg's output.
fn replay_leg<S: ApproximateService>(
    component: &at_core::Component<S>,
    index: u32,
    req: &S::Request,
    policy: &ExecutionPolicy,
    tracer: &Tracer,
    id: u64,
) -> S::Output {
    let leg_start = Instant::now();
    let ctx = component.ctx();
    let service = component.service();
    let mut corr: Vec<Correlation> = Vec::new();
    let mut out = tracer.time("stage1", Some("component"), id, index, || {
        service.process_synopsis(ctx, req, &mut corr)
    });
    let (work_cap, rank_bound) = match *policy {
        ExecutionPolicy::SynopsisOnly => (0, corr.len()),
        ExecutionPolicy::Budgeted { sets, imax } => {
            (sets, imax.map_or(corr.len(), |m| m.min(corr.len())))
        }
        other => panic!("the replay runs clock-free budgets only, got {other:?}"),
    };
    let rank_start = Instant::now();
    let mut ranked = rank_top(&mut corr, work_cap.min(rank_bound));
    tracer.record(
        "rank",
        rank_start,
        Instant::now(),
        Some("component"),
        id,
        index,
    );
    let mut processed = 0usize;
    let mut i = 0usize;
    while i < rank_bound && processed < work_cap {
        let Some(c) = ranked.get(i) else { break };
        if let Some(members) = ctx.store.index().members(c.node) {
            tracer.time("stage2", Some("component"), id, index, || {
                service.improve(ctx, req, &mut out, c.node, members)
            });
            processed += 1;
        }
        i += 1;
    }
    tracer.record(
        "component",
        leg_start,
        Instant::now(),
        Some("replay"),
        id,
        index,
    );
    out
}

/// Replay `reqs` under per-request, per-component clock-free policies and
/// time every layer. `policies[r][c]` is request `r`'s policy on
/// component `c`.
pub fn replay_all<S>(
    service: &FanOutService<S>,
    reqs: &[S::Request],
    policies: &[Vec<ExecutionPolicy>],
    epoch: Instant,
) -> LayerStats
where
    S: ComposableService + Sync,
    S::Request: Sync + TraceId,
    S::Output: Send,
    S::Response: Bits,
{
    let mut stats = LayerStats::default();
    let n_comp = service.len();
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n_comp);
    for (req, policy) in reqs.iter().zip(policies) {
        let id = req.trace_id();
        let tracer = Tracer::with_epoch(epoch, 0);

        // The replay, call by call.
        let root_start = Instant::now();
        let parts: Vec<S::Output> = service
            .components()
            .iter()
            .enumerate()
            .map(|(c, comp)| replay_leg(comp, c as u32, req, &policy[c], &tracer, id))
            .collect();
        let first = &service.components()[0];
        let response = tracer.time("compose", Some("replay"), id, u32::MAX, || {
            first.service().compose(req, &parts)
        });
        tracer.record("replay", root_start, Instant::now(), None, id, u32::MAX);
        let (spans, _) = tracer.take();
        let sum = |name: &str| -> Duration {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration)
                .sum()
        };
        stats.rank_us.push(us(sum("rank")));
        let compose = sum("compose");
        stats.spans.extend(spans);

        // The fan-out, whole.
        let t = Instant::now();
        let served = service.serve_with_at(req, |c| policy[c], t);
        let serve = t.elapsed();
        if served.response.bits() != response.bits() {
            stats.mismatches += 1;
        }

        // Each leg, whole.
        let legs: Vec<f64> = service
            .components()
            .iter()
            .enumerate()
            .map(|(c, comp)| {
                let t = Instant::now();
                std::hint::black_box(comp.execute(req, &policy[c], t));
                us(t.elapsed())
            })
            .collect();
        let slowest = legs.iter().copied().fold(0.0, f64::max);
        let spread = legs.iter().sum::<f64>() / workers as f64;
        let median = stats::median(&legs);
        stats
            .straggler
            .push(if median > 0.0 { slowest / median } else { 1.0 });
        stats.serve_us.push(us(serve));
        stats
            .overhead_us
            .push(us(serve) - slowest.max(spread) - us(compose));
        stats.execute_us.extend(legs);

        // The exact reference, per component.
        if stats.exact_us.len() < EXACT_REPLAYS {
            let t = Instant::now();
            for comp in service.components() {
                std::hint::black_box(comp.service().process_exact(comp.ctx(), req));
            }
            stats.exact_us.push(us(t.elapsed()));
        }
    }
    debug_assert_eq!(stats.execute_us.len(), reqs.len() * n_comp);
    stats
}
