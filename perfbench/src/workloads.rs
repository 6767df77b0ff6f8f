//! The two workloads, their fixed settings, and the correctness gate.
//!
//! Every rate, deadline, budget and latency limit below is a fixed
//! absolute number, never calibrated during a run, so two commits face
//! identical load.
//!
//! * `rec-deadline` — CF deployment behind `Server` with the deadline
//!   ladder, Poisson arrivals above full-work capacity, uniform draws from
//!   held-out users.
//! * `rec-ingest` — CF deployment driven by one thread calling `serve_at`
//!   with a short deadline on a Poisson schedule, with stop-the-world
//!   update batches on a fixed period.
//!
//! Both workloads serve under deadlines: on a shared host whose speed
//! changes from one run to the next, the deadline, not the host, sets the
//! latency, and a faster or slower program shows as accuracy.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use at_core::{
    ApproximateService, ComposableService, ExecutionPolicy, FanOutService, ServiceResponse,
};
use at_server::{LadderConfig, LadderController, Server, ServerConfig, ServerStats, SubmitError};
use at_synopsis::DataUpdate;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::accuracy::RecAccuracy;
use crate::deploy::{self, RecInputs, SetupTimes};
use crate::load::{self, Timing, WallClock};
use crate::replay::{self, Bits, LayerStats};
use crate::report::{array, number, reset_rss_peak, rss_peak_mb, Report};
use crate::stats::{self, mean, percentile, WINDOW_P50, WINDOW_P99};
use crate::trace::{self, Calls, Span, TraceId, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Requests replayed layer by layer in a traced run: enough that ten
/// lie beyond each replay p99.
const REPLAY_REQUESTS: usize = 1000;
/// A run whose generator started its p99 request later than this after
/// it was due fell behind the schedule and is invalid. Scheduler wake-up
/// jitter on a shared host reaches about 10 ms; a generator that cannot
/// keep up falls behind by far more.
const GEN_LAG_LIMIT: Duration = Duration::from_millis(50);
/// Traced spans written to the trace file at most.
const SPANS_WRITTEN: usize = 200_000;
/// Longest traced serving phase: half the run, at most this long, so the
/// spans of `rec-deadline` (up to 34 stage-2 spans per component and
/// request) fit the tracer's memory.
const TRACED_SECONDS: f64 = 10.0;

/// `rec-deadline`: offered Poisson rate, requests per second. The
/// benchmark runs on one CPU (see `run.py`), where serving every set of a
/// request costs about 4 ms, so full work caps out near 250 requests per
/// second.
const RD_RATE: f64 = 400.0;
/// `rec-deadline`: the deadline `l_spe` of every request. On one CPU, the
/// accuracy loss spread (interquartile range over median) 0.12 across five
/// seeds at 10 ms, with the host's speed, and about 0.06 across ten at
/// 5 ms, where it is near 2.6%.
const RD_L_SPE: Duration = Duration::from_millis(5);
/// `rec-deadline`: latency limit for `deadline_met_frac`.
const RD_LIMIT: Duration = Duration::from_millis(15);
/// `rec-deadline`: every how many pool users one is replayed as a budget
/// to check its served bits.
const RD_CHECK_EVERY: usize = 16;
/// `rec-deadline`: every how many pool users one is in the accuracy
/// sample.
const RD_SAMPLE_EVERY: usize = 4;

/// `rec-ingest`: Poisson serving rate, requests per second. A request
/// takes about `RI_L_SPE` plus a quarter of a millisecond, so the serving
/// thread is busy under half the time; a request due while another is served
/// starts late and its deadline, counted from when it was due, leaves it
/// less work.
const RI_RATE: f64 = 200.0;
/// `rec-ingest`: the deadline `l_spe` of every request. Serving every set
/// takes 3 to 5 ms on one CPU, so the deadline, not the host's speed,
/// bounds the work, and a slower host shows as lost accuracy.
const RI_L_SPE: Duration = Duration::from_millis(2);
/// `rec-ingest`: period of the update batches.
const RI_UPDATE_PERIOD: Duration = Duration::from_millis(1000);
/// `rec-ingest`: rows changed per update batch. A 16-row batch stops the
/// world for about 2.5 ms, a quarter of a percent of the run, so the few
/// requests due during one lie well beyond p99 and the tail stays set by
/// the deadline.
const RI_CHANGE_ROWS: usize = 14;
/// Rows added per update batch.
const RI_ADD_ROWS: usize = 2;
/// `rec-ingest`: every how many pool users one is in the accuracy sample.
const RI_SAMPLE_EVERY: usize = 3;
/// `rec-ingest`: latency limit for `deadline_met_frac`.
const RI_LIMIT: Duration = Duration::from_millis(10);

/// Queue capacity of `rec-deadline`'s server.
const QUEUE_CAPACITY: usize = 8192;
/// Micro-batch cap of `rec-deadline`'s server.
const MAX_BATCH: usize = 64;

/// Metrics reported with tracing off, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("deadline_met_frac", "frac"),
    ("accuracy_loss_pct", "%"),
    ("served_frac", "frac"),
    ("rss_peak_mb", "MiB"),
];

/// Metrics reported by the traced run, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p999_ms", "ms"),
    ("latency.beyond_p999", "count"),
    ("latency.p99_pooled_ms", "ms"),
    ("server.queue_wait_mean_ms", "ms"),
    ("server.queue_wait_max_ms", "ms"),
    ("server.max_queue_depth", "count"),
    ("server.batch_size_mean", "count"),
    ("server.batches", "count"),
    ("server.degraded_frac", "frac"),
    ("server.shed_frac", "frac"),
    ("server.rejected_frac", "frac"),
    ("fanout.serve_us_p50", "us"),
    ("fanout.serve_us_p99", "us"),
    ("fanout.overhead_us_p50", "us"),
    ("fanout.overhead_us_p99", "us"),
    ("fanout.pool_reuse_frac", "frac"),
    ("fanout.open_breakers", "count"),
    ("component.execute_us_p50", "us"),
    ("component.execute_us_p99", "us"),
    ("component.straggler_ratio_p99", "ratio"),
    ("component.rank_us", "us"),
    ("coverage.mean", "frac"),
    ("sets.processed_per_req", "count"),
    ("sets.skipped", "count"),
    ("stage1.us", "us"),
    ("stage1.batch_us_per_req", "us"),
    ("stage2.us_per_set", "us"),
    ("compose.us", "us"),
    ("exact.us", "us"),
    ("update.ms_per_batch_p50", "ms"),
    ("update.ms_per_batch_p90", "ms"),
    ("update.regenerated_per_batch", "count"),
    ("update.rows_per_s", "1/s"),
    ("setup.synopsis_build_s", "s"),
    ("setup.index_build_s", "s"),
    ("gen.lag_ms_p99", "ms"),
    ("gen.sent", "count"),
    ("mix.dup_share", "frac"),
    ("trace.unaccounted_frac", "frac"),
    ("trace.overhead_pct", "%"),
];

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["rec-deadline", "rec-ingest"];

/// What the command line asked for.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the request mix and the arrival schedule.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Run the workload and return its report, metrics already selected.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    report.context(
        "available_parallelism",
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .to_string(),
    );
    report.context("seed", args.seed.to_string());
    report.context("data_seed", deploy::DATA_SEED.to_string());
    report.context("seconds", number(args.seconds));
    report.context("components", deploy::N_COMPONENTS.to_string());
    report.context("rows_per_component", deploy::ROWS_PER_COMPONENT.to_string());
    report.context("columns", deploy::N_COLUMNS.to_string());
    match args.workload.as_str() {
        "rec-deadline" => rec_deadline(args, &mut report),
        "rec-ingest" => rec_ingest(args, &mut report),
        other => unreachable!("workload {other} was validated by the caller"),
    }
    report.select(if args.trace { PER_LAYER } else { END_TO_END });
    report
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Set up `SETUPS` times and report the median; returns the last set-up.
fn setup_repeated<T>(report: &mut Report, mut setup: impl FnMut() -> (T, SetupTimes)) -> T {
    let mut totals = Vec::new();
    let mut synopsis = Vec::new();
    let mut index = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous deployment first, so each set-up starts from
        // the same memory state.
        drop(last.take());
        let (t, times) = setup();
        totals.push(times.total.as_secs_f64());
        synopsis.push(times.synopsis.as_secs_f64());
        index.push(times.index.as_secs_f64());
        last = Some(t);
    }
    report.metric("setup_s", stats::median(&totals), "s", SETUPS);
    report.metric(
        "setup.synopsis_build_s",
        stats::median(&synopsis),
        "s",
        SETUPS,
    );
    report.metric("setup.index_build_s", stats::median(&index), "s", SETUPS);
    last.expect("SETUPS >= 1")
}

/// The generator's lateness; for a generator that only submits
/// (`submits_only`), lateness past [`GEN_LAG_LIMIT`] makes the run
/// invalid.
fn report_generator(report: &mut Report, timings: &[Timing], draws: &[usize], submits_only: bool) {
    let lags = stats::sorted(timings.iter().map(|t| ms(t.lag())).collect());
    let p99 = percentile(&lags, 99.0).unwrap_or(0.0);
    report.metric("gen.lag_ms_p99", p99, "ms", lags.len());
    report.metric("gen.sent", timings.len() as f64, "count", 1);
    report.metric("mix.dup_share", load::dup_share(draws), "frac", draws.len());
    if submits_only && p99 > ms(GEN_LAG_LIMIT) {
        report.problem(format!(
            "generator fell behind: p99 lateness {p99:.3} ms over the {} ms limit",
            ms(GEN_LAG_LIMIT)
        ));
    }
}

/// Latency metrics over served requests, in arrival order, and the share
/// sent that met `limit` (failed requests miss it). The reported p50 and
/// p99 are medians of per-window percentiles, so a host stall over a
/// minority of the run does not move them; the pooled p99 and p99.9 are
/// reported beside them.
fn report_latency(report: &mut Report, latencies_ms: Vec<f64>, sent: usize, limit: Duration) {
    let n = latencies_ms.len();
    if !stats::tail_supported(n, 99.0) {
        report.problem(format!("only {n} samples: fewer than 10 lie beyond p99"));
    }
    let p50 = stats::windowed_percentile(&latencies_ms, 50.0, WINDOW_P50).unwrap_or(0.0);
    let p99 = stats::windowed_percentile(&latencies_ms, 99.0, WINDOW_P99).unwrap_or(0.0);
    let met = latencies_ms.iter().filter(|&&l| l <= ms(limit)).count();
    let sorted = stats::sorted(latencies_ms);
    report.metric("latency_p50_ms", p50, "ms", n);
    report.metric("latency_p99_ms", p99, "ms", n);
    report.metric(
        "latency.p99_pooled_ms",
        percentile(&sorted, 99.0).unwrap_or(0.0),
        "ms",
        n,
    );
    report.metric(
        "latency_p999_ms",
        percentile(&sorted, 99.9).unwrap_or(0.0),
        "ms",
        n,
    );
    let beyond = n - stats::nearest_rank(n.max(1), 99.9).min(n);
    report.metric("latency.beyond_p999", beyond as f64, "count", n);
    report.metric(
        "deadline_met_frac",
        frac(met as u64, sent as u64),
        "frac",
        sent,
    );
    report.metric("served_frac", frac(n as u64, sent as u64), "frac", sent);
}

/// An open-loop run through a `Server`.
struct ServerRun<R> {
    /// The instant due offsets count from.
    start: Instant,
    timings: Vec<Timing>,
    /// Per scheduled request, its response, or `None` when it was
    /// rejected or shed (the server's stats tell which).
    results: Vec<Option<ServiceResponse<R>>>,
    stats: ServerStats,
}

/// Replay `schedule` open loop into `server`, one request per due offset,
/// each submitted with its due instant, then collect every ticket.
fn drive_server<S>(
    server: Server<S>,
    schedule: &[Duration],
    reqs: &[S::Request],
    policy: ExecutionPolicy,
) -> ServerRun<S::Response>
where
    S: ComposableService + Send + Sync + 'static,
    S::Request: Clone + PartialEq + Send + Sync + 'static,
    S::Output: Send + 'static,
    S::Response: Send + 'static,
{
    let mut clock = WallClock::start();
    let mut tickets = Vec::with_capacity(schedule.len());
    let timings = load::drive(&mut clock, schedule, |i, c| {
        let due = c.instant(schedule[i]);
        tickets.push(server.try_submit_at(reqs[i].clone(), policy, due));
    });
    let results = tickets
        .into_iter()
        .map(|t| match t {
            Ok(ticket) => ticket.wait().ok(),
            Err(SubmitError::Busy) => None,
            Err(e) => panic!("server refused a request: {e}"),
        })
        .collect();
    let stats = server.shutdown();
    ServerRun {
        start: clock.instant(Duration::ZERO),
        timings,
        results,
        stats,
    }
}

/// Server-side and response-side figures of an untraced server run.
fn report_server<R>(
    report: &mut Report,
    run: &ServerRun<R>,
    requested: &ExecutionPolicy,
    limit: Duration,
) {
    let sent = run.results.len() as u64;
    let s = &run.stats;
    let waited = (s.completed + s.shed).max(1);
    report.metric(
        "server.queue_wait_mean_ms",
        ms(s.queue_wait_total) / waited as f64,
        "ms",
        waited as usize,
    );
    report.metric(
        "server.queue_wait_max_ms",
        ms(s.queue_wait_max),
        "ms",
        waited as usize,
    );
    report.metric(
        "server.max_queue_depth",
        s.max_queue_depth as f64,
        "count",
        1,
    );
    report.metric(
        "server.batch_size_mean",
        s.mean_batch_size(),
        "count",
        s.batches_dispatched as usize,
    );
    report.metric("server.batches", s.batches_dispatched as f64, "count", 1);
    let served: Vec<&ServiceResponse<R>> = run.results.iter().flatten().collect();
    let degraded = served
        .iter()
        .filter(|r| r.policy_applied != *requested)
        .count();
    report.metric(
        "server.degraded_frac",
        frac(degraded as u64, sent),
        "frac",
        sent as usize,
    );
    report.metric(
        "server.shed_frac",
        frac(s.shed, sent),
        "frac",
        sent as usize,
    );
    report.metric(
        "server.rejected_frac",
        frac(s.rejected, sent),
        "frac",
        sent as usize,
    );
    report_served(report, &served);
    let latencies = served.iter().map(|r| ms(r.elapsed)).collect();
    report_latency(report, latencies, sent as usize, limit);
    report.attempted = sent;
    report.failed = sent - served.len() as u64;
}

/// Coverage and set counts over served responses.
fn report_served<R>(report: &mut Report, served: &[&ServiceResponse<R>]) {
    let n = served.len();
    report.metric(
        "coverage.mean",
        mean(&served.iter().map(|r| r.mean_coverage()).collect::<Vec<_>>()),
        "frac",
        n,
    );
    report.metric(
        "sets.processed_per_req",
        mean(
            &served
                .iter()
                .map(|r| r.sets_processed() as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
        n,
    );
    let skipped: usize = served.iter().map(|r| r.sets_skipped()).sum();
    report.metric("sets.skipped", skipped as f64, "count", n);
}

/// The healthy-path invariants every served response must keep.
fn check_response<R>(report: &mut Report, r: &ServiceResponse<R>, sizes: &[usize], what: &str) {
    if !r.components_failed.is_empty() {
        report.problem(format!(
            "{what}: components failed: {:?}",
            r.components_failed
        ));
    }
    if r.sets_skipped() != 0 {
        report.problem(format!("{what}: {} ranked sets skipped", r.sets_skipped()));
    }
    let totals: Vec<usize> = r.components.iter().map(|c| c.sets_total).collect();
    if totals != sizes {
        report.problem(format!(
            "{what}: set totals {totals:?}, synopsis sizes {sizes:?}"
        ));
    }
    let cov = r.mean_coverage();
    if !(0.0..=1.0).contains(&cov) {
        report.problem(format!("{what}: coverage {cov} outside [0, 1]"));
    }
}

/// A deadline response's predictions must be finite ratings in [1, 5].
fn check_predictions(report: &mut Report, r: &ServiceResponse<Vec<f64>>, what: &str) {
    if let Some(bad) = r
        .response
        .iter()
        .find(|p| !(p.is_finite() && (1.0..=5.0).contains(*p)))
    {
        report.problem(format!("{what}: prediction {bad} outside [1, 5]"));
    }
}

/// The sets each component of a response processed, as per-component
/// budgets: deadline work depends on the clock, but the same sets
/// processed as budgets on the same data state reproduce its bits.
fn budgets_of<R>(r: &ServiceResponse<R>) -> Vec<ExecutionPolicy> {
    r.components
        .iter()
        .map(|c| ExecutionPolicy::budgeted(c.sets_processed))
        .collect()
}

/// The per-layer figures of a layer replay.
fn report_layers(report: &mut Report, layers: &LayerStats) {
    let p = |v: &[f64], q: f64| percentile(&stats::sorted(v.to_vec()), q).unwrap_or(0.0);
    let n = layers.serve_us.len();
    report.metric("fanout.serve_us_p50", p(&layers.serve_us, 50.0), "us", n);
    report.metric("fanout.serve_us_p99", p(&layers.serve_us, 99.0), "us", n);
    report.metric(
        "fanout.overhead_us_p50",
        p(&layers.overhead_us, 50.0),
        "us",
        n,
    );
    report.metric(
        "fanout.overhead_us_p99",
        p(&layers.overhead_us, 99.0),
        "us",
        n,
    );
    let legs = layers.execute_us.len();
    report.metric(
        "component.execute_us_p50",
        p(&layers.execute_us, 50.0),
        "us",
        legs,
    );
    report.metric(
        "component.execute_us_p99",
        p(&layers.execute_us, 99.0),
        "us",
        legs,
    );
    report.metric(
        "component.straggler_ratio_p99",
        p(&layers.straggler, 99.0),
        "ratio",
        n,
    );
    report.metric("component.rank_us", mean(&layers.rank_us), "us", n);
    report.metric(
        "exact.us",
        mean(&layers.exact_us),
        "us",
        layers.exact_us.len(),
    );
    if !stats::tail_supported(n, 99.0) {
        report.problem(format!(
            "layer replay of {n} requests: fewer than 10 lie beyond p99"
        ));
    }
    if layers.mismatches > 0 {
        report.problem(format!(
            "layer replay differs from serve_with_at on {} of {n} requests",
            layers.mismatches
        ));
    }
}

/// The per-layer figures of a traced serving phase, from its spans: stage
/// 1, stage 2 and compose as the server or serving thread called them,
/// reconciled against each request's root span.
fn report_serving_layers(report: &mut Report, spans: &[Span]) {
    let t = trace::layer_times(spans);
    let n_comp = deploy::N_COMPONENTS as f64;
    // Per request summed over components: each request's call shows once
    // per component.
    let per_request = |c: &Calls| -> f64 {
        if c.requests == 0 {
            0.0
        } else {
            c.time.as_secs_f64() * 1e6 * n_comp / c.requests as f64
        }
    };
    let per_call = |c: &Calls| -> f64 {
        if c.calls == 0 {
            0.0
        } else {
            c.time.as_secs_f64() * 1e6 / c.calls as f64
        }
    };
    let requests = |c: &Calls| c.requests / deploy::N_COMPONENTS;
    report.metric(
        "stage1.us",
        per_request(&t.stage1),
        "us",
        requests(&t.stage1),
    );
    report.metric(
        "stage1.batch_us_per_req",
        per_request(&t.stage1_batch),
        "us",
        requests(&t.stage1_batch),
    );
    report.metric(
        "stage2.us_per_set",
        per_call(&t.stage2),
        "us",
        t.stage2.calls,
    );
    report.metric("compose.us", per_call(&t.compose), "us", t.compose.calls);
    report.metric(
        "trace.unaccounted_frac",
        t.unaccounted_frac(),
        "frac",
        t.compose.calls,
    );
}

/// Fan-out pool and breaker state after an untraced run.
fn report_fanout_state<S>(report: &mut Report, service: &FanOutService<S>, legs: u64)
where
    S: ApproximateService + Sync,
    S::Request: Sync,
    S::Output: Send,
{
    report.metric(
        "fanout.pool_reuse_frac",
        frac(service.pool().reuses() as u64, legs),
        "frac",
        legs as usize,
    );
    report.metric(
        "fanout.open_breakers",
        service.open_components() as f64,
        "count",
        1,
    );
}

/// Zero-valued metrics of layers a workload does not exercise: every
/// per-layer metric whose name starts with `prefix`.
fn report_absent(report: &mut Report, prefix: &str) {
    for &(name, unit) in PER_LAYER.iter().filter(|(n, _)| n.starts_with(prefix)) {
        report.metric(name, 0.0, unit, 0);
    }
}

/// Trace overhead: traced p50 against untraced p50, in percent, both
/// windowed as `latency_p50_ms` is. The traced phase replays the start of
/// the schedule, so it is compared with the same start of the untraced
/// run.
fn report_overhead(report: &mut Report, untraced_ms: &[f64], traced_ms: &[f64]) {
    let p50 = |v: &[f64]| stats::windowed_percentile(v, 50.0, WINDOW_P50).unwrap_or(0.0);
    let a = p50(&untraced_ms[..traced_ms.len().min(untraced_ms.len())]);
    let b = p50(traced_ms);
    report.metric(
        "trace.overhead_pct",
        if a > 0.0 { (b - a) / a * 100.0 } else { 0.0 },
        "%",
        traced_ms.len(),
    );
}

/// Root spans of the traced serving phase: one per served request, from
/// its due instant to its response.
fn request_spans<R, Q: TraceId>(tracer: &Tracer, run: &ServerRun<R>, reqs: &[Q]) {
    for ((timing, req), result) in run.timings.iter().zip(reqs).zip(&run.results) {
        if let Some(r) = result {
            let t = run.start + timing.due;
            tracer.record("request", t, t + r.elapsed, None, req.trace_id(), u32::MAX);
        }
    }
}

/// Write the traced run's spans to `.perfbench/<workload>-<seed>.spans.tsv`
/// under the working directory.
fn write_trace(args: &Args, mut spans: Vec<Span>, dropped: u64) {
    if dropped > 0 {
        eprintln!("the span sink was full: {dropped} spans were not kept");
    }
    spans.sort_by_key(|s| s.start);
    let kept = spans.len().min(SPANS_WRITTEN);
    let path =
        PathBuf::from(".perfbench").join(format!("{}-{}.spans.tsv", args.workload, args.seed));
    match trace::write_spans(&path, &spans[..kept]) {
        Ok(()) => eprintln!(
            "wrote {kept} of {} spans to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

// ---------------------------------------------------------------- rec-deadline

fn rec_deadline(args: &Args, report: &mut Report) {
    let inputs = RecInputs::generate();
    reset_rss_peak();
    let policy = ExecutionPolicy::deadline(RD_L_SPE);
    let config = ServerConfig::default()
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_max_batch(MAX_BATCH);
    // The ladder degrades but never sheds: every request is answered, so
    // the workload has no failed operations and a slow host shows as lost
    // accuracy, not as a count of dropped requests.
    let mut ladder = LadderConfig::for_deadline(RD_L_SPE);
    ladder.shed_level = ladder.max_level + 1;
    report.context("rate_per_s", number(RD_RATE));
    report.context("l_spe_ms", number(ms(RD_L_SPE)));
    report.context("limit_ms", number(ms(RD_LIMIT)));
    report.context("policy", "\"deadline, ladder controller\"".into());
    report.context("pool", inputs.pool.len().to_string());

    let (service, server) = setup_repeated(report, || {
        let start = Instant::now();
        let (service, mut times) = inputs.setup();
        let service = Arc::new(service);
        let server =
            Server::with_controller(service.clone(), config, LadderController::new(ladder));
        times.total = start.elapsed();
        ((service, server), times)
    });
    let sizes = deploy::synopsis_sizes(&service);
    report.context("synopsis_sizes", array(&sizes));

    let schedule = load::poisson_schedule(RD_RATE, args.seconds, args.seed ^ 0xA221);
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0xD2A3);
    let draws: Vec<usize> = (0..schedule.len())
        .map(|_| rng.random_range(0..inputs.pool.len()))
        .collect();
    let reqs: Vec<_> = draws
        .iter()
        .map(|&d| inputs.pool[d].active.clone())
        .collect();

    let run = drive_server(server, &schedule, &reqs, policy);
    report.metric("rss_peak_mb", rss_peak_mb(), "MiB", 1);
    report_generator(report, &run.timings, &draws, true);
    report_server(report, &run, &policy, RD_LIMIT);
    report_fanout_state(
        report,
        &service,
        run.stats.completed * deploy::N_COMPONENTS as u64,
    );

    // Correctness over every served request and accuracy over every
    // `RD_SAMPLE_EVERY`-th pool user, outside the timed region; the data
    // does not change, so each user's exact response is computed once.
    let mut exact_by_user: Vec<Option<Vec<f64>>> = vec![None; inputs.pool.len()];
    let mut accuracy = RecAccuracy::default();
    let mut mismatches = 0usize;
    let mut sample = Vec::new();
    for (i, (result, &d)) in run.results.iter().zip(&draws).enumerate() {
        let Some(resp) = result else { continue };
        let what = format!("request {i}");
        check_response(report, resp, &sizes, &what);
        check_predictions(report, resp, &what);
        let budgets = budgets_of(resp);
        let req = &inputs.pool[d];
        if d % RD_CHECK_EVERY == 0 {
            let again = service.serve_with_at(&req.active, |c| budgets[c], Instant::now());
            if again.response.bits() != resp.response.bits() {
                mismatches += 1;
            }
        }
        if d % RD_SAMPLE_EVERY == 0 {
            let exact = exact_by_user[d].get_or_insert_with(|| {
                service
                    .serve_at(&req.active, &ExecutionPolicy::Exact, Instant::now())
                    .response
            });
            accuracy.add(&resp.response, exact, &req.actual);
        }
        if sample.len() < REPLAY_REQUESTS {
            sample.push((req.active.clone(), budgets));
        }
    }
    if mismatches > 0 {
        report.problem(format!(
            "{mismatches} deadline responses differ from a budgeted replay of the same sets"
        ));
    }
    report.metric(
        "accuracy_loss_pct",
        accuracy.loss_pct(),
        "%",
        accuracy.samples(),
    );
    report_absent(report, "update.");

    if args.trace {
        let untraced: Vec<f64> = served_latencies(&run.results);
        let tracer = Arc::new(Tracer::new(deploy::N_COMPONENTS));
        let traced = Arc::new(trace::traced(&service, &tracer));
        let server = Server::with_controller(traced, config, LadderController::new(ladder));
        let half = traced_schedule(&schedule, args.seconds);
        let run_b = drive_server(server, half, &reqs[..half.len()], policy);
        request_spans(&tracer, &run_b, &reqs);
        report_overhead(report, &untraced, &served_latencies(&run_b.results));
        let (mut spans, dropped) = tracer.take();
        report_serving_layers(report, &spans);
        let (reqs_c, policies): (Vec<_>, Vec<_>) = sample.into_iter().unzip();
        let layers = replay::replay_all(&service, &reqs_c, &policies, tracer.epoch());
        report_layers(report, &layers);
        spans.extend(layers.spans);
        write_trace(args, spans, dropped);
    }
}

fn served_latencies<R>(results: &[Option<ServiceResponse<R>>]) -> Vec<f64> {
    results.iter().flatten().map(|r| ms(r.elapsed)).collect()
}

/// The start of a schedule, for the traced serving phase: the first half
/// of the run, at most [`TRACED_SECONDS`].
fn traced_schedule(schedule: &[Duration], seconds: f64) -> &[Duration] {
    let end = Duration::from_secs_f64((seconds / 2.0).min(TRACED_SECONDS));
    &schedule[..schedule.partition_point(|&t| t < end)]
}

// ------------------------------------------------------------------ rec-ingest

/// One step of the `rec-ingest` timeline.
#[derive(Clone, Copy)]
enum Op {
    /// Serve pool request `draw`.
    Serve { draw: usize },
    /// Apply update batch `batch`.
    Update { batch: usize },
}

/// Update batch `batch`: `RI_CHANGE_ROWS` changed rows and `RI_ADD_ROWS`
/// new rows for component `batch % N_COMPONENTS`.
fn update_batch(inputs: &RecInputs, batch: usize, rows_now: usize) -> (usize, Vec<DataUpdate>) {
    let component = batch % deploy::N_COMPONENTS;
    let round = batch / deploy::N_COMPONENTS;
    let mut updates = Vec::with_capacity(RI_CHANGE_ROWS + RI_ADD_ROWS);
    for k in 0..RI_CHANGE_ROWS {
        let id = ((round * RI_CHANGE_ROWS + k) * 7) % rows_now;
        updates.push(DataUpdate::Change {
            id: id as u64,
            row: inputs.shifted_row(batch * 31 + k),
        });
    }
    for k in 0..RI_ADD_ROWS {
        updates.push(DataUpdate::Add(inputs.shifted_row(batch * 17 + k + 5)));
    }
    (component, updates)
}

/// Apply update batch `batch` to `service`, returning what it did.
fn apply_batch<S>(
    inputs: &RecInputs,
    service: &mut FanOutService<S>,
    batch: usize,
) -> (at_synopsis::UpdateReport, Duration)
where
    S: ApproximateService + Sync,
    S::Request: Sync,
    S::Output: Send,
{
    let component = batch % deploy::N_COMPONENTS;
    let rows_now = service.components()[component].dataset().len();
    let (c, updates) = update_batch(inputs, batch, rows_now);
    let t = Instant::now();
    let r = service.components_mut()[c].apply_updates(updates);
    (r, t.elapsed())
}

/// The merged serve/update timeline of one run.
fn ingest_timeline(args: &Args, pool: usize) -> (Vec<Duration>, Vec<Op>) {
    let serves = load::poisson_schedule(RI_RATE, args.seconds, args.seed ^ 0x1263);
    let updates = load::periodic_schedule(RI_UPDATE_PERIOD, args.seconds);
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x77AB);
    let mut events: Vec<(Duration, Op)> = serves
        .into_iter()
        .map(|t| {
            (
                t,
                Op::Serve {
                    draw: rng.random_range(0..pool),
                },
            )
        })
        .chain(
            updates
                .into_iter()
                .enumerate()
                .map(|(batch, t)| (t, Op::Update { batch })),
        )
        .collect();
    events.sort_by_key(|&(t, _)| t);
    events.into_iter().unzip()
}

fn rec_ingest(args: &Args, report: &mut Report) {
    let inputs = RecInputs::generate();
    reset_rss_peak();
    let policy = ExecutionPolicy::deadline(RI_L_SPE);
    report.context("rate_per_s", number(RI_RATE));
    report.context("l_spe_ms", number(ms(RI_L_SPE)));
    report.context("update_period_ms", number(ms(RI_UPDATE_PERIOD)));
    report.context("update_rows", (RI_CHANGE_ROWS + RI_ADD_ROWS).to_string());
    report.context("limit_ms", number(ms(RI_LIMIT)));
    report.context("pool", inputs.pool.len().to_string());

    let mut service = setup_repeated(report, || inputs.setup());
    let sizes = deploy::synopsis_sizes(&service);
    report.context("synopsis_sizes", array(&sizes));

    let (schedule, ops) = ingest_timeline(args, inputs.pool.len());
    let mut responses: Vec<Option<ServiceResponse<Vec<f64>>>> = vec![None; ops.len()];
    let mut updates = Vec::new();
    let mut clock = WallClock::start_spinning();
    let timings = load::drive(&mut clock, &schedule, |i, c| match ops[i] {
        Op::Serve { draw } => {
            let due = c.instant(schedule[i]);
            responses[i] = Some(service.serve_at(&inputs.pool[draw].active, &policy, due));
        }
        Op::Update { batch } => updates.push(apply_batch(&inputs, &mut service, batch)),
    });
    report.metric("rss_peak_mb", rss_peak_mb(), "MiB", 1);

    let serve_idx: Vec<usize> = (0..ops.len())
        .filter(|&i| matches!(ops[i], Op::Serve { .. }))
        .collect();
    let draws: Vec<usize> = serve_idx
        .iter()
        .map(|&i| match ops[i] {
            Op::Serve { draw } => draw,
            Op::Update { .. } => unreachable!("filtered to serves"),
        })
        .collect();
    let serve_timings: Vec<Timing> = serve_idx.iter().map(|&i| timings[i]).collect();
    report_generator(report, &serve_timings, &draws, false);
    let behind = timings.last().map_or(Duration::ZERO, Timing::lag);
    if behind > Duration::from_secs(1) {
        report.problem(format!(
            "backlog grew: the last operation started {behind:?} late"
        ));
    }
    let sent = serve_idx.len();
    let latencies = serve_timings.iter().map(|t| ms(t.latency())).collect();
    report_latency(report, latencies, sent, RI_LIMIT);
    let served: Vec<&ServiceResponse<Vec<f64>>> = responses.iter().flatten().collect();
    report_served(report, &served);
    report_fanout_state(report, &service, (sent * deploy::N_COMPONENTS) as u64);
    report_absent(report, "server.");
    let update_ms = stats::sorted(updates.iter().map(|(_, d)| ms(*d)).collect());
    let nu = update_ms.len();
    report.metric(
        "update.ms_per_batch_p50",
        percentile(&update_ms, 50.0).unwrap_or(0.0),
        "ms",
        nu,
    );
    // A run applies about a hundred batches: too few for a p99 with ten
    // samples beyond it, enough for a p90.
    report.metric(
        "update.ms_per_batch_p90",
        percentile(&update_ms, 90.0).unwrap_or(0.0),
        "ms",
        nu,
    );
    report.metric(
        "update.regenerated_per_batch",
        mean(
            &updates
                .iter()
                .map(|(r, _)| r.regenerated as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
        nu,
    );
    let rows: usize = updates.iter().map(|(r, _)| r.added + r.changed).sum();
    let busy: f64 = update_ms.iter().sum::<f64>() / 1e3;
    report.metric(
        "update.rows_per_s",
        if busy > 0.0 { rows as f64 / busy } else { 0.0 },
        "1/s",
        nu,
    );
    report.attempted = (sent + nu) as u64;
    report.failed = 0;

    // Correctness and accuracy: a twin deployment, set up the same way
    // now that the timed run is over, replays the timeline untimed; each
    // response, re-served as budgets of the sets it processed, must match
    // bit for bit on the same data state, and exact processing on that
    // state is the accuracy reference.
    let mut twin = inputs.setup().0;
    let mut accuracy = RecAccuracy::default();
    let mut mismatches = 0usize;
    let mut sample = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Update { batch } => {
                apply_batch(&inputs, &mut twin, batch);
            }
            Op::Serve { draw } => {
                let Some(resp) = &responses[i] else { continue };
                let req = &inputs.pool[draw];
                let sizes_now = deploy::synopsis_sizes(&twin);
                let what = format!("operation {i}");
                check_response(report, resp, &sizes_now, &what);
                check_predictions(report, resp, &what);
                let budgets = budgets_of(resp);
                let again = twin.serve_with_at(&req.active, |c| budgets[c], Instant::now());
                if again.response.bits() != resp.response.bits() {
                    mismatches += 1;
                }
                if draw % RI_SAMPLE_EVERY == 0 {
                    let exact = twin.serve_at(&req.active, &ExecutionPolicy::Exact, Instant::now());
                    accuracy.add(&resp.response, &exact.response, &req.actual);
                }
                if sample.len() < REPLAY_REQUESTS {
                    sample.push((req.active.clone(), budgets));
                }
            }
        }
    }
    if mismatches > 0 {
        report.problem(format!(
            "{mismatches} responses differ from a budgeted replay of the same sets on the same data state"
        ));
    }
    report.metric(
        "accuracy_loss_pct",
        accuracy.loss_pct(),
        "%",
        accuracy.samples(),
    );

    if args.trace {
        let untraced: Vec<f64> = serve_timings.iter().map(|t| ms(t.latency())).collect();
        // A fresh deployment, so the traced phase starts from the data
        // state the untraced run started from and replays its start.
        let fresh = inputs.setup().0;
        let tracer = Arc::new(Tracer::new(deploy::N_COMPONENTS));
        let mut traced = trace::traced(&fresh, &tracer);
        let half = traced_schedule(&schedule, args.seconds);
        let mut clock = WallClock::start_spinning();
        let mut traced_ms = Vec::new();
        let timings_b = load::drive(&mut clock, half, |i, c| match ops[i] {
            Op::Serve { draw } => {
                let due = c.instant(schedule[i]);
                let req = &inputs.pool[draw].active;
                let r = traced.serve_at(req, &policy, due);
                tracer.record(
                    "request",
                    due,
                    Instant::now(),
                    None,
                    req.trace_id(),
                    u32::MAX,
                );
                std::hint::black_box(r);
            }
            Op::Update { batch } => {
                let t = Instant::now();
                apply_batch(&inputs, &mut traced, batch);
                tracer.record(
                    "update",
                    t,
                    Instant::now(),
                    None,
                    0,
                    (batch % deploy::N_COMPONENTS) as u32,
                );
            }
        });
        for (i, t) in timings_b.iter().enumerate() {
            if matches!(ops[i], Op::Serve { .. }) {
                traced_ms.push(ms(t.latency()));
            }
        }
        report_overhead(report, &untraced, &traced_ms);
        let (mut spans, dropped) = tracer.take();
        report_serving_layers(report, &spans);
        let (reqs_c, policies): (Vec<_>, Vec<_>) = sample.into_iter().unzip();
        let layers = replay::replay_all(&service, &reqs_c, &policies, tracer.epoch());
        report_layers(report, &layers);
        spans.extend(layers.spans);
        write_trace(args, spans, dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values between two top-level keys of BENCHMARK.json.
    fn names_between(json: &str, from: &str, to: Option<&str>) -> Vec<String> {
        let start = json.find(from).expect("section present");
        let end = to.map_or(json.len(), |t| json.find(t).expect("section present"));
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote").to_string())
            .collect()
    }

    #[test]
    fn metric_and_workload_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            names_between(&json, "\"workloads\"", Some("\"end_to_end\"")),
            NAMES
        );
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(
            names_between(&json, "\"end_to_end\"", Some("\"per_layer\"")),
            names(END_TO_END)
        );
        assert_eq!(
            names_between(&json, "\"per_layer\"", None),
            names(PER_LAYER)
        );
        // Units, in the same order.
        let units: Vec<String> = json
            .split("\"unit\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote").to_string())
            .collect();
        let ours: Vec<String> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(_, u)| u.to_string())
            .collect();
        assert_eq!(units, ours);
    }

    #[test]
    fn traced_schedule_keeps_the_first_half_up_to_a_cap() {
        let s: Vec<Duration> = (0..10).map(|i| Duration::from_millis(100 * i)).collect();
        assert_eq!(traced_schedule(&s, 1.0).len(), 5);
        let long: Vec<Duration> = (0..60).map(Duration::from_secs).collect();
        assert_eq!(traced_schedule(&long, 60.0).len(), TRACED_SECONDS as usize);
    }

    #[test]
    fn update_batches_change_and_add_rows_round_robin() {
        let inputs = RecInputs::generate();
        let (c0, u0) = update_batch(&inputs, 0, 400);
        let (c1, _) = update_batch(&inputs, 1, 400);
        let (c12, _) = update_batch(&inputs, deploy::N_COMPONENTS, 400);
        assert_eq!((c0, c1, c12), (0, 1, 0));
        let changes = u0
            .iter()
            .filter(|u| matches!(u, DataUpdate::Change { id, .. } if *id < 400))
            .count();
        assert_eq!(changes, RI_CHANGE_ROWS);
        assert_eq!(u0.len(), RI_CHANGE_ROWS + RI_ADD_ROWS);
    }
}
