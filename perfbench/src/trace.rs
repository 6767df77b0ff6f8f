//! Spans around the calls into each layer, recorded from the benchmark's
//! own code.
//!
//! [`TracedService`] wraps a service's hooks so that a deployment served
//! through the real server and fan-out records a span for every stage-1
//! pass, every stage-2 improvement and every compose, with the request's
//! trace id. Spans are kept in memory and written out when the run ends.
//! [`layer_times`] sums them by layer and reconciles them against each
//! request's root span.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use at_core::{ApproximateService, Component, ComposableService, Correlation, Ctx, FanOutService};
use at_recommender::ActiveUser;
use at_rtree::NodeId;

/// Spans kept per run; later ones are counted but not stored.
const SPAN_CAP: usize = 2_000_000;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer call, e.g. `stage1` or `compose`.
    pub name: &'static str,
    /// Offsets from the tracer's epoch.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// The name of the enclosing span of the same request (`None` for a
    /// root).
    pub parent: Option<&'static str>,
    /// Trace id of the request; 0 for spans that cover a whole batch.
    pub req: u64,
    /// Component index, or `u32::MAX` when the span is not per component.
    pub component: u32,
    /// Requests the call served: 1, or the width of a batch span.
    pub width: u32,
}

impl Span {
    /// Duration of the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span sink shared by every thread of a run.
///
/// Spans go to one shard per component (plus one for the rest), so the
/// fan-out's legs, which run one per component at a time, never contend
/// for a lock.
pub struct Tracer {
    epoch: Instant,
    shards: Vec<Mutex<Vec<Span>>>,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer for `components` components whose epoch is now.
    pub fn new(components: usize) -> Self {
        Tracer::with_epoch(Instant::now(), components)
    }

    /// A tracer whose offsets count from `epoch`.
    pub fn with_epoch(epoch: Instant, components: usize) -> Self {
        Tracer {
            epoch,
            shards: (0..=components).map(|_| Mutex::new(Vec::new())).collect(),
            dropped: AtomicU64::new(0),
        }
    }

    /// The instant offsets count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Offset of `t` from the epoch.
    fn offset(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }

    /// Store a span that ran from `start` to `end`.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<&'static str>,
        req: u64,
        component: u32,
    ) {
        self.push(Span {
            name,
            start: self.offset(start),
            end: self.offset(end),
            parent,
            req,
            component,
            width: 1,
        });
    }

    /// Time `f`, a call on component `component` that serves a batch of
    /// `width` requests, as root span `name`.
    pub fn time_batch<T>(
        &self,
        name: &'static str,
        component: u32,
        width: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.push(Span {
            name,
            start: self.offset(start),
            end: self.offset(Instant::now()),
            parent: None,
            req: 0,
            component,
            width: u32::try_from(width).unwrap_or(u32::MAX),
        });
        out
    }

    fn push(&self, span: Span) {
        let component = span.component;
        let shard = if component == u32::MAX {
            0
        } else {
            (component as usize + 1) % self.shards.len()
        };
        let mut spans = self.shards[shard]
            .lock()
            .expect("span sink poisoned by a panic");
        if spans.len() < SPAN_CAP / self.shards.len() {
            spans.push(span);
        } else {
            // Statistic only; publishes no other data.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Time `f` as span `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        component: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, req, component);
        out
    }

    /// Remove and return every stored span, in order of recording within
    /// each shard, and the count dropped past the cap.
    pub fn take(&self) -> (Vec<Span>, u64) {
        let mut spans = Vec::new();
        for shard in &self.shards {
            spans.append(&mut shard.lock().expect("span sink poisoned by a panic"));
        }
        (spans, self.dropped.swap(0, Ordering::Relaxed))
    }
}

/// Write spans as tab-separated lines: name, start µs, end µs, parent,
/// request id, component, width.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_us\tend_us\tparent\treq\tcomponent\twidth")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{:.3}\t{:.3}\t{}\t{:016x}\t{}\t{}",
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
            s.parent.unwrap_or("-"),
            s.req,
            if s.component == u32::MAX {
                "-".to_string()
            } else {
                s.component.to_string()
            },
            s.width,
        )?;
    }
    out.flush()
}

/// Sorted, disjoint intervals covering the same time as `parts`.
fn union(mut parts: Vec<(Duration, Duration)>) -> Vec<(Duration, Duration)> {
    parts.retain(|(s, e)| s < e);
    parts.sort();
    let mut merged: Vec<(Duration, Duration)> = Vec::with_capacity(parts.len());
    for (s, e) in parts {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Time two sorted, disjoint interval lists have in common.
fn overlap(a: &[(Duration, Duration)], b: &[(Duration, Duration)]) -> Duration {
    let (mut i, mut j) = (0, 0);
    let mut total = Duration::ZERO;
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if e > s {
            total += e - s;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Total time and count of one kind of layer call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Calls {
    /// Summed duration.
    pub time: Duration,
    /// Spans.
    pub calls: usize,
    /// Requests the spans served (a batch span counts its width).
    pub requests: usize,
}

impl Calls {
    fn add(&mut self, span: &Span) {
        self.time += span.duration();
        self.calls += 1;
        self.requests += span.width as usize;
    }
}

/// What the spans of a traced serving phase say about each layer.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Per-request stage 1 (`stage1`).
    pub stage1: Calls,
    /// Batched stage 1 (`stage1.batch`).
    pub stage1_batch: Calls,
    /// Stage-2 improvements, one span per ranked set.
    pub stage2: Calls,
    /// Compose.
    pub compose: Calls,
    /// Time at least one request was in flight: the union of the
    /// `request` root spans, each from its due instant to its response.
    pub in_flight: Duration,
    /// The part of `in_flight` in which at least one layer call ran.
    pub in_layers: Duration,
}

impl LayerTimes {
    /// The root spans' self time as a share of their time: the part of
    /// the time requests were in flight in which no layer call ran (queue
    /// hand-off, dispatch, fan-out spawn and join, ranking, idle wake-up).
    pub fn unaccounted_frac(&self) -> f64 {
        if self.in_flight.is_zero() {
            0.0
        } else {
            self.in_flight.saturating_sub(self.in_layers).as_secs_f64()
                / self.in_flight.as_secs_f64()
        }
    }
}

/// Sum the serving spans by layer and reconcile them against the
/// `request` root spans. Every span that is not a `request` is a layer
/// call.
pub fn layer_times(spans: &[Span]) -> LayerTimes {
    let mut t = LayerTimes::default();
    let mut roots = Vec::new();
    let mut layers = Vec::new();
    for s in spans {
        match s.name {
            "request" => {
                roots.push((s.start, s.end));
                continue;
            }
            "stage1" => t.stage1.add(s),
            "stage1.batch" => t.stage1_batch.add(s),
            "stage2" => t.stage2.add(s),
            "compose" => t.compose.add(s),
            _ => {}
        }
        layers.push((s.start, s.end));
    }
    let roots = union(roots);
    t.in_flight = roots.iter().map(|(s, e)| *e - *s).sum();
    t.in_layers = overlap(&roots, &union(layers));
    t
}

/// A cheap, stable request identity for spans: equal requests share it.
pub trait TraceId {
    /// The trace id (never 0, which marks batch spans).
    fn trace_id(&self) -> u64;
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

impl TraceId for ActiveUser {
    fn trace_id(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (&c, &v) in self.profile.cols.iter().zip(&self.profile.vals).take(8) {
            h = mix(mix(h, u64::from(c)), v.to_bits());
        }
        for &t in self.targets.iter().take(4) {
            h = mix(h, u64::from(t));
        }
        mix(h, self.profile.cols.len() as u64).max(1)
    }
}

/// A service whose hooks record spans and otherwise do exactly what the
/// wrapped service does.
pub struct TracedService<S> {
    inner: S,
    component: u32,
    tracer: Arc<Tracer>,
}

/// Rebuild `service` with every component's hooks wrapped, over the same
/// (copied) data, so both serve identical bits.
pub fn traced<S>(
    service: &FanOutService<S>,
    tracer: &Arc<Tracer>,
) -> FanOutService<TracedService<S>>
where
    S: ApproximateService + Clone + Sync,
    S::Request: Sync + TraceId,
    S::Output: Send,
{
    let components = service
        .components()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            Component::from_parts(
                c.dataset().clone(),
                c.store().clone(),
                TracedService {
                    inner: c.service().clone(),
                    component: i as u32,
                    tracer: Arc::clone(tracer),
                },
            )
        })
        .collect();
    FanOutService::from_components(components)
}

impl<S> ApproximateService for TracedService<S>
where
    S: ApproximateService,
    S::Request: TraceId,
{
    type Request = S::Request;
    type Output = S::Output;

    fn process_synopsis(
        &self,
        ctx: Ctx<'_>,
        req: &S::Request,
        corr: &mut Vec<Correlation>,
    ) -> S::Output {
        self.tracer.time(
            "stage1",
            Some("request"),
            req.trace_id(),
            self.component,
            || self.inner.process_synopsis(ctx, req, corr),
        )
    }

    fn process_synopsis_into(
        &self,
        ctx: Ctx<'_>,
        req: &S::Request,
        corr: &mut Vec<Correlation>,
        out: &mut S::Output,
    ) {
        self.tracer.time(
            "stage1",
            Some("request"),
            req.trace_id(),
            self.component,
            || self.inner.process_synopsis_into(ctx, req, corr, out),
        )
    }

    fn process_synopsis_batch(
        &self,
        ctx: Ctx<'_>,
        reqs: &[S::Request],
        corrs: &mut [Vec<Correlation>],
        outs: &mut Vec<S::Output>,
    ) {
        self.tracer
            .time_batch("stage1.batch", self.component, reqs.len(), || {
                self.inner.process_synopsis_batch(ctx, reqs, corrs, outs)
            })
    }

    fn improve(
        &self,
        ctx: Ctx<'_>,
        req: &S::Request,
        out: &mut S::Output,
        node: NodeId,
        members: &[u64],
    ) {
        self.tracer.time(
            "stage2",
            Some("request"),
            req.trace_id(),
            self.component,
            || self.inner.improve(ctx, req, out, node, members),
        )
    }

    fn process_exact(&self, ctx: Ctx<'_>, req: &S::Request) -> S::Output {
        self.tracer.time(
            "exact",
            Some("request"),
            req.trace_id(),
            self.component,
            || self.inner.process_exact(ctx, req),
        )
    }
}

impl<S> ComposableService for TracedService<S>
where
    S: ComposableService,
    S::Request: TraceId,
{
    type Response = S::Response;

    fn compose(&self, req: &S::Request, parts: &[S::Output]) -> S::Response {
        self.tracer
            .time("compose", Some("request"), req.trace_id(), u32::MAX, || {
                self.inner.compose(req, parts)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            name: "x",
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            parent: None,
            req: 1,
            component: 0,
            width: 1,
        }
    }

    fn named(name: &'static str, start: u64, end: u64) -> Span {
        Span {
            name,
            ..span(start, end)
        }
    }

    #[test]
    fn tracer_keeps_spans_in_order_of_recording() {
        let tracer = Tracer::new(1);
        let t0 = Instant::now();
        tracer.record("a", t0, t0, None, 1, 0);
        tracer.time("b", Some("a"), 1, 0, || ());
        let (spans, dropped) = tracer.take();
        assert_eq!(dropped, 0);
        assert_eq!(spans.iter().map(|s| s.name).collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(spans[1].parent, Some("a"));
        assert!(tracer.take().0.is_empty());
    }

    #[test]
    fn layer_times_reconcile_layers_against_overlapping_requests() {
        let spans = [
            // Two requests in flight over 0..100 and 50..150: 150 µs.
            named("request", 0, 100),
            named("request", 50, 150),
            // Layer calls cover 10..40 and 60..120 (two legs overlap
            // there), plus a call outside any request that is not counted.
            named("stage1", 10, 40),
            named("stage2", 60, 100),
            named("stage2", 80, 120),
            named("compose", 200, 210),
            Span {
                width: 4,
                ..named("stage1.batch", 0, 0)
            },
        ];
        let t = layer_times(&spans);
        assert_eq!(t.in_flight, Duration::from_micros(150));
        assert_eq!(t.in_layers, Duration::from_micros(90));
        assert!((t.unaccounted_frac() - 60.0 / 150.0).abs() < 1e-12);
        assert_eq!(t.stage2.calls, 2);
        assert_eq!(t.stage2.time, Duration::from_micros(80));
        assert_eq!(t.stage1_batch.requests, 4);
        assert_eq!(t.compose.time, Duration::from_micros(10));
    }

    #[test]
    fn batch_spans_record_their_width() {
        let tracer = Tracer::new(2);
        tracer.time_batch("stage1.batch", 1, 7, || ());
        let (spans, _) = tracer.take();
        assert_eq!(
            (spans[0].width, spans[0].req, spans[0].component),
            (7, 0, 1)
        );
    }
}
