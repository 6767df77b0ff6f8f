//! Hot-path before/after microbenchmarks → `BENCH_hotpath.json`.
//!
//! ```text
//! hotpath [--quick] [--out PATH]
//! ```
//!
//! Records the serving-path perf trajectory as before/after pairs
//! (nanoseconds per operation, smaller is better):
//!
//! * `pearson` — allocating two-pass [`at_linalg::pearson_on_common_alloc`]
//!   vs the streaming single-pass [`at_linalg::pearson_on_common`].
//! * `pearson_blocked` — the same allocating baseline vs the serving
//!   kernel [`at_linalg::pearson_on_view`]: a prebuilt request view walked
//!   against the row's 64-column occupancy words. (The `pearson_blocked*`
//!   names predate the word layout; CI gates the rows by name.)
//! * `pearson_blocked_nnz{16,128,1024}`, `pearson_blocked_dense1024` — the
//!   word kernel vs the scalar streaming merge across synthetic row
//!   densities.
//! * `pearson_profile_member`, `pearson_profile_aggregate` — the word
//!   kernel vs the scalar merge on the row pairs a CF leg really weighs,
//!   on the deployment shape (240 items, ~80 ratings per user): held-out
//!   profiles against member rows and against 12-member aggregates.
//! * `rank` — eager full `O(m log m)` [`at_core::rank`] vs budget-bounded
//!   lazy [`at_core::rank_top`].
//! * `budgeted_replay` — a `Budgeted{sets: 5}` replay of the recommender
//!   deployment through the PR-1 eager/allocating path
//!   ([`at_bench::baseline`]) vs the current lazy/streaming
//!   `Component::execute`.
//! * `serve_batch_{1,8,64}` — end-to-end `Budgeted{sets: 5}` replay of a
//!   zipf-skewed request mix against the recommender deployment:
//!   per-request `FanOutService::serve` mapped sequentially over a batch
//!   (before) vs one `serve_batch` call sharing a single fan-out, synopsis
//!   pass, duplicate-request collapsing, and pooled outputs (after), at
//!   batch sizes 1, 8, and 64.
//!
//! The JSON is intentionally flat and hand-written (no serde in the
//! dependency closure): one object per pair with `name`, `before_ns`,
//! `after_ns`, and the derived `speedup`.

use std::fmt::Write as _;
use std::time::Instant;

use at_bench::baseline::{pearson_inputs, replay_baseline, replay_current, synthetic_correlations};
use at_bench::deployments::{build_recommender, DeployScale};
use at_bench::deployments::{kernel_rows, KERNEL_COLUMNS};
use at_core::{rank, rank_top};
use at_linalg::{
    pearson_on_common, pearson_on_common_alloc, pearson_on_view, RequestView, RowWords,
};

struct Pair {
    name: &'static str,
    before_ns: f64,
    after_ns: f64,
}

/// Best-trial ns/iteration of a before/after pair: `iters` runs of each
/// split into 7 trials (after one warmup run of each), keeping each side's
/// fastest trial mean. The minimum is robust to scheduler preemption and
/// frequency dips, which only ever slow a trial down — the shared-runner
/// noise that a single long mean folds in — and the two sides' trials
/// alternate, so a slow spell of the host lands on both sides of the
/// ratio instead of on every trial of one.
fn time_pair_ns(iters: usize, mut before: impl FnMut(), mut after: impl FnMut()) -> (f64, f64) {
    before();
    after();
    let trials = 7;
    let per_trial = (iters / trials).max(1);
    let trial = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..per_trial {
            f();
        }
        t.elapsed().as_secs_f64() * 1e9 / per_trial as f64
    };
    let (mut best_before, mut best_after) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..trials {
        best_before = best_before.min(trial(&mut before));
        best_after = best_after.min(trial(&mut after));
    }
    (best_before, best_after)
}

/// The request view of profile `(ca, va)` and the word index of `cb`,
/// with the view covering every column either side stores.
fn view_and_words(ca: &[u32], va: &[f64], cb: &[u32]) -> (RequestView, RowWords) {
    let width = ca.iter().chain(cb).max().map_or(0, |&c| c as usize + 1);
    (
        RequestView::build(width, ca, va, &[]),
        RowWords::from_sorted(cb),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());

    let (micro_iters, replay_rounds) = if quick { (2_000, 2) } else { (20_000, 6) };
    let mut pairs = Vec::new();

    // 1. Streaming vs allocating Pearson (one CF weight, 200-nnz rows).
    let (ca, va, cb, vb) = pearson_inputs(200);
    let (before, after) = time_pair_ns(
        micro_iters,
        || {
            std::hint::black_box(pearson_on_common_alloc(&ca, &va, &cb, &vb));
        },
        || {
            std::hint::black_box(pearson_on_common(&ca, &va, &cb, &vb));
        },
    );
    pairs.push(Pair {
        name: "pearson",
        before_ns: before,
        after_ns: after,
    });

    // 1b. The word kernel against the same allocating baseline: the row's
    // word index is built once (as RowStore/Synopsis hold it) and the view
    // once (as a component leg builds it per request).
    let (view, words) = view_and_words(&ca, &va, &cb);
    let (before, after) = time_pair_ns(
        micro_iters,
        || {
            std::hint::black_box(pearson_on_common_alloc(&ca, &va, &cb, &vb));
        },
        || {
            std::hint::black_box(pearson_on_view(&view, &words, &vb));
        },
    );
    pairs.push(Pair {
        name: "pearson_blocked",
        before_ns: before,
        after_ns: after,
    });

    // 1c. nnz sweep, word kernel vs scalar streaming merge on synthetic
    // rows: short and long sparse rows, and a dense row whose words are
    // all full.
    for &(nnz, dense, name) in &[
        (16usize, false, "pearson_blocked_nnz16"),
        (128, false, "pearson_blocked_nnz128"),
        (1024, false, "pearson_blocked_nnz1024"),
        (1024, true, "pearson_blocked_dense1024"),
    ] {
        let (ca, va, cb, vb) = if dense {
            // Contiguous columns: every word is full, so the kernel ranks
            // by bit position end to end.
            let cols: Vec<u32> = (0..nnz as u32).collect();
            let va: Vec<f64> = (0..nnz).map(|i| 1.0 + (i % 5) as f64).collect();
            let vb: Vec<f64> = (0..nnz).map(|i| 5.0 - (i % 4) as f64).collect();
            (cols.clone(), va, cols, vb)
        } else {
            pearson_inputs(nnz)
        };
        let (view, words) = view_and_words(&ca, &va, &cb);
        let (before, after) = time_pair_ns(
            micro_iters,
            || {
                std::hint::black_box(pearson_on_common(&ca, &va, &cb, &vb));
            },
            || {
                std::hint::black_box(pearson_on_view(&view, &words, &vb));
            },
        );
        pairs.push(Pair {
            name,
            before_ns: before,
            after_ns: after,
        });
    }

    // 1d. Real-shape kernel rows: every profile against every member row
    // and every aggregate, scalar merge vs the word kernel, ns per pair.
    // Every pair is first checked bit-identical.
    let rows = kernel_rows(32, 64);
    let views: Vec<RequestView> = rows
        .profiles
        .iter()
        .map(|p| RequestView::build(KERNEL_COLUMNS, &p.cols, &p.vals, &[]))
        .collect();
    let sweeps = if quick { 140 } else { 1400 };
    for (name, others) in [
        ("pearson_profile_member", &rows.members),
        ("pearson_profile_aggregate", &rows.aggregates),
    ] {
        let words: Vec<RowWords> = others
            .iter()
            .map(|r| RowWords::from_sorted(&r.cols))
            .collect();
        for (p, view) in rows.profiles.iter().zip(&views) {
            for (r, w) in others.iter().zip(&words) {
                let (ws, ns) = pearson_on_common(&p.cols, &p.vals, &r.cols, &r.vals);
                let (wv, nv) = pearson_on_view(view, w, &r.vals);
                assert!(
                    ns == nv && ws.to_bits() == wv.to_bits(),
                    "{name}: word kernel disagrees with the scalar merge"
                );
            }
        }
        let n_pairs = (rows.profiles.len() * others.len()) as f64;
        let (before, after) = time_pair_ns(
            sweeps,
            || {
                for p in &rows.profiles {
                    for r in others.iter() {
                        std::hint::black_box(pearson_on_common(&p.cols, &p.vals, &r.cols, &r.vals));
                    }
                }
            },
            || {
                for view in &views {
                    for (r, w) in others.iter().zip(&words) {
                        std::hint::black_box(pearson_on_view(view, w, &r.vals));
                    }
                }
            },
        );
        pairs.push(Pair {
            name,
            before_ns: before / n_pairs,
            after_ns: after / n_pairs,
        });
    }

    // 2. Lazy vs eager ranking (m = 1024 sets, budget 5 — the shape of a
    // Budgeted{5} request against a large synopsis). Clone cost is paid
    // identically on both sides.
    let corr = synthetic_correlations(1024);
    let (before, after) = time_pair_ns(
        micro_iters,
        || {
            std::hint::black_box(rank(corr.clone()));
        },
        || {
            let mut c = corr.clone();
            let mut prefix = rank_top(&mut c, 5);
            std::hint::black_box(prefix.get(4));
        },
    );
    pairs.push(Pair {
        name: "rank",
        before_ns: before,
        after_ns: after,
    });

    // 3. Budgeted recommender replay: every request against every
    // component under Budgeted{sets: 5}, current vs PR-1 baseline path.
    eprintln!("building recommender deployment...");
    let deployment = build_recommender(DeployScale::quick());
    let n_execs = deployment.requests.len() * deployment.service.len();
    // Warmup both paths once, then alternate rounds and keep each path's
    // fastest round (same noise rationale as `time_pair_ns`).
    replay_current(&deployment, 5);
    replay_baseline(&deployment, 5);
    let mut before_ns = f64::INFINITY;
    let mut after_ns = f64::INFINITY;
    for _ in 0..replay_rounds {
        before_ns = before_ns.min(replay_baseline(&deployment, 5) * 1e9 / n_execs as f64);
        after_ns = after_ns.min(replay_current(&deployment, 5) * 1e9 / n_execs as f64);
    }
    pairs.push(Pair {
        name: "budgeted_replay",
        before_ns,
        after_ns,
    });

    // 4. Batched vs sequential end-to-end serve: the same zipf-skewed
    // request mix (hot requests repeat, as in the paper's query logs)
    // through serve() one request at a time vs one serve_batch() call,
    // per-request ns at batch sizes 1/8/64.
    let policy = at_core::ExecutionPolicy::budgeted(5);
    let serve_rounds = if quick { 4 } else { 12 };
    let zipf = at_workloads::Zipf::new(deployment.requests.len(), 1.1);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(0x5EED);
    for &batch_size in &[1usize, 8, 64] {
        let batch: Vec<_> = (0..batch_size)
            .map(|_| deployment.requests[zipf.sample(&mut rng)].active.clone())
            .collect();
        // Warm both paths (and the output pool) once.
        for req in &batch {
            std::hint::black_box(deployment.service.serve(req, &policy));
        }
        std::hint::black_box(deployment.service.serve_batch(&batch, &policy));
        let mut seq_ns = f64::INFINITY;
        let mut batch_ns = f64::INFINITY;
        for _ in 0..serve_rounds {
            let t = Instant::now();
            for req in &batch {
                std::hint::black_box(deployment.service.serve(req, &policy));
            }
            seq_ns = seq_ns.min(t.elapsed().as_secs_f64() * 1e9 / batch_size as f64);
            let t = Instant::now();
            std::hint::black_box(deployment.service.serve_batch(&batch, &policy));
            batch_ns = batch_ns.min(t.elapsed().as_secs_f64() * 1e9 / batch_size as f64);
        }
        pairs.push(Pair {
            name: match batch_size {
                1 => "serve_batch_1",
                8 => "serve_batch_8",
                _ => "serve_batch_64",
            },
            before_ns: seq_ns,
            after_ns: batch_ns,
        });
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"hotpath\",\n");
    let _ = writeln!(
        json,
        "  \"scale\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    json.push_str("  \"unit\": \"ns_per_op\",\n  \"entries\": [\n");
    for (i, p) in pairs.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"before_ns\": {:.1}, \"after_ns\": {:.1}, \"speedup\": {:.3}}}",
            p.name,
            p.before_ns,
            p.after_ns,
            p.before_ns / p.after_ns
        );
        json.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_hotpath.json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    for p in &pairs {
        eprintln!(
            "{:<16} before {:>12.1} ns  after {:>12.1} ns  speedup {:>6.2}x",
            p.name,
            p.before_ns,
            p.after_ns,
            p.before_ns / p.after_ns
        );
    }
}
