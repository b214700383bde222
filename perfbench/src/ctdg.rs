//! `train-ctdg`: continuous-time link prediction with the `CtdgConfig`
//! defaults (2,000 nodes, 40,000 events, dim 32, k 10, batch 200, the
//! `recent` sampler), driven through `stgraph_ctdg::CtdgWorkload`.
//!
//! The memory/GRU work happens inside `CtdgWorkload::run`, which has no
//! public seams; until the program carries its own spans, the traced run
//! times `run` as one span and measures the event store and the temporal
//! sampler by replaying the workload's own stream and queries through
//! `CtdgStore::append_batch` and `sampler::sample`.

use crate::metrics::Metrics;
use crate::report::Report;
use crate::{stats, trace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use stgraph_ctdg::{sample, CtdgConfig, CtdgStore, CtdgWorkload, SamplerConfig, Strategy};
use stgraph_datasets::{fraud_stream, FraudConfig, FraudEvent};

/// Epochs per `run()`; each run starts from a fresh workload.
const EPOCHS: usize = 1;
/// Set-ups per run: the run trains on the last one, and its `setup_s`
/// is their median.
const SETUPS_PER_RUN: usize = 3;
/// Quality floor on the held-out test ROC-AUC.
const AUC_FLOOR: f64 = 0.99;
/// A run slower than this per epoch counts as missing the epoch limit.
const EPOCH_LIMIT_S: f64 = 60.0;
/// The chunk size `CtdgWorkload::new` appends the stream in.
const APPEND_CHUNK: usize = 4096;

fn config(seed: u64) -> CtdgConfig {
    CtdgConfig {
        num_nodes: 2000,
        num_events: 40_000,
        dim: 32,
        k: 10,
        batch_size: 200,
        epochs: EPOCHS,
        lr: 0.01,
        strategy: Strategy::Recent,
        seed,
    }
}

/// One fresh workload, built `SETUPS_PER_RUN` times and trained once.
struct Iteration {
    setup_s: f64,
    run_s: f64,
    train_events: usize,
    test_auc: f64,
}

fn iteration(seed: u64, r: &mut Report) -> Iteration {
    let mut setups = Vec::with_capacity(SETUPS_PER_RUN);
    let mut built = None;
    for _ in 0..SETUPS_PER_RUN {
        let t = Instant::now();
        built = Some({
            let _s = trace::span("ctdg.workload_new");
            CtdgWorkload::new(config(seed))
        });
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up");
    let setup_s = stats::median(&setups).expect("set-ups ran");
    let t = Instant::now();
    let report = {
        let _s = trace::span("ctdg.run");
        w.run()
    };
    let run_s = t.elapsed().as_secs_f64();
    r.check(report.epochs.iter().all(|e| e.loss.is_finite()), || {
        format!("train-ctdg: non-finite loss in {:?}", report.epochs)
    });
    r.check(f64::from(report.test_auc) >= AUC_FLOOR, || {
        format!("train-ctdg: test AUC {} below {AUC_FLOOR}", report.test_auc)
    });
    Iteration {
        setup_s,
        run_s,
        train_events: report.split.0,
        test_auc: f64::from(report.test_auc),
    }
}

/// End-to-end run: fresh workloads until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, r: &mut Report, m: &mut Metrics) {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut epochs = Vec::new();
    let mut aucs = Vec::new();
    let mut train_events = 0;
    while setups.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let it = iteration(seed, r);
        setups.push(it.setup_s);
        epochs.push(it.run_s / EPOCHS as f64);
        aucs.push(it.test_auc);
        train_events = it.train_events;
    }
    let p50 = stats::median(&epochs).expect("runs ran");
    let (tail, tail_p) = stats::windowed_tail(&epochs).expect("runs ran");
    r.attempted = (epochs.len() * EPOCHS) as u64;
    let within = epochs.iter().filter(|&&e| e <= EPOCH_LIMIT_S).count() * EPOCHS;
    let auc = stats::median(&aucs).expect("runs ran");
    m.set("setup_s", stats::median(&setups).expect("runs ran"));
    m.set("p50_ms", p50 * 1e3);
    m.set("p99_ms", tail * 1e3);
    m.set("throughput_per_s", train_events as f64 / p50);
    m.set("slo_ok_frac", within as f64 / r.attempted as f64);
    m.set("quality", auc);
    r.context_num("epoch_s", p50);
    r.context_num("auc", auc);
    r.context_num("tail_percentile", tail_p);
    r.context_num("samples.runs", epochs.len() as f64);
}

/// One epoch's sampler queries, shaped like the workload's: per training
/// batch, the sources, the destinations and one corrupted destination per
/// event, each at its event's time.
fn epoch_queries(
    events: &[FraudEvent],
    num_nodes: u32,
    batch: usize,
    seed: u64,
) -> Vec<Vec<(u32, u64)>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let train_end = events.len() * 70 / 100;
    events[..train_end]
        .chunks(batch)
        .map(|slice| {
            let mut q: Vec<(u32, u64)> = slice.iter().map(|e| (e.edge.src, e.edge.t)).collect();
            q.extend(slice.iter().map(|e| (e.edge.dst, e.edge.t)));
            q.extend(slice.iter().map(|e| {
                let neg = loop {
                    let c = rng.gen_range(0..num_nodes);
                    if c != e.edge.src && c != e.edge.dst {
                        break c;
                    }
                };
                (neg, e.edge.t)
            }));
            q
        })
        .collect()
}

/// Traced run: an untraced and a traced workload per round until
/// `seconds` have passed, plus replays of the store and the sampler.
pub fn run_traced(seed: u64, seconds: f64, r: &mut Report, m: &mut Metrics) -> Vec<trace::Span> {
    let cfg = config(seed);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut spans = Vec::new();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let it = iteration(seed, r);
        untraced.push(it.setup_s + it.run_s);
        trace::enable(true);
        let t = Instant::now();
        {
            let _root = trace::span("ctdg.iteration");
            iteration(seed, r);
        }
        traced.push(t.elapsed().as_secs_f64());
        trace::enable(false);
        spans.extend(trace::take());
    }

    // Replays of the layers inside `run`, on the workload's own inputs.
    let t = Instant::now();
    let events: Vec<FraudEvent> =
        fraud_stream(&FraudConfig::new(cfg.num_nodes, cfg.num_events, seed)).collect();
    let generate_s = t.elapsed().as_secs_f64();
    let mut ingest_rates = Vec::new();
    for _ in 0..3 {
        let mut store = CtdgStore::new(cfg.num_nodes);
        let chunks: Vec<Vec<_>> = events
            .chunks(APPEND_CHUNK)
            .map(|c| c.iter().map(|e| e.edge).collect())
            .collect();
        let t = Instant::now();
        for c in &chunks {
            store.append_batch(c);
        }
        ingest_rates.push(events.len() as f64 / t.elapsed().as_secs_f64());
    }
    let mut store = CtdgStore::new(cfg.num_nodes);
    for c in events.chunks(APPEND_CHUNK) {
        store.append_batch(&c.iter().map(|e| e.edge).collect::<Vec<_>>());
    }
    let queries = epoch_queries(&events, cfg.num_nodes as u32, cfg.batch_size, seed);
    let n_queries: usize = queries.iter().map(Vec::len).sum();
    let mut samples = 0usize;
    let t = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        let ns = sample(
            store.index(),
            q,
            &SamplerConfig {
                k: cfg.k,
                strategy: cfg.strategy,
                seed: seed ^ i as u64,
            },
        );
        samples += ns.total_valid();
    }
    let sample_s = t.elapsed().as_secs_f64();

    let tot = trace::totals(&spans);
    let n = traced.len() as f64;
    let mean_s = |name: &str| tot.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e9 / n);
    m.set("datasets.generate_s", generate_s);
    m.set(
        "ctdg.ingest_events_per_s",
        stats::median(&ingest_rates).expect("three replays"),
    );
    m.set("ctdg.sample_queries_per_s", n_queries as f64 / sample_s);
    m.set("ctdg.samples", samples as f64);
    let u = stats::median(&untraced).expect("rounds ran");
    let tr = stats::median(&traced).expect("rounds ran");
    m.set("trace.overhead_frac", tr / u - 1.0);
    r.attempted = traced.len() as u64;
    r.context_num("samples.traced_runs", n);
    r.context_num("ctdg.sample_replay_s", sample_s);
    r.context_str(
        "note",
        "memory/GRU self time stays inside ctdg.run until the program carries its own spans",
    );
    let rows = [
        (
            "ctdg.workload_new (stream + store + model)",
            mean_s("ctdg.workload_new"),
        ),
        (
            "ctdg.run (memory/GRU/sampler, not split)",
            mean_s("ctdg.run"),
        ),
        ("unattributed", mean_s("ctdg.iteration")),
    ];
    let iteration_s = tot
        .get("ctdg.iteration")
        .map_or(0.0, |x| x.total_ns as f64 / 1e9 / n);
    crate::print_table(
        "train-ctdg: self time per traced run",
        "s",
        &rows,
        iteration_s,
    );
    eprintln!(
        "  replays: fraud_stream {generate_s:.3} s; sampler over one epoch's {n_queries} \
         queries {sample_s:.3} s (inside ctdg.run)"
    );
    spans
}
