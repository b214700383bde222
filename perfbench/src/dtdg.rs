//! `train-dtdg`: DTDG link prediction on sx-stackoverflow at scale 64
//! (TGCN, hidden 32, 8 features, seq-len 10, `GpmaGraph`, seastar) — the
//! paper's training workload, driven through
//! `stgraph::train::train_epoch_link_prediction`.
//!
//! The traced run wraps the `GpmaGraph` in [`TimedGraph`] and the seastar
//! backend in [`TimedBackend`], and rebuilds the epoch loop from public
//! calls ([`traced_epoch`]) so every layer boundary gets a span. Its
//! per-epoch BCE must equal the untraced loop's bit for bit.

use crate::metrics::Metrics;
use crate::report::Report;
use crate::{stats, trace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use stgraph::backend::{create_backend, AggregationBackend};
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph::tgnn::{RecurrentCell, Tgcn};
use stgraph::train::{
    edge_logits, eval_link_prediction, link_prediction_batches, train_epoch_link_prediction,
    LinkPredBatch,
};
use stgraph_dyngraph::{DtdgGraph, DtdgSource, GpmaGraph};
use stgraph_graph::base::{STGraphBase, Snapshot};
use stgraph_seastar::exec::ExecOutput;
use stgraph_seastar::ir::{Id, Program};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::optim::Adam;
use stgraph_tensor::{PoolScope, Tape, Tensor, Var};

const DATASET: &str = "SO";
const SCALE: usize = 64;
const TIMESTAMPS: usize = 20;
const PCT_CHANGE: f64 = 5.0;
const FEATURES: usize = 8;
const HIDDEN: usize = 32;
const SEQ_LEN: usize = 10;
const LR: f32 = 0.01;
const MAX_POS: usize = 512;
/// Epochs per training session (fresh model each session).
const EPOCHS: usize = 5;
/// Quality floor on the eval ROC-AUC after one session.
const AUC_FLOOR: f64 = 0.75;
/// Relative tolerance between the traced and untraced loops' per-epoch
/// BCE once training has run a backward pass (see `run_traced`).
const LOSS_RTOL: f64 = 1e-5;
/// An epoch slower than this counts as missing the epoch limit.
const EPOCH_LIMIT: Duration = Duration::from_secs(60);

/// Inputs made from the seed: the dataset stream is fixed by its name;
/// node features, model init and link-prediction negatives come from the
/// seed (the same draw order as `train --dataset SO --seed <seed>`).
struct Data {
    src: DtdgSource,
    batches: Vec<LinkPredBatch>,
    generate_s: f64,
}

fn make_data(seed: u64) -> Data {
    let t = Instant::now();
    let raw = stgraph_datasets::load_dynamic(stgraph_datasets::info(DATASET).name, SCALE);
    let mut src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, PCT_CHANGE);
    src.snapshots.truncate(TIMESTAMPS);
    let generate_s = t.elapsed().as_secs_f64();
    let batches = link_prediction_batches(&src, MAX_POS, seed);
    Data {
        src,
        batches,
        generate_s,
    }
}

/// Model, optimizer and node features, in the `train` binary's draw order.
fn make_model(seed: u64, num_nodes: usize) -> (Tgcn, Adam, Tensor) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut params = ParamSet::new();
    let cell = Tgcn::new(&mut params, "cell", FEATURES, HIDDEN, &mut rng);
    let opt = Adam::new(params, LR);
    let feats = Tensor::rand_uniform((num_nodes, FEATURES), -1.0, 1.0, &mut rng);
    (cell, opt, feats)
}

fn plain_exec(src: &DtdgSource) -> TemporalExecutor {
    let graph: Rc<RefCell<dyn DtdgGraph>> = Rc::new(RefCell::new(GpmaGraph::new(src)));
    TemporalExecutor::new(create_backend("seastar"), GraphSource::Dynamic(graph))
}

fn traced_exec(src: &DtdgSource) -> TemporalExecutor {
    let graph: Rc<RefCell<dyn DtdgGraph>> = Rc::new(RefCell::new(TimedGraph(GpmaGraph::new(src))));
    TemporalExecutor::new(
        Box::new(TimedBackend(create_backend("seastar"))),
        GraphSource::Dynamic(graph),
    )
}

/// A `DtdgGraph` that opens a span around every snapshot request.
pub struct TimedGraph<G: DtdgGraph>(pub G);

impl<G: DtdgGraph> DtdgGraph for TimedGraph<G> {
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }

    fn num_timestamps(&self) -> usize {
        self.0.num_timestamps()
    }

    fn get_graph(&mut self, t: usize) -> Snapshot {
        let _s = trace::span("dyngraph.get_graph");
        self.0.get_graph(t)
    }

    fn get_backward_graph(&mut self, t: usize) -> Snapshot {
        let _s = trace::span("dyngraph.get_backward_graph");
        self.0.get_backward_graph(t)
    }

    fn take_update_time(&mut self) -> Duration {
        self.0.take_update_time()
    }
}

/// An `AggregationBackend` that opens a span around every kernel program
/// launch, named by the pass that launched it.
pub struct TimedBackend(pub Box<dyn AggregationBackend>);

impl AggregationBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn execute(
        &self,
        prog: &Program,
        graph: &dyn STGraphBase,
        inputs: &[&Tensor],
        node_consts: &[&Tensor],
        edge_consts: &[&Tensor],
        mat_consts: &[&Tensor],
        save: &[Id],
    ) -> ExecOutput {
        let _s = trace::span(if trace::inside("tensor.backward") {
            "seastar.execute_bwd"
        } else {
            "seastar.execute_fwd"
        });
        self.0.execute(
            prog,
            graph,
            inputs,
            node_consts,
            edge_consts,
            mat_consts,
            save,
        )
    }
}

/// Boundary samples the traced loop takes after each sequence's forward
/// pass, where live memory peaks.
#[derive(Default)]
struct Peaks {
    tracked_bytes: u64,
    state_stack_bytes: u64,
}

/// `train_epoch_link_prediction`, rebuilt from public calls with a span
/// at every layer boundary. Must return the same loss bit for bit.
fn traced_epoch(
    cell: &Tgcn,
    exec: &TemporalExecutor,
    opt: &mut Adam,
    features: &Tensor,
    batches: &[LinkPredBatch],
    peaks: &mut Peaks,
) -> f32 {
    let _epoch = trace::span("train.epoch");
    let total = batches.len();
    let _pool = PoolScope::new();
    let mut carried: Option<Tensor> = None;
    let mut epoch_loss = 0.0f64;
    let mut start = 0usize;
    while start < total {
        let end = (start + SEQ_LEN).min(total);
        {
            let _s = trace::span("tensor.optimizer");
            opt.zero_grad();
        }
        let tape = Tape::new();
        let mut h: Option<Var> = carried.take().map(|t| tape.constant(t));
        let mut seq_loss: Option<Var> = None;
        for (t, batch) in batches.iter().enumerate().take(end).skip(start) {
            let x = tape.constant(features.clone());
            let h_new = {
                let _s = trace::span("core.step");
                cell.step(&tape, exec, t, &x, h.as_ref())
            };
            let logits = {
                let _s = trace::span("core.edge_logits");
                edge_logits(&h_new, batch)
            };
            let _s = trace::span("tensor.loss");
            let l = logits.bce_with_logits_loss(&batch.labels);
            seq_loss = Some(match seq_loss {
                Some(acc) => acc.add(&l),
                None => l,
            });
            h = Some(h_new);
        }
        let loss = {
            let _s = trace::span("tensor.loss");
            seq_loss
                .expect("non-empty sequence")
                .mul_scalar(1.0 / (end - start) as f32)
        };
        epoch_loss += loss.value().item() as f64 * (end - start) as f64;
        carried = h.map(|v| v.value().clone());
        let tracked: u64 = stgraph_tensor::mem::all_stats()
            .iter()
            .map(|(_, s)| s.live)
            .sum();
        peaks.tracked_bytes = peaks.tracked_bytes.max(tracked);
        peaks.state_stack_bytes = peaks
            .state_stack_bytes
            .max(exec.state_stack_stats().3 as u64);
        {
            let _s = trace::span("tensor.backward");
            tape.backward(&loss);
        }
        {
            let _s = trace::span("tensor.optimizer");
            opt.step();
        }
        start = end;
    }
    (epoch_loss / total as f64) as f32
}

/// One untraced session: fresh store and model, `EPOCHS` epochs, eval.
struct Session {
    setup_s: f64,
    labels: usize,
    generate_s: f64,
    epoch_s: Vec<f64>,
    losses: Vec<f32>,
    auc: f32,
}

/// Set-ups per session: the session trains on the last one, and its
/// `setup_s` is their median.
const SETUPS_PER_SESSION: usize = 3;

fn untraced_session(seed: u64) -> Session {
    let mut setups = Vec::with_capacity(SETUPS_PER_SESSION);
    let mut built = None;
    for _ in 0..SETUPS_PER_SESSION {
        let t = Instant::now();
        let data = make_data(seed);
        let exec = plain_exec(&data.src);
        let model = make_model(seed, data.src.num_nodes);
        setups.push(t.elapsed().as_secs_f64());
        built = Some((data, exec, model));
    }
    let (data, exec, (cell, mut opt, feats)) = built.expect("at least one set-up");
    let setup_s = stats::median(&setups).expect("set-ups ran");
    let mut epoch_s = Vec::with_capacity(EPOCHS);
    let mut losses = Vec::with_capacity(EPOCHS);
    for _ in 0..EPOCHS {
        let t = Instant::now();
        let loss =
            train_epoch_link_prediction(&cell, &exec, &mut opt, &feats, &data.batches, SEQ_LEN);
        epoch_s.push(t.elapsed().as_secs_f64());
        losses.push(loss);
    }
    let (_, auc, _) = eval_link_prediction(&cell, &exec, &feats, &data.batches, SEQ_LEN);
    Session {
        setup_s,
        labels: data.batches.iter().map(|b| b.labels.numel()).sum(),
        generate_s: data.generate_s,
        epoch_s,
        losses,
        auc,
    }
}

fn check_session(r: &mut Report, s: &Session) {
    r.check(s.losses.iter().all(|l| l.is_finite()), || {
        format!("train-dtdg: non-finite epoch loss {:?}", s.losses)
    });
    r.check(f64::from(s.auc) >= AUC_FLOOR, || {
        format!("train-dtdg: eval AUC {} below floor {AUC_FLOOR}", s.auc)
    });
}

/// End-to-end run: sessions until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, r: &mut Report, m: &mut Metrics) {
    let start = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    while sessions.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let s = untraced_session(seed);
        check_session(r, &s);
        sessions.push(s);
    }
    // Each session's first epoch warms the store and the buffer pool.
    let epochs: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.epoch_s[1..].to_vec())
        .collect();
    let setups: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    let p50 = stats::median(&epochs).expect("epochs ran");
    let (tail, tail_p) = stats::windowed_tail(&epochs).expect("epochs ran");
    let labels = sessions[0].labels;
    let within = sessions
        .iter()
        .flat_map(|s| s.epoch_s.iter())
        .filter(|&&e| e <= EPOCH_LIMIT.as_secs_f64())
        .count();
    r.attempted = (sessions.len() * EPOCHS) as u64;
    r.failed = 0;
    let aucs: Vec<f64> = sessions.iter().map(|s| f64::from(s.auc)).collect();
    let auc = stats::median(&aucs).expect("sessions ran");
    m.set("setup_s", stats::median(&setups).expect("sessions ran"));
    m.set("p50_ms", p50 * 1e3);
    m.set("p99_ms", tail * 1e3);
    m.set("throughput_per_s", labels as f64 / p50);
    m.set("slo_ok_frac", within as f64 / r.attempted as f64);
    m.set("quality", auc);
    r.context_num("epoch_s", p50);
    r.context_num("auc", auc);
    r.context_num("tail_percentile", tail_p);
    r.context_num("samples.epochs", epochs.len() as f64);
    r.context_num("samples.setups", setups.len() as f64);
    r.context_num(
        "datasets.generate_s",
        sessions.iter().map(|s| s.generate_s).sum::<f64>() / sessions.len() as f64,
    );
}

/// Traced run: pairs of (untraced session, traced session) from the same
/// seed until `seconds` have passed; compares their losses bit for bit and
/// splits the traced epochs' time across layers.
pub fn run_traced(seed: u64, seconds: f64, r: &mut Report, m: &mut Metrics) -> Vec<trace::Span> {
    let start = Instant::now();
    let mut untraced_epochs = Vec::new();
    let mut traced_epochs = Vec::new();
    let mut generate_s = Vec::new();
    let mut peaks = Peaks::default();
    let mut spans = Vec::new();
    let (mut rebalances, mut edges_updated, mut pool_hits, mut pool_misses) =
        (0u64, 0u64, 0u64, 0u64);
    let mut traced_n = 0usize;
    let mut last_bit_epochs = 0usize;
    while traced_n == 0 || start.elapsed().as_secs_f64() < seconds {
        let base = untraced_session(seed);
        check_session(r, &base);
        untraced_epochs.extend_from_slice(&base.epoch_s[1..]);
        generate_s.push(base.generate_s);

        let data = make_data(seed);
        // The wrapped store and backend must compute what the plain ones
        // do: a forward-only evaluation (no atomic gradient scatter) from
        // the same initial model is compared bit for bit.
        let eval = |exec: &TemporalExecutor| {
            let (cell, _, feats) = make_model(seed, data.src.num_nodes);
            let (loss, auc, _) = eval_link_prediction(&cell, exec, &feats, &data.batches, SEQ_LEN);
            (loss.to_bits(), auc.to_bits())
        };
        let plain = eval(&plain_exec(&data.src));
        let wrapped = eval(&traced_exec(&data.src));
        r.check(plain == wrapped, || {
            format!("train-dtdg: wrapped forward {wrapped:?} != plain forward {plain:?} (loss, auc bits)")
        });
        let exec = traced_exec(&data.src);
        let (cell, mut opt, feats) = make_model(seed, data.src.num_nodes);
        let c_reb = stgraph_telemetry::counter("pma.rebalances");
        let c_ins = stgraph_telemetry::counter("gpma.edges_inserted");
        let c_del = stgraph_telemetry::counter("gpma.edges_deleted");
        for e in 0..EPOCHS {
            // The first epoch warms up like the untraced one; it is not
            // measured, so spans and counters cover epochs 2.. only.
            let measured = e > 0;
            let (reb0, upd0, pool0) = (
                c_reb.get(),
                c_ins.get() + c_del.get(),
                stgraph_tensor::pool::stats(),
            );
            trace::enable(measured);
            let t = Instant::now();
            let loss = traced_epoch(&cell, &exec, &mut opt, &feats, &data.batches, &mut peaks);
            let dt = t.elapsed().as_secs_f64();
            trace::enable(false);
            // Gradients of row gathers are scattered with parallel atomic
            // float adds (GPU semantics, see DESIGN.md), so two training
            // runs may differ in the last bits from the first backward on.
            let (a, b) = (f64::from(loss), f64::from(base.losses[e]));
            r.check((a - b).abs() <= LOSS_RTOL * b.abs(), || {
                format!(
                    "train-dtdg: traced epoch {} BCE {loss} differs from untraced {}",
                    e + 1,
                    base.losses[e]
                )
            });
            if loss.to_bits() != base.losses[e].to_bits() {
                last_bit_epochs += 1;
            }
            if measured {
                traced_epochs.push(dt);
                traced_n += 1;
                let pool1 = stgraph_tensor::pool::stats();
                rebalances += c_reb.get() - reb0;
                edges_updated += c_ins.get() + c_del.get() - upd0;
                pool_hits += pool1.hits - pool0.hits;
                pool_misses += pool1.misses - pool0.misses;
            }
        }
        spans.extend(trace::take());
    }
    let n = traced_n as f64;
    let t = trace::totals(&spans);
    let per_epoch_ms = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e6 / n);
    let self_ms = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6 / n);
    let count = |name: &str| t.get(name).map_or(0.0, |x| x.count as f64 / n);
    m.set("dyngraph.get_graph_ms", per_epoch_ms("dyngraph.get_graph"));
    m.set(
        "dyngraph.get_backward_graph_ms",
        per_epoch_ms("dyngraph.get_backward_graph"),
    );
    m.set(
        "dyngraph.snapshot_calls",
        count("dyngraph.get_graph") + count("dyngraph.get_backward_graph"),
    );
    m.set("pma.rebalances", rebalances as f64 / n);
    m.set("gpma.edges_updated", edges_updated as f64 / n);
    m.set(
        "seastar.execute_fwd_ms",
        per_epoch_ms("seastar.execute_fwd"),
    );
    m.set(
        "seastar.execute_bwd_ms",
        per_epoch_ms("seastar.execute_bwd"),
    );
    m.set(
        "seastar.launches",
        count("seastar.execute_fwd") + count("seastar.execute_bwd"),
    );
    m.set("core.step_self_ms", self_ms("core.step"));
    m.set("core.edge_logits_ms", self_ms("core.edge_logits"));
    m.set("tensor.loss_ms", self_ms("tensor.loss"));
    m.set("tensor.backward_self_ms", self_ms("tensor.backward"));
    m.set("tensor.optimizer_ms", self_ms("tensor.optimizer"));
    m.set("train.unattributed_ms", self_ms("train.epoch"));
    m.set(
        "tensor.pool_hit_frac",
        pool_hits as f64 / (pool_hits + pool_misses).max(1) as f64,
    );
    m.set("tensor.peak_tracked_mb", peaks.tracked_bytes as f64 / 1e6);
    m.set(
        "core.state_stack_peak_mb",
        peaks.state_stack_bytes as f64 / 1e6,
    );
    m.set(
        "datasets.generate_s",
        stats::median(&generate_s).expect("sessions ran"),
    );
    let traced = stats::median(&traced_epochs).expect("traced epochs ran");
    let untraced = stats::median(&untraced_epochs).expect("untraced epochs ran");
    m.set("trace.overhead_frac", traced / untraced - 1.0);
    r.attempted = traced_n as u64;
    r.context_num("samples.traced_epochs", n);
    r.context_num("epochs_not_bitwise_equal", last_bit_epochs as f64);
    r.context_num("samples.untraced_epochs", untraced_epochs.len() as f64);

    let epoch_ms = per_epoch_ms("train.epoch");
    let rows = [
        ("dyngraph.get_graph", self_ms("dyngraph.get_graph")),
        (
            "dyngraph.get_backward_graph",
            self_ms("dyngraph.get_backward_graph"),
        ),
        ("seastar.execute_fwd", self_ms("seastar.execute_fwd")),
        ("seastar.execute_bwd", self_ms("seastar.execute_bwd")),
        ("core.step (self)", self_ms("core.step")),
        ("core.edge_logits", self_ms("core.edge_logits")),
        ("tensor.loss", self_ms("tensor.loss")),
        ("tensor.backward (self)", self_ms("tensor.backward")),
        ("tensor.optimizer", self_ms("tensor.optimizer")),
        ("unattributed (train.epoch self)", self_ms("train.epoch")),
    ];
    crate::print_table(
        "train-dtdg: self time per traced epoch",
        "ms",
        &rows,
        epoch_ms,
    );
    spans
}
