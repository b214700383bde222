//! `serve-read` and `serve-mixed`: an in-process server, assembled from
//! `EngineHost::spawn` + `ServeContext` + `NetServer::start` the way the
//! `net` binary does, driven over loopback sockets.
//!
//! Both serve MO at scale 64 to 4 tenants chosen Zipf(1.1), uniform nodes,
//! open-loop Poisson arrivals at 300 requests/s over at most `nproc`
//! connections that alternate HTTP/1.1 keep-alive and the binary protocol.
//! `serve-mixed` makes 5% of requests `/ingest` of 4 random edges.
//!
//! Hygiene: only ephemeral loopback ports; admission quotas far above the
//! offered load; `ServeConfig::default()`; the temporary model directory
//! lives under `.perfbench/` and is removed, and the server and engine
//! thread shut down, on every exit path ([`Stack`]'s `Drop`).

use crate::dtdg::TimedBackend;
use crate::loadgen::{self, Conn, MixSpec, Op, OpStream, Outcome, Planned};
use crate::metrics::Metrics;
use crate::report::Report;
use crate::{stats, trace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::{BufReader, Cursor};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stgraph::backend::create_backend;
use stgraph::executor::{GraphSource, TemporalExecutor};
use stgraph_dyngraph::{DtdgSource, UpdateBatch};
use stgraph_net::{
    build_resident_cell, http, wire, AdmissionController, ModelMeta, ModelRegistry, NetConfig,
    NetServer, ServeContext, ServerHandle, TenantQuota,
};
use stgraph_serve::ingest::LiveGraph;
use stgraph_serve::{save_checkpoint, EngineHost, InferenceEngine, ServeConfig, ServeReport};
use stgraph_tensor::nn::ParamSet;
use stgraph_tensor::{StateDict, Tape, Tensor};

const DATASET: &str = "MO";
const SCALE: usize = 64;
const TIMESTAMPS: usize = 20;
const PCT_CHANGE: f64 = 5.0;
const ARCH: &str = "tgcn";
const FEATURES: usize = 8;
const HIDDEN: usize = 16;
const TENANTS: usize = 4;
const ZIPF_S: f64 = 1.1;
/// Open-loop arrival rate, requests/s.
const RATE: f64 = 300.0;
/// One request in this many is an `/ingest` on serve-mixed (5%).
const INGEST_EVERY: usize = 20;
/// The `/infer` latency limit `slo_ok_frac` counts against.
const SLO: Duration = Duration::from_millis(10);
/// Set-ups per end-to-end run (`setup_s` is their median).
const SETUPS: usize = 7;
/// Sequential requests per entry point in the replay.
const REPLAY_N: usize = 400;

/// Which traffic mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// `/infer` only.
    Read,
    /// `/infer` plus 5% `/ingest`.
    Mixed,
}

impl Mix {
    fn spec(self, nodes: u32) -> MixSpec {
        MixSpec {
            tenants: TENANTS,
            zipf_s: ZIPF_S,
            nodes,
            ingest_every: if self == Mix::Mixed { INGEST_EVERY } else { 0 },
        }
    }
}

fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

struct Data {
    src: DtdgSource,
    generate_s: f64,
}

fn make_data() -> Data {
    let t = Instant::now();
    let raw = stgraph_datasets::load_dynamic(stgraph_datasets::info(DATASET).name, SCALE);
    let mut src = DtdgSource::from_temporal_edges(raw.num_nodes, &raw.edges, PCT_CHANGE);
    src.snapshots.truncate(TIMESTAMPS);
    Data {
        src,
        generate_s: t.elapsed().as_secs_f64(),
    }
}

/// A running server: listeners, engine thread and its model files.
struct Stack {
    handle: Option<ServerHandle>,
    host: Option<EngineHost>,
    ctx: Arc<ServeContext>,
    dir: PathBuf,
}

impl Stack {
    /// Publishes one checkpoint per tenant, spawns the engine, starts the
    /// listeners. Tenant `i`'s model is initialised from `seed + 1 + i`;
    /// the engine's default cell and node features from `seed`.
    fn start(data: &Data, seed: u64, tag: usize) -> Result<Stack, String> {
        let dir = crate::scratch_dir().join(format!("serve-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let registry = Arc::new(ModelRegistry::new(256 << 20));
        for i in 0..TENANTS {
            let init_seed = seed + 1 + i as u64;
            let mut rng = ChaCha8Rng::seed_from_u64(init_seed);
            let mut params = ParamSet::new();
            stgraph_serve::build_cell(ARCH, &mut params, FEATURES, HIDDEN, &mut rng)
                .ok_or("unknown architecture")?;
            let path = dir.join(format!("{}.stgc", tenant_name(i)));
            save_checkpoint(&path, &params.to_state_dict()).map_err(|e| e.to_string())?;
            registry
                .publish(
                    &tenant_name(i),
                    ModelMeta {
                        arch: ARCH.into(),
                        features: FEATURES,
                        hidden: HIDDEN,
                        init_seed,
                    },
                    &path,
                )
                .map_err(|e| e.to_string())?;
        }
        let num_nodes = data.src.num_nodes;
        let src = data.src.clone();
        let reg = Arc::clone(&registry);
        let host = EngineHost::spawn(ServeConfig::default(), move || {
            let (cell, feats) = default_cell_and_features(seed, num_nodes);
            let mut engine =
                InferenceEngine::new(cell, feats, LiveGraph::from_source(&src), "seastar");
            engine.set_model_provider(Box::new(move |key| {
                reg.resident(key).ok().and_then(|m| build_resident_cell(&m))
            }));
            engine
        });
        // Quotas far above the offered load: no request is ever refused.
        let quota = TenantQuota {
            rate_per_s: 1_000_000,
            burst: 1_000_000,
            max_inflight: 1024,
        };
        let admission = AdmissionController::new(quota);
        for i in 0..TENANTS {
            admission.set_quota(&tenant_name(i), quota);
        }
        let ctx = Arc::new(ServeContext {
            queue: Arc::clone(host.queue()),
            registry,
            admission,
            num_nodes: num_nodes as u32,
        });
        let mut stack = Stack {
            handle: None,
            host: Some(host),
            ctx: Arc::clone(&ctx),
            dir,
        };
        stack.handle =
            Some(NetServer::start(NetConfig::default(), ctx).map_err(|e| format!("bind: {e}"))?);
        Ok(stack)
    }

    fn http_addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("running").http_addr
    }

    fn bin_addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("running").bin_addr
    }

    /// `n` client connections, alternating HTTP and binary.
    fn clients(&self, n: usize) -> Result<Vec<Client>, String> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Client::connect(self.http_addr(), true)
                } else {
                    Client::connect(self.bin_addr(), false)
                }
            })
            .collect()
    }

    /// Shuts the listeners and the engine down and returns the engine's
    /// report.
    fn stop(mut self) -> ServeReport {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        let report = self.host.take().expect("running").shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        report
    }
}

impl Drop for Stack {
    /// Early exits (errors, failed checks, panics) still stop the server
    /// and the engine thread and remove the model directory.
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        // EngineHost's own Drop closes the queue and joins the thread.
        drop(self.host.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The engine's default cell and node features, in its draw order.
fn default_cell_and_features(
    seed: u64,
    num_nodes: usize,
) -> (Box<dyn stgraph::tgnn::RecurrentCell>, Tensor) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut params = ParamSet::new();
    let cell = stgraph_serve::build_cell(ARCH, &mut params, FEATURES, HIDDEN, &mut rng)
        .expect("known architecture");
    let feats = Tensor::rand_uniform((num_nodes, FEATURES), -1.0, 1.0, &mut rng);
    (cell, feats)
}

/// A client connection speaking one of the two protocols.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    http: bool,
}

/// A successful reply.
enum Reply {
    /// Inference payload bytes.
    Infer(Vec<u8>),
    /// Ingest acknowledged.
    Ingest,
}

impl Client {
    fn connect(addr: SocketAddr, http: bool) -> Result<Client, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(s.try_clone().map_err(|e| e.to_string())?),
            writer: s,
            http,
        })
    }
}

impl Conn for Client {
    type Reply = Reply;

    fn call(&mut self, op: &Op) -> Result<Reply, String> {
        if self.http {
            let (method, target, body) = match op {
                Op::Infer { tenant, node } => (
                    "GET",
                    format!("/infer?tenant={}&node={node}", tenant_name(*tenant)),
                    String::new(),
                ),
                Op::Ingest { tenant, edges } => (
                    "POST",
                    format!("/ingest?tenant={}", tenant_name(*tenant)),
                    edges.iter().map(|(u, v)| format!("+ {u} {v}\n")).collect(),
                ),
            };
            http::write_request(&mut self.writer, method, &target, body.as_bytes())
                .map_err(|e| format!("http write: {e}"))?;
            let (status, _, body) =
                http::read_response(&mut self.reader).map_err(|e| format!("http read: {e}"))?;
            if status != 200 {
                return Err(format!("http {status}: {}", String::from_utf8_lossy(&body)));
            }
            Ok(match op {
                Op::Infer { .. } => Reply::Infer(body),
                Op::Ingest { .. } => Reply::Ingest,
            })
        } else {
            let req = match op {
                Op::Infer { tenant, node } => wire::Request::Infer {
                    tenant: tenant_name(*tenant),
                    node: *node,
                },
                Op::Ingest { tenant, edges } => wire::Request::Ingest {
                    tenant: tenant_name(*tenant),
                    additions: edges.clone(),
                    deletions: Vec::new(),
                },
            };
            wire::write_frame(&mut self.writer, &wire::encode_request(&req))
                .map_err(|e| format!("bin write: {e}"))?;
            let body = wire::read_frame(&mut self.reader)
                .map_err(|e| format!("bin read: {e}"))?
                .ok_or("bin: connection closed")?;
            match wire::decode_response(&body)? {
                wire::Response::Ok(p) => Ok(match op {
                    Op::Infer { .. } => Reply::Infer(p),
                    Op::Ingest { .. } => Reply::Ingest,
                }),
                wire::Response::Err { code, message } => {
                    Err(format!("bin status {code}: {message}"))
                }
            }
        }
    }
}

/// Set-up: data, checkpoints, engine, listeners, one warm-up `/infer` per
/// tenant. Returns the stack and `(setup_s, generate_s)`.
fn set_up(seed: u64, tag: usize) -> Result<(Stack, Data, f64), String> {
    let t = Instant::now();
    let data = make_data();
    let stack = Stack::start(&data, seed, tag)?;
    let mut c = Client::connect(stack.http_addr(), true)?;
    for tenant in 0..TENANTS {
        match c.call(&Op::Infer { tenant, node: 0 })? {
            Reply::Infer(_) => {}
            Reply::Ingest => return Err("warm-up got an ingest reply".into()),
        }
    }
    Ok((stack, data, t.elapsed().as_secs_f64()))
}

/// Offline replay oracle for generation 0: each tenant's model, rebuilt
/// from its seed, stepped once on the base snapshot from a zero hidden
/// state — exactly the first forward the engine runs for it.
fn oracle(data: &Data, seed: u64) -> Vec<Tensor> {
    let (_, feats) = default_cell_and_features(seed, data.src.num_nodes);
    let mut live = LiveGraph::from_source(&data.src);
    let (_, snap) = live.snapshot();
    (0..TENANTS)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 1 + i as u64);
            let mut params = ParamSet::new();
            let cell = stgraph_serve::build_cell(ARCH, &mut params, FEATURES, HIDDEN, &mut rng)
                .expect("known architecture");
            let exec =
                TemporalExecutor::new(create_backend("seastar"), GraphSource::Static(snap.clone()));
            let tape = Tape::new();
            let x = tape.constant(feats.clone());
            let h = cell.step(&tape, &exec, 0, &x, None);
            h.value().clone()
        })
        .collect()
}

fn oracle_payload(oracle: &[Tensor], tenant: usize, node: u32) -> Vec<u8> {
    let row = oracle[tenant].gather_rows(&[node]);
    wire::encode_infer_payload(node, 0, row.data())
}

/// Checks and latency figures of one open-loop phase.
#[derive(Default)]
struct PhaseStats {
    infer_latency_ms: Vec<f64>,
    infer_sent: u64,
    infer_ok_in_slo: u64,
    ingests_acked: u64,
    failed: u64,
    late_ms: Vec<f64>,
    max_generation: u64,
}

fn check_phase(
    out: &[Outcome<Reply>],
    plan: &[Planned],
    oracle: Option<&[Tensor]>,
    r: &mut Report,
) -> PhaseStats {
    let mut s = PhaseStats::default();
    let mut last_gen: Vec<u64> = Vec::new();
    for o in out {
        s.late_ms.push(o.late.as_secs_f64() * 1e3);
        if last_gen.len() <= o.conn {
            last_gen.resize(o.conn + 1, 0);
        }
        match (&plan[o.index].op, &o.reply) {
            (Op::Infer { tenant, node }, reply) => {
                s.infer_sent += 1;
                let lat = o.latency();
                s.infer_latency_ms.push(lat.as_secs_f64() * 1e3);
                let payload = match reply {
                    Ok(Reply::Infer(p)) => p,
                    Ok(Reply::Ingest) => {
                        s.failed += 1;
                        r.check(false, || "infer answered as an ingest".into());
                        continue;
                    }
                    Err(e) => {
                        s.failed += 1;
                        r.check(false, || format!("protocol error on /infer: {e}"));
                        continue;
                    }
                };
                if lat <= SLO {
                    s.infer_ok_in_slo += 1;
                }
                match wire::decode_infer_payload(payload) {
                    Some((n, g, values)) => {
                        r.check(n == *node, || {
                            format!("asked node {node}, reply echoed {n}")
                        });
                        r.check(
                            values.len() == HIDDEN && values.iter().all(|v| v.is_finite()),
                            || format!("reply for node {node} has {} values", values.len()),
                        );
                        r.check(g >= last_gen[o.conn], || {
                            format!(
                                "generation went back from {} to {g} on connection {}",
                                last_gen[o.conn], o.conn
                            )
                        });
                        last_gen[o.conn] = g;
                        s.max_generation = s.max_generation.max(g);
                        if let Some(orc) = oracle {
                            r.check(*payload == oracle_payload(orc, *tenant, *node), || {
                                format!("reply for t{tenant} node {node} differs from the offline replay")
                            });
                        }
                    }
                    None => r.check(false, || "undecodable inference payload".into()),
                }
            }
            (Op::Ingest { .. }, Ok(Reply::Ingest)) => s.ingests_acked += 1,
            (Op::Ingest { .. }, other) => {
                s.failed += 1;
                let why = match other {
                    Err(e) => e.clone(),
                    Ok(_) => "ingest answered as an infer".into(),
                };
                r.check(false, || format!("protocol error on /ingest: {why}"));
            }
        }
    }
    s
}

/// The three entry points' replies to the same sequential requests:
/// socket, `dispatch_infer` on the same context, and `submit_for().wait()`.
struct Replay {
    socket_us: Vec<f64>,
    dispatch_us: Vec<f64>,
    submit_us: Vec<f64>,
}

fn replay_entry_points(
    stack: &Stack,
    ops: &[(usize, u32)],
    clients: &mut [Client],
    oracle: Option<&[Tensor]>,
    r: &mut Report,
) -> Replay {
    let mut out = Replay {
        socket_us: Vec::new(),
        dispatch_us: Vec::new(),
        submit_us: Vec::new(),
    };
    let ctx = &stack.ctx;
    for (k, &(tenant, node)) in ops.iter().enumerate() {
        let req = k as u64 + 1;
        trace::set_request(req);
        let name = tenant_name(tenant);
        let client = &mut clients[k % clients.len()];
        let t = Instant::now();
        let socket = {
            let _s = trace::span("net.socket");
            client.call(&Op::Infer { tenant, node })
        };
        out.socket_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let dispatched = {
            let _s = trace::span("net.dispatch_infer");
            stgraph_net::server::dispatch_infer(ctx, &name, node, "perfbench")
        };
        out.dispatch_us.push(t.elapsed().as_secs_f64() * 1e6);
        let key = ctx.registry.resolve(&name);
        let t = Instant::now();
        let submitted = {
            let _s = trace::span("engine.submit_wait");
            key.map_err(|e| format!("{e:?}")).and_then(|key| {
                ctx.queue
                    .submit_for(key, node)
                    .and_then(|ticket| ticket.wait())
                    .map_err(|e| e.to_string())
            })
        };
        out.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        trace::set_request(0);
        let (socket, dispatched, submitted) = match (socket, dispatched, submitted) {
            (Ok(Reply::Infer(a)), Ok(b), Ok(c)) => (
                a,
                b,
                wire::encode_infer_payload(c.node, c.generation, &c.values),
            ),
            _ => {
                r.check(false, || {
                    format!("replay request {k} failed at an entry point")
                });
                continue;
            }
        };
        r.check(socket == dispatched && dispatched == submitted, || {
            format!("replay request {k}: entry points answered differently")
        });
        if let Some((n, _, _)) = wire::decode_infer_payload(&socket) {
            r.check(n == node, || format!("replay asked node {node}, got {n}"));
        }
        if let Some(orc) = oracle {
            r.check(socket == oracle_payload(orc, tenant, node), || {
                format!("replay t{tenant} node {node} differs from the offline replay")
            });
        }
    }
    out
}

/// The first `n` `/infer` requests of the workload's request stream.
fn infer_ops(spec: MixSpec, seed: u64, n: usize) -> Vec<(usize, u32)> {
    let mut ops = OpStream::new(spec, seed ^ 0x7265_706c_6179);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if let Op::Infer { tenant, node } = ops.next_op() {
            out.push((tenant, node));
        }
    }
    out
}

/// End-to-end run: `SETUPS` set-ups, then an open-loop phase (85% of the
/// time: the tail needs the samples) and a closed-loop phase (15%) on the
/// last one.
pub fn run(
    mix: Mix,
    seed: u64,
    seconds: f64,
    nproc: usize,
    r: &mut Report,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut stack = None;
    for tag in 0..SETUPS {
        let (s, data, setup_s) = set_up(seed, tag)?;
        setups.push(setup_s);
        if let Some((old, _)) = stack.replace((s, data)) {
            old.stop();
        }
    }
    let (stack, data) = stack.expect("at least one set-up");
    let spec = mix.spec(data.src.num_nodes as u32);
    let nconn = nproc.max(1);
    let mut clients = stack.clients(nconn)?;
    let open = Duration::from_secs_f64(seconds * 0.85);
    let plan = loadgen::poisson_schedule(spec, RATE, open, seed);
    let out = loadgen::open_loop(
        &mut clients,
        &plan,
        Instant::now() + Duration::from_millis(5),
    );
    let orc = (mix == Mix::Read).then(|| oracle(&data, seed));
    let phase = check_phase(&out, &plan, orc.as_deref(), r);

    let closed = Duration::from_secs_f64(seconds * 0.15);
    let (completed, closed_failed) =
        loadgen::closed_loop(&mut clients, spec, seed ^ 0xc105ed, closed);
    r.check(closed_failed == 0, || {
        format!("{closed_failed} closed-loop requests failed")
    });
    // A short replay through the three entry points checks that they
    // agree (and, for serve-read, that they match the offline replay).
    replay_entry_points(
        &stack,
        &infer_ops(spec, seed, 24),
        &mut clients,
        orc.as_deref(),
        r,
    );
    drop(clients);
    let report = stack.stop();

    let lat = &phase.infer_latency_ms;
    let (tail, tail_p) = stats::windowed_tail(lat).map_err(|e| e.to_string())?;
    m.set("setup_s", stats::median(&setups).expect("set-ups ran"));
    m.set("p50_ms", stats::median(lat).map_err(|e| e.to_string())?);
    m.set("p99_ms", tail);
    m.set("throughput_per_s", completed as f64 / closed.as_secs_f64());
    m.set(
        "slo_ok_frac",
        phase.infer_ok_in_slo as f64 / phase.infer_sent.max(1) as f64,
    );
    m.set(
        "quality",
        if r.check_failures.is_empty() {
            1.0
        } else {
            0.0
        },
    );
    r.attempted = plan.len() as u64 + completed + closed_failed;
    r.failed = phase.failed + closed_failed;
    r.context_num("peak_rps", completed as f64 / closed.as_secs_f64());
    r.context_num("tail_percentile", tail_p);
    r.context_num("samples.infer", lat.len() as f64);
    r.context_num("samples.ingests_acked", phase.ingests_acked as f64);
    r.context_num("samples.closed_loop", completed as f64);
    r.context_num("samples.setups", setups.len() as f64);
    r.context_num("connections", nconn as f64);
    r.context_num(
        "loadgen.late_p99_ms",
        stats::percentile(&phase.late_ms, 99.0).unwrap_or(0.0),
    );
    r.context_num("engine.queries", report.queries as f64);
    r.context_num("engine.batches", report.batches as f64);
    r.context_num("engine.forwards", report.forwards as f64);
    Ok(())
}

/// Traced run: an untraced and a traced open-loop phase, the entry-point
/// replay, parser micro-timings on captured bytes and direct forwards.
pub fn run_traced(
    mix: Mix,
    seed: u64,
    seconds: f64,
    nproc: usize,
    r: &mut Report,
    m: &mut Metrics,
) -> Result<Vec<trace::Span>, String> {
    let (stack, data, _) = set_up(seed, 0)?;
    let spec = mix.spec(data.src.num_nodes as u32);
    let mut clients = stack.clients(nproc.max(1))?;
    let orc = (mix == Mix::Read).then(|| oracle(&data, seed));
    let phase_len = Duration::from_secs_f64(seconds * 0.3);
    let latency_hist = stgraph_telemetry::histogram("serve.latency_ns");
    latency_hist.reset();
    let pool0 = stgraph_tensor::pool::stats();
    for (name, _) in stgraph_tensor::mem::all_stats() {
        stgraph_tensor::mem::reset_peak(&name);
    }

    // Untraced, then traced open loop: the difference is the overhead.
    let plan_u = loadgen::poisson_schedule(spec, RATE, phase_len, seed ^ 0x11);
    let out_u = loadgen::open_loop(
        &mut clients,
        &plan_u,
        Instant::now() + Duration::from_millis(5),
    );
    let s_u = check_phase(&out_u, &plan_u, orc.as_deref(), r);
    let plan_t = loadgen::poisson_schedule(spec, RATE, phase_len, seed ^ 0x22);
    trace::enable(true);
    let out_t = loadgen::open_loop(
        &mut clients,
        &plan_t,
        Instant::now() + Duration::from_millis(5),
    );
    for o in &out_t {
        let id = o.index as u64 + 1;
        let root = trace::record("loadgen.request", o.due, o.done, 0, id);
        trace::record("loadgen.wait", o.due, o.sent, root, id);
        trace::record("net.socket_under_load", o.sent, o.done, root, id);
    }
    let s_t = check_phase(&out_t, &plan_t, orc.as_deref(), r);
    let engine_p50_us = latency_hist.quantile(50.0) as f64 / 1e3;
    let engine_p99_us = latency_hist.quantile(99.0) as f64 / 1e3;
    let pool1 = stgraph_tensor::pool::stats();
    let tracked_peak: u64 = stgraph_tensor::mem::all_stats()
        .iter()
        .map(|(_, s)| s.peak)
        .sum();

    // The same requests, sequentially, at the three entry points.
    let replay = replay_entry_points(
        &stack,
        &infer_ops(spec, seed, REPLAY_N),
        &mut clients,
        orc.as_deref(),
        r,
    );
    trace::enable(false);
    drop(clients);

    // Parsers on captured bytes.
    let mut http_bytes = Vec::new();
    http::write_request(&mut http_bytes, "GET", "/infer?tenant=t0&node=7", b"")
        .map_err(|e| e.to_string())?;
    let frame = wire::encode_request(&wire::Request::Infer {
        tenant: "t0".into(),
        node: 7,
    });
    let iters = 20_000;
    let t = Instant::now();
    for _ in 0..iters {
        let req = http::read_request(&mut BufReader::new(Cursor::new(std::hint::black_box(
            &http_bytes,
        ))))
        .map_err(|e| e.to_string())?;
        std::hint::black_box(req);
    }
    let http_parse_us = t.elapsed().as_secs_f64() * 1e6 / iters as f64;
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(wire::decode_request(std::hint::black_box(&frame))?);
    }
    let wire_decode_us = t.elapsed().as_secs_f64() * 1e6 / iters as f64;

    let report = stack.stop();

    // Direct forwards: one tenant cell step on the live snapshot the run
    // ended on (serve-mixed replays its acknowledged ingests first).
    let fwd_ms = direct_forwards(&data, seed, &plan_u, &plan_t, mix);
    let spans = trace::take();
    let tot = trace::totals(&spans);
    let mean_us = |v: &[f64]| stats::mean(v).unwrap_or(0.0);
    let (sock, disp, sub) = (
        mean_us(&replay.socket_us),
        mean_us(&replay.dispatch_us),
        mean_us(&replay.submit_us),
    );
    let ingests = s_u.ingests_acked + s_t.ingests_acked;
    let fwd_steps = FWD_STEPS as f64;
    let fwd_ms_of = |name: &str| {
        tot.get(name)
            .map_or(0.0, |x| x.total_ns as f64 / 1e6 / fwd_steps)
    };
    m.set("datasets.generate_s", data.generate_s);
    m.set("net.rtt_mean_us", sock);
    m.set("net.self_us", sock - disp);
    m.set("net.http_parse_us", http_parse_us);
    m.set("wire.decode_us", wire_decode_us);
    m.set("admission.self_us", disp - sub);
    m.set("engine.submit_wait_mean_us", sub);
    m.set("engine.latency_p50_us", engine_p50_us);
    m.set("engine.latency_p99_us", engine_p99_us);
    m.set(
        "engine.queries_per_batch",
        report.queries as f64 / report.batches.max(1) as f64,
    );
    m.set(
        "engine.forwards_per_ingest",
        if report.ingest.batches > 0 {
            report.forwards as f64 / report.ingest.batches as f64
        } else {
            0.0
        },
    );
    m.set("engine.forward_ms", fwd_ms);
    m.set("seastar.execute_fwd_ms", fwd_ms_of("seastar.execute_fwd"));
    m.set(
        "seastar.launches",
        tot.get("seastar.execute_fwd")
            .map_or(0.0, |x| x.count as f64 / fwd_steps),
    );
    m.set(
        "serve.ingest_apply_us",
        if report.ingest.batches > 0 {
            report.ingest.ingest_time.as_secs_f64() * 1e6 / report.ingest.batches as f64
        } else {
            0.0
        },
    );
    // The newest generation any open-loop reply carried, per ingest
    // acknowledged by then: below 1 when answers lag the stream.
    m.set(
        "engine.gens_per_ingest",
        if ingests > 0 {
            s_t.max_generation as f64 / ingests as f64
        } else {
            0.0
        },
    );
    let mut late = s_u.late_ms.clone();
    late.extend_from_slice(&s_t.late_ms);
    m.set(
        "loadgen.late_p99_ms",
        stats::percentile(&late, 99.0).unwrap_or(0.0),
    );
    let (hits, misses) = (pool1.hits - pool0.hits, pool1.misses - pool0.misses);
    m.set(
        "tensor.pool_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set("tensor.peak_tracked_mb", tracked_peak as f64 / 1e6);
    let lat_u = mean_us(&s_u.infer_latency_ms);
    let lat_t = mean_us(&s_t.infer_latency_ms);
    m.set("trace.overhead_frac", lat_t / lat_u - 1.0);
    r.attempted = (plan_u.len() + plan_t.len() + 3 * REPLAY_N) as u64;
    r.failed = s_u.failed + s_t.failed;
    r.context_num("samples.replay_per_entry_point", REPLAY_N as f64);
    r.context_num("samples.open_loop", (plan_u.len() + plan_t.len()) as f64);
    r.context_num("engine.queries", report.queries as f64);
    r.context_num("engine.batches", report.batches as f64);
    r.context_num("engine.forwards", report.forwards as f64);
    r.context_num("engine.ingest_batches", report.ingest.batches as f64);

    // Mean /infer latency of the traced open-loop phase, split by layer:
    // generator wait, then the sequential replay's per-layer means, then
    // what load adds on top of the replay.
    let wait_ms = {
        let w: Vec<f64> = out_t
            .iter()
            .filter(|o| matches!(plan_t[o.index].op, Op::Infer { .. }))
            .map(|o| o.sent.saturating_duration_since(o.due).as_secs_f64() * 1e3)
            .collect();
        mean_us(&w)
    };
    let rows = [
        ("loadgen.wait (due -> send)", wait_ms),
        ("engine.submit_wait (replay mean)", sub / 1e3),
        ("admission self (dispatch - submit)", (disp - sub) / 1e3),
        ("net self (socket - dispatch)", (sock - disp) / 1e3),
        (
            "unattributed (load over the replay)",
            lat_t - wait_ms - sock / 1e3,
        ),
    ];
    crate::print_table(
        &format!("{mix:?}: mean /infer latency of the traced phase"),
        "ms",
        &rows,
        lat_t,
    );
    Ok(spans)
}

/// Direct forward steps timed.
const FWD_STEPS: usize = 20;

/// Times `FWD_STEPS` recurrent steps of tenant t0's cell on the live
/// snapshot, through the span-wrapped seastar backend (whose kernel spans
/// stay recorded). Returns the median step in ms.
fn direct_forwards(
    data: &Data,
    seed: u64,
    plan_u: &[Planned],
    plan_t: &[Planned],
    mix: Mix,
) -> f64 {
    let mut live = LiveGraph::from_source(&data.src);
    if mix == Mix::Mixed {
        for p in plan_u.iter().chain(plan_t) {
            if let Op::Ingest { edges, .. } = &p.op {
                live.apply(&UpdateBatch {
                    additions: edges.clone(),
                    deletions: Vec::new(),
                });
            }
        }
    }
    let (_, feats) = default_cell_and_features(seed, data.src.num_nodes);
    let mut rng = ChaCha8Rng::seed_from_u64(seed + 1);
    let mut params = ParamSet::new();
    let cell = stgraph_serve::build_cell(ARCH, &mut params, FEATURES, HIDDEN, &mut rng)
        .expect("known architecture");
    let (_, snap) = live.snapshot();
    let mut hidden: Option<Tensor> = None;
    let mut times = Vec::with_capacity(FWD_STEPS);
    // One untimed step warms the pool, as the engine's would be.
    for i in 0..=FWD_STEPS {
        let exec = TemporalExecutor::new(
            Box::new(TimedBackend(create_backend("seastar"))),
            GraphSource::Static(snap.clone()),
        );
        trace::enable(i > 0);
        let t = Instant::now();
        let tape = Tape::new();
        let x = tape.constant(feats.clone());
        let h_prev = hidden.clone().map(|h| tape.constant(h));
        let h = cell.step(&tape, &exec, 0, &x, h_prev.as_ref());
        hidden = Some(h.value().clone());
        let dt = t.elapsed().as_secs_f64() * 1e3;
        trace::enable(false);
        if i > 0 {
            times.push(dt);
        }
    }
    stats::median(&times).expect("steps ran")
}
