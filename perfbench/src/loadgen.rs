//! The serving workloads' load generator: a seeded request schedule, an
//! open-loop runner that times each request from when it was due, and a
//! closed-loop runner for peak throughput.
//!
//! Open loop: requests arrive on a Poisson schedule whatever the server
//! does. Each of at most `nproc` connection threads takes the next
//! request, sleeps until it is due (if it is not yet), sends it and waits
//! for the reply. A request's latency runs from its due time, not its send
//! time, so a stalled server is charged for every request queued behind
//! the stall (no coordinated omission). The generator's own lateness —
//! send time minus the later of due time and the moment its connection
//! became free — is reported separately, to show that the generator, not
//! the server, kept the schedule.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Edges carried by one ingest request.
pub const INGEST_EDGES: usize = 4;

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `/infer` of `node` against tenant index `tenant`.
    Infer {
        /// Tenant index (`t{tenant}`).
        tenant: usize,
        /// Queried node.
        node: u32,
    },
    /// `/ingest` of edge additions on behalf of tenant index `tenant`.
    Ingest {
        /// Tenant index.
        tenant: usize,
        /// Added edges (never self-loops).
        edges: Vec<(u32, u32)>,
    },
}

/// A request and when it is due, relative to the start of the phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Due offset from the phase start.
    pub due: Duration,
    /// The request.
    pub op: Op,
}

/// The traffic mix: tenants drawn Zipf(`zipf_s`), nodes uniform, and
/// every `ingest_every`-th request an ingest (0 = none). Spacing ingests
/// evenly in request order, rather than drawing each one, keeps runs of
/// back-to-back ingests (and the tail they cause) from varying by seed.
#[derive(Debug, Clone, Copy)]
pub struct MixSpec {
    /// Number of tenants.
    pub tenants: usize,
    /// Zipf exponent over tenant ranks.
    pub zipf_s: f64,
    /// Nodes in the served graph.
    pub nodes: u32,
    /// One request in this many is an ingest; 0 for none.
    pub ingest_every: usize,
}

/// Seeded draw of requests from a [`MixSpec`].
pub struct OpStream {
    rng: ChaCha8Rng,
    cdf: Vec<f64>,
    spec: MixSpec,
    drawn: usize,
}

impl OpStream {
    /// A stream of requests; the same seed gives the same requests.
    pub fn new(spec: MixSpec, seed: u64) -> OpStream {
        let weights: Vec<f64> = (1..=spec.tenants)
            .map(|k| 1.0 / (k as f64).powf(spec.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        OpStream {
            rng: ChaCha8Rng::seed_from_u64(seed),
            cdf,
            spec,
            drawn: 0,
        }
    }

    fn tenant(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.spec.tenants - 1)
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        let tenant = self.tenant();
        self.drawn += 1;
        let every = self.spec.ingest_every;
        if every > 0 && self.drawn.is_multiple_of(every) {
            let n = self.spec.nodes;
            let edges = (0..INGEST_EDGES)
                .map(|_| {
                    let u = self.rng.gen_range(0..n);
                    let v = (u + 1 + self.rng.gen_range(0..n - 1)) % n;
                    (u, v)
                })
                .collect();
            Op::Ingest { tenant, edges }
        } else {
            Op::Infer {
                tenant,
                node: self.rng.gen_range(0..self.spec.nodes),
            }
        }
    }
}

/// A Poisson schedule at `rate` requests/s covering `duration`.
pub fn poisson_schedule(spec: MixSpec, rate: f64, duration: Duration, seed: u64) -> Vec<Planned> {
    let mut ops = OpStream::new(spec, seed);
    let mut gaps = ChaCha8Rng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = gaps.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= duration.as_secs_f64() {
            return out;
        }
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            op: ops.next_op(),
        });
    }
}

/// A client connection the runners send requests over.
pub trait Conn {
    /// The reply type a successful request yields.
    type Reply: Send;
    /// Sends one request and waits for its reply.
    fn call(&mut self, op: &Op) -> Result<Self::Reply, String>;
}

/// What happened to one scheduled request.
#[derive(Debug)]
pub struct Outcome<R> {
    /// Index into the schedule.
    pub index: usize,
    /// Connection that carried it.
    pub conn: usize,
    /// When it was due.
    pub due: Instant,
    /// When it was sent.
    pub sent: Instant,
    /// When its reply arrived.
    pub done: Instant,
    /// Generator lateness: `sent` minus the later of `due` and the moment
    /// the connection became free.
    pub late: Duration,
    /// The reply, or why the request failed.
    pub reply: Result<R, String>,
}

impl<R> Outcome<R> {
    /// Latency from the due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }
}

/// Runs `plan` open loop over `conns` (one thread each), starting the
/// schedule at `start`. Outcomes come back in schedule order.
pub fn open_loop<C: Conn + Send>(
    conns: &mut [C],
    plan: &[Planned],
    start: Instant,
) -> Vec<Outcome<C::Reply>> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(plan.len()));
    std::thread::scope(|s| {
        for (ci, conn) in conns.iter_mut().enumerate() {
            let (next, out) = (&next, &out);
            s.spawn(move || {
                // When this connection last became free (the phase start,
                // then each reply).
                let mut free = start;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = plan.get(i) else { break };
                    let due = start + p.due;
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let reply = conn.call(&p.op);
                    let done = Instant::now();
                    let late = sent.saturating_duration_since(due.max(free));
                    out.lock().expect("outcome list lock").push(Outcome {
                        index: i,
                        conn: ci,
                        due,
                        sent,
                        done,
                        late,
                        reply,
                    });
                    free = done;
                }
            });
        }
    });
    let mut v = out.into_inner().expect("outcome list lock");
    v.sort_by_key(|o| o.index);
    v
}

/// Runs requests from `ops` back to back on every connection until
/// `duration` passes; returns `(completed OK, failed)`.
pub fn closed_loop<C: Conn + Send>(
    conns: &mut [C],
    spec: MixSpec,
    seed: u64,
    duration: Duration,
) -> (u64, u64) {
    let deadline = Instant::now() + duration;
    let counts = Mutex::new((0u64, 0u64));
    std::thread::scope(|s| {
        for (ci, conn) in conns.iter_mut().enumerate() {
            let counts = &counts;
            s.spawn(move || {
                let mut ops = OpStream::new(spec, seed ^ (ci as u64 + 1) << 32);
                let (mut ok, mut bad) = (0u64, 0u64);
                while Instant::now() < deadline {
                    match conn.call(&ops.next_op()) {
                        Ok(_) => ok += 1,
                        Err(_) => bad += 1,
                    }
                }
                let mut c = counts.lock().expect("count lock");
                c.0 += ok;
                c.1 += bad;
            });
        }
    });
    counts.into_inner().expect("count lock")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: MixSpec = MixSpec {
        tenants: 4,
        zipf_s: 1.1,
        nodes: 50,
        ingest_every: 20,
    };

    #[test]
    fn schedule_is_reproducible_and_seed_dependent() {
        let a = poisson_schedule(SPEC, 300.0, Duration::from_secs(2), 7);
        let b = poisson_schedule(SPEC, 300.0, Duration::from_secs(2), 7);
        let c = poisson_schedule(SPEC, 300.0, Duration::from_secs(2), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Roughly the asked-for rate, strictly increasing due times.
        assert!((500..700).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due < w[1].due));
        // Zipf: tenant 0 is the most frequent; some ingests, never self-loops.
        let count = |t: usize| {
            a.iter()
                .filter(|p| matches!(p.op, Op::Infer { tenant, .. } if tenant == t))
                .count()
        };
        assert!(count(0) > count(3));
        let ingests: Vec<_> = a
            .iter()
            .filter_map(|p| match &p.op {
                Op::Ingest { edges, .. } => Some(edges),
                Op::Infer { .. } => None,
            })
            .collect();
        assert!(!ingests.is_empty());
        assert!(ingests
            .iter()
            .all(|e| e.len() == INGEST_EDGES && e.iter().all(|(u, v)| u != v)));
    }

    /// Answers instantly, except that one call stalls.
    struct StallOnce {
        calls: usize,
        stall_at: usize,
        stall: Duration,
    }

    impl Conn for StallOnce {
        type Reply = ();
        fn call(&mut self, _op: &Op) -> Result<(), String> {
            if self.calls == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.calls += 1;
            Ok(())
        }
    }

    fn even_plan(n: usize, gap: Duration) -> Vec<Planned> {
        (0..n)
            .map(|i| Planned {
                due: gap * i as u32,
                op: Op::Infer { tenant: 0, node: 0 },
            })
            .collect()
    }

    #[test]
    fn a_stall_inflates_the_latency_of_requests_queued_behind_it() {
        let stall = Duration::from_millis(60);
        let gap = Duration::from_millis(5);
        let plan = even_plan(30, gap);
        let mut conns = [StallOnce {
            calls: 0,
            stall_at: 2,
            stall,
        }];
        let out = open_loop(&mut conns, &plan, Instant::now());
        assert_eq!(out.len(), 30);
        // The stalled request itself takes the whole stall.
        assert!(out[2].latency() >= stall);
        // Requests due during the stall were not sent until it ended, and
        // are charged for the wait: timed from when they were due, the
        // k-th one waits about stall - k * gap.
        for o in &out[3..12] {
            let k = (o.index - 2) as u32;
            let owed = stall.saturating_sub(gap * k);
            assert!(
                o.latency() + Duration::from_millis(2) >= owed,
                "request {} latency {:?} < owed {owed:?}",
                o.index,
                o.latency()
            );
            // Its send time alone would hide the stall.
            assert!(o.done.duration_since(o.sent) < Duration::from_millis(10));
        }
        // The server stalled, not the generator: queued requests were sent
        // the moment the connection freed up.
        assert!(out[3..12]
            .iter()
            .all(|o| o.late < Duration::from_millis(10)));
    }

    #[test]
    fn generator_lateness_is_reported() {
        // A schedule that started 30 ms ago: the first request is already
        // overdue when the generator reaches it, with the connection free.
        let plan = even_plan(3, Duration::from_millis(40));
        let mut conns = [StallOnce {
            calls: 0,
            stall_at: usize::MAX,
            stall: Duration::ZERO,
        }];
        let start = Instant::now() - Duration::from_millis(30);
        let out = open_loop(&mut conns, &plan, start);
        assert!(
            out[0].late >= Duration::from_millis(29),
            "{:?}",
            out[0].late
        );
        assert!(out[0].latency() >= Duration::from_millis(29));
        // Later requests were on time.
        assert!(out[2].late < Duration::from_millis(10), "{:?}", out[2].late);
    }
}
