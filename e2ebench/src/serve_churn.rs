//! `serve-churn`: serving windows through `ShardedProbGraph`, one per
//! representation. Each window starts from a server loaded (untimed)
//! with half of a Kronecker graph's edges and runs a closed loop of
//! ticks: stage a batch of inserts — and, on the counting-Bloom server
//! that serves the Bloom (b = 2) slot, as many removals — past the
//! parallel-drain threshold, drain, publish an epoch, and query one row
//! of the just-published epoch (read-your-writes). A window is the unit
//! the runner repeats and checks; the answer a client waits for is one
//! tick, so each tick is timed and their median is reported.
//!
//! Sketch work per tick is small, so the fixed costs dominate: the
//! per-tick `pg_parallel` drain region and `publish_epoch`'s whole-store
//! gather.

use crate::common::{
    config, fingerprint, measure_setup, per_vertex_error, run_rounds, Checks, Counts, Rng, Samples,
    Workload, BF2, BUDGET, EXACT,
};
use crate::trace::{Layer, Tracer, NO_REP};
use pg_graph::CsrGraph;
use probgraph::algorithms::clustering_coeff::{
    local_clustering, local_clustering_pg, triangles_per_vertex_pg,
};
use probgraph::intersect::intersect_card;
use probgraph::serving::ShardedProbGraph;
use probgraph::{
    Edge, IntersectionOracle, OracleVisitor, PgConfig, ProbGraph, Representation, SketchStoreIn,
};
use std::time::{Duration, Instant};

const SCALE: u32 = 15;
const EDGE_FACTOR: usize = 16;
/// Ingest lanes; one per pool thread.
const SHARDS: usize = 2;
/// Ticks in one window.
const TICKS: usize = 128;
/// Edges each tick inserts (2 × 1024 = 2048 staged `(set, element)`
/// updates, the parallel-drain threshold) and, on the counting-Bloom
/// server, removes.
const BATCH: usize = 1024;
/// Vertices whose exact coefficient is re-derived independently.
const SAMPLED_VERTICES: usize = 1024;

/// The serving configuration of `item`: the Bloom (b = 2) slot is served
/// by a counting Bloom filter with b = 2, the representation that
/// supports removals; the others by their own store, insert-only.
fn serving_config(item: u8) -> PgConfig {
    if item == BF2 {
        PgConfig::new(Representation::CountingBloom { b: 2 }, BUDGET)
    } else {
        config(item)
    }
}

/// One online query: `Σ_u |N_v ∩ N_u|̂` over the row of `v`, through the
/// published epoch's resolved oracle.
struct RowQuery<'a> {
    v: u32,
    row: &'a [u32],
    buf: &'a mut Vec<f64>,
}

impl OracleVisitor for RowQuery<'_> {
    type Output = f64;
    fn visit<O: IntersectionOracle>(self, o: &O) -> f64 {
        o.estimate_row(self.v, self.row, self.buf);
        self.buf.iter().fold(0.0f64, |s, &e| s + e.max(0.0))
    }
}

/// What a window's ticks do to the graph, and what each tick queries.
struct History {
    /// Whether ticks remove edges (the counting-Bloom server).
    removes: bool,
    /// Per tick: the query vertex and its row after the tick.
    queries: Vec<(u32, Vec<u32>)>,
    /// The edges present after the last tick.
    last: CsrGraph,
}

impl History {
    fn new(g0: &CsrGraph, ins: &[Vec<Edge>], rem: &[Vec<Edge>], removes: bool) -> Self {
        let n = g0.num_vertices();
        let mut adj: Vec<Vec<u32>> = (0..n as u32).map(|v| g0.neighbors(v).to_vec()).collect();
        let mut queries = Vec::with_capacity(ins.len());
        for (k, batch) in ins.iter().enumerate() {
            if removes {
                for &(u, v) in &rem[k] {
                    unlink(&mut adj, u, v);
                }
            }
            for &(u, v) in batch {
                link(&mut adj, u, v);
            }
            let q = batch[0].0;
            queries.push((q, adj[q as usize].clone()));
        }
        let edges: Vec<Edge> = (0..n as u32)
            .flat_map(|u| {
                adj[u as usize]
                    .iter()
                    .filter(move |&&v| u < v)
                    .map(move |&v| (u, v))
            })
            .collect();
        History {
            removes,
            queries,
            last: CsrGraph::from_edges(n, &edges),
        }
    }
}

fn unlink(adj: &mut [Vec<u32>], u: u32, v: u32) {
    for (a, b) in [(u, v), (v, u)] {
        let row = &mut adj[a as usize];
        let at = row.binary_search(&b).expect("removed edge is present");
        row.remove(at);
    }
}

fn link(adj: &mut [Vec<u32>], u: u32, v: u32) {
    for (a, b) in [(u, v), (v, u)] {
        let row = &mut adj[a as usize];
        let at = row.binary_search(&b).expect_err("inserted edge is absent");
        row.insert(at, b);
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What one window returns: each tick's query answer, and how many ticks
/// did not publish the next epoch or did not yet show the query vertex's
/// new degree.
struct Window {
    answers: Vec<f64>,
    bad_ticks: u64,
}

struct ServeChurn {
    seed: u64,
    /// CSR bytes of the full edge universe: the serving budget's base.
    base: usize,
    /// The graph every window's server is loaded with.
    g0: CsrGraph,
    /// `g0`'s edges in load order.
    load: Vec<Edge>,
    /// Per tick: the edges it inserts and (counting Bloom only) removes.
    ins: Vec<Vec<Edge>>,
    rem: Vec<Vec<Edge>>,
    insert_only: History,
    churn: History,
    /// The loaded server the next window runs on, and its epoch.
    srv: Option<(ShardedProbGraph, u64)>,
    buf: Vec<f64>,
    /// Seconds of the last window's ticks, until the runner takes them.
    tick_times: Vec<f64>,
    counts: Counts,
}

impl ServeChurn {
    /// A fresh server of `item`'s store, loaded with `g0` and published.
    fn load(&self, item: u8) -> (ShardedProbGraph, u64) {
        let n = self.g0.num_vertices();
        let mut srv = ShardedProbGraph::with_shards(n, self.base, &serving_config(item), SHARDS);
        srv.apply_batch(&self.load);
        let epoch = srv.publish_epoch();
        (srv, epoch)
    }

    /// The serial `ProbGraph` stream of the load and a window's batches:
    /// what the serving layer promises its epochs equal, bit for bit.
    fn serial(&self, item: u8) -> ProbGraph {
        let n = self.g0.num_vertices();
        let mut pg = ProbGraph::stream_from(n, self.base, &serving_config(item), &self.load);
        for (k, batch) in self.ins.iter().enumerate() {
            if item == BF2 {
                pg.remove_batch(&self.rem[k]);
            }
            pg.apply_batch(batch);
        }
        pg
    }
}

impl Workload for ServeChurn {
    const EXACT_EVERY: usize = 1;

    fn reference(&mut self, item: u8, checks: &mut Checks) -> (u64, f64) {
        let g = &self.g0;
        if item == EXACT {
            let cc = local_clustering(g);
            let mut rng = Rng::new(self.seed, 2);
            for _ in 0..SAMPLED_VERTICES {
                let v = rng.below(g.num_vertices()) as u32;
                let nv = g.neighbors(v);
                let d = nv.len() as f64;
                let twice_t: usize = nv.iter().map(|&u| intersect_card(nv, g.neighbors(u))).sum();
                let want = if nv.len() < 2 {
                    0.0
                } else {
                    twice_t as f64 / (d * (d - 1.0))
                };
                checks.check((cc[v as usize] - want).abs() <= 1e-12, || {
                    format!(
                        "exact coefficient of {v} is {} but merges give {want}",
                        cc[v as usize]
                    )
                });
            }
            let fp = Self::fingerprint(&Window {
                answers: cc,
                bad_ticks: 0,
            });
            return (fp, 0.0);
        }
        self.prepare(item);
        let window = self.answer(item, &mut Tracer::new());
        checks.check(window.bad_ticks == 0, || {
            format!(
                "slot {item}: {} ticks did not publish the next epoch or missed their writes",
                window.bad_ticks
            )
        });
        let (srv, _) = self.srv.take().expect("prepared");
        // The final epoch must answer exactly like the serial stream of the
        // same batches, and carry the surviving edges' set sizes. It must
        // also answer like a fresh build over those edges while no counter
        // has saturated: a saturated 4-bit counter no longer counts
        // removals, so its bit can outlive its elements. That divergence is
        // reported as `stale_rows`.
        let h = if item == BF2 {
            &self.churn
        } else {
            &self.insert_only
        };
        let gf = &h.last;
        let n = gf.num_vertices();
        let snap = srv.snapshot();
        let served = triangles_per_vertex_pg(gf, &snap);
        let serial = self.serial(item);
        checks.check(
            snap.sizes() == serial.sizes()
                && bits_equal(&served, &triangles_per_vertex_pg(gf, &serial)),
            || format!("slot {item}: final epoch differs from the serial stream"),
        );
        let fresh = ProbGraph::build_over(
            n,
            self.base,
            |v| gf.neighbors(v as u32),
            &serving_config(item),
        );
        checks.check(snap.sizes() == fresh.sizes(), || {
            format!("slot {item}: final set sizes differ from the surviving edges")
        });
        let stale = served
            .iter()
            .zip(&triangles_per_vertex_pg(gf, &fresh))
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        let saturated = match snap.store() {
            SketchStoreIn::CountingBloom(c) => c.saturated_counters(),
            _ => 0,
        };
        if saturated == 0 {
            checks.check(stale == 0, || {
                format!("slot {item}: {stale} rows differ from a fresh build")
            });
        }
        let err = per_vertex_error(&local_clustering_pg(gf, &snap), &local_clustering(gf));
        let i = item as usize;
        self.counts.sketch_bytes[i] = snap.memory_bytes() as u64;
        if h.removes {
            self.counts.publish_bytes = snap.memory_bytes() as u64;
            self.counts.cbf_saturated = saturated as u64;
            self.counts.stale_rows = stale as u64;
        }
        (Self::fingerprint(&window), err)
    }

    type Output = Window;

    fn prepare(&mut self, item: u8) {
        if item != EXACT {
            drop(self.srv.take());
            self.srv = Some(self.load(item));
        }
    }

    fn answer(&mut self, item: u8, t: &mut Tracer) -> Window {
        if item == EXACT {
            let g = &self.g0;
            let cc = t.span(Layer::ExactSweep, item, |_| local_clustering(g));
            return Window {
                answers: cc,
                bad_ticks: 0,
            };
        }
        let history = if item == BF2 {
            &self.churn
        } else {
            &self.insert_only
        };
        let (srv, epoch) = self.srv.as_mut().expect("prepared");
        let buf = &mut self.buf;
        let mut out = Window {
            answers: Vec::with_capacity(TICKS),
            bad_ticks: 0,
        };
        for (k, (v, row)) in history.queries.iter().enumerate() {
            let t0 = Instant::now();
            let (published, got) = t.span(Layer::Tick, item, |t| {
                t.span(Layer::Stage, item, |_| {
                    if history.removes {
                        srv.stage_removals(&self.rem[k]);
                    }
                    srv.stage_batch(&self.ins[k]);
                });
                t.span(Layer::Drain, item, |_| srv.apply_pending());
                let e = t.span(Layer::Publish, item, |_| srv.publish_epoch());
                let q = RowQuery { v: *v, row, buf };
                (e, t.span(Layer::Query, item, |_| srv.query_with_oracle(q)))
            });
            self.tick_times.push(t0.elapsed().as_secs_f64());
            let visible = srv.snapshot().set_size(*v as usize) == row.len();
            out.bad_ticks += u64::from(published != *epoch + 1 || !visible);
            *epoch = published;
            out.answers.push(got);
        }
        out
    }

    fn fingerprint(out: &Window) -> u64 {
        fingerprint(
            out.answers
                .iter()
                .map(|a| a.to_bits())
                .chain([out.bad_ticks]),
        )
    }

    fn take_ticks(&mut self, times: &mut Vec<f64>) {
        times.append(&mut self.tick_times);
    }

    fn finish(&mut self, _checks: &mut Checks) -> Counts {
        std::mem::take(&mut self.counts)
    }
}

/// Runs the workload; returns set-up times, samples and counts.
pub fn run(
    seed: u64,
    budget: Duration,
    trace: bool,
    t: &mut Tracer,
    checks: &mut Checks,
) -> (Vec<f64>, Samples, Counts) {
    let ((g, _), setup) = measure_setup(t, |t| {
        let g = t.span(Layer::Gen, NO_REP, |_| {
            pg_graph::gen::kronecker(SCALE, EDGE_FACTOR, seed)
        });
        let n = g.num_vertices();
        let srv = t.span(Layer::ShardInit, NO_REP, |_| {
            ShardedProbGraph::with_shards(n, g.memory_bytes(), &serving_config(BF2), SHARDS)
        });
        (g, srv)
    });
    // Half of the edges, in seeded random order, form the load; ticks
    // insert from the other half and remove from the load.
    let mut rng = Rng::new(seed, 1);
    let mut edges = g.edge_list();
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.below(i + 1));
    }
    let absent = edges.split_off(edges.len() / 2);
    let load = edges;
    assert!(
        absent.len() >= TICKS * BATCH && load.len() >= TICKS * BATCH,
        "graph too small for {TICKS} ticks of {BATCH} edges"
    );
    let ins: Vec<Vec<Edge>> = absent
        .chunks(BATCH)
        .take(TICKS)
        .map(<[_]>::to_vec)
        .collect();
    let rem: Vec<Vec<Edge>> = load.chunks(BATCH).take(TICKS).map(<[_]>::to_vec).collect();
    let n = g.num_vertices();
    let g0 = CsrGraph::from_edges(n, &load);
    let mut w = ServeChurn {
        seed,
        base: g.memory_bytes(),
        insert_only: History::new(&g0, &ins, &rem, false),
        churn: History::new(&g0, &ins, &rem, true),
        g0,
        load,
        ins,
        rem,
        srv: None,
        buf: Vec::new(),
        tick_times: Vec::new(),
        counts: Counts::default(),
    };
    drop(g);
    let samples = run_rounds(&mut w, t, checks, budget, trace);
    let counts = w.finish(checks);
    (setup, samples, counts)
}
