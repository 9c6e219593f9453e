//! `dist-tc`: distributed triangle counting at p = 2 per representation
//! on a Chung–Lu power-law graph — a different generator family than
//! `tc-kron`.
//!
//! The timed answer is what the exchange round runs, minus the fork and
//! the sockets: build, `snapshot_to_bytes`, validation of the bytes in an
//! aligned receive buffer with `from_snapshot_bytes_borrowed`, and the
//! per-part partial sums over the received store. The forked
//! `run_exchange` round itself runs in traced rounds only, where its time
//! and wire bytes are reported per layer; its process start-up swings
//! with the host far more than any bound a gated figure could hold.

use crate::common::{
    config, mean_relative_error, measure_setup, run_rounds, Checks, Counts, Samples, Workload,
    EXACT, ITEMS,
};
use crate::tc_kron::{exact_dag_rows, sketch_dag_rows};
use crate::trace::{Layer, Tracer, NO_REP};
use pg_graph::OrientedDag;
use probgraph::algorithms::triangles;
use probgraph::{
    run_exchange, single_process_partials, AlignedBytes, ExchangeOptions, IntersectionOracle,
    OracleVisitor, ProbGraph, ProbGraphIn,
};
use std::time::Duration;

const VERTICES: usize = 1 << 15;
const EDGES: usize = 1 << 19;
const GAMMA: f64 = 2.5;
/// Parts (worker processes in the exchange).
const PARTS: usize = 2;

/// The exchange's triangle total over a store. Rows are folded across
/// the pool, as the parts' workers run side by side, each exactly as a
/// worker folds it; each part's partial then adds its vertices' rows in
/// ascending order and the partials are summed in part order — the
/// accumulation of `single_process_partials` and of the exchange's
/// workers, so the total is bit-equal to theirs.
struct PartialSum<'a> {
    dag: &'a OrientedDag,
    parts: &'a [u32],
}

impl OracleVisitor for PartialSum<'_> {
    type Output = f64;
    fn visit<O: IntersectionOracle>(self, o: &O) -> f64 {
        let dag = self.dag;
        let rows = pg_parallel::parallel_init_scratch(dag.num_vertices(), Vec::new, |row, v| {
            o.estimate_row(v as u32, dag.neighbors_plus(v as u32), row);
            row.iter().fold(0.0f64, |s, &e| s + e.max(0.0))
        });
        let mut partials = [0.0f64; PARTS];
        for (&part, row) in self.parts.iter().zip(rows) {
            partials[part as usize] += row;
        }
        partials.iter().sum()
    }
}

struct DistTc {
    dag: OrientedDag,
    /// Bytes of the oriented DAG: what a shipped sketch displaces.
    dag_bytes: usize,
    parts: Vec<u32>,
    exact_rows: Vec<f64>,
    /// Each representation's store and its single-process total, which
    /// traced rounds' forked exchanges must reproduce.
    stores: Vec<Option<(ProbGraph, f64)>>,
    exchange_failures: u64,
    counts: Counts,
}

impl Workload for DistTc {
    const EXACT_EVERY: usize = 1;

    fn reference(&mut self, item: u8, checks: &mut Checks) -> (u64, f64) {
        if item == EXACT {
            let tc = triangles::count_exact_on_dag(&self.dag);
            let by_rows: f64 = self.exact_rows.iter().sum();
            checks.check(tc as f64 == by_rows, || {
                format!("exact TC {tc} differs from per-arc merges {by_rows}")
            });
            return (tc, 0.0);
        }
        let i = item as usize;
        let pg = ProbGraph::build_dag(&self.dag, self.dag_bytes, &config(item));
        let want: f64 = single_process_partials(&self.dag, &pg, &self.parts, PARTS)
            .iter()
            .sum();
        match run_exchange(
            &self.dag,
            &pg,
            &self.parts,
            PARTS,
            &ExchangeOptions::default(),
        ) {
            Ok(r) => {
                checks.check(r.distributed_tc.to_bits() == want.to_bits(), || {
                    format!(
                        "slot {item}: distributed TC {} != single-process {want}",
                        r.distributed_tc
                    )
                });
                self.counts.wire_bytes[i] = r.sketch_total();
            }
            Err(e) => checks.check(false, || format!("slot {item}: exchange failed: {e}")),
        }
        let rows = sketch_dag_rows(&self.dag, &pg);
        let err = mean_relative_error(&rows, &self.exact_rows);
        self.counts.sketch_bytes[i] = pg.memory_bytes() as u64;
        self.stores[i] = Some((pg, want));
        (want.to_bits(), err)
    }

    type Output = u64;

    fn answer(&mut self, item: u8, t: &mut Tracer) -> u64 {
        let (dag, parts) = (&self.dag, &self.parts);
        if item == EXACT {
            return t.span(Layer::ExactSweep, item, |_| {
                triangles::count_exact_on_dag(dag)
            });
        }
        let base = self.dag_bytes;
        let pg = t.span(Layer::Build, item, |_| {
            ProbGraph::build_dag(dag, base, &config(item))
        });
        let bytes = t.span(Layer::Encode, item, |_| pg.snapshot_to_bytes());
        let received = AlignedBytes::copy_from(&bytes);
        let total = match t.span(Layer::Validate, item, |_| {
            ProbGraphIn::from_snapshot_bytes_borrowed(&received)
        }) {
            Ok(store) => t.span(Layer::Sweep, item, |_| {
                store.with_oracle(PartialSum { dag, parts })
            }),
            Err(e) => {
                eprintln!("e2ebench: slot {item}: snapshot rejected: {e}");
                f64::NAN
            }
        };
        t.span(Layer::Free, item, |_| drop((pg, bytes, received)));
        total.to_bits()
    }

    fn fingerprint(out: &u64) -> u64 {
        *out
    }

    /// Runs one forked exchange round per representation; each must
    /// reproduce the single-process total bit for bit.
    fn probe(&mut self, t: &mut Tracer) {
        let (dag, parts) = (&self.dag, &self.parts);
        for item in 1..ITEMS as u8 {
            let Some((pg, want)) = self.stores[item as usize].as_ref() else {
                continue;
            };
            let report = t.span(Layer::Exchange, item, |_| {
                run_exchange(dag, pg, parts, PARTS, &ExchangeOptions::default())
            });
            let ok = report.is_ok_and(|r| r.distributed_tc.to_bits() == want.to_bits());
            self.exchange_failures += u64::from(!ok);
        }
    }

    fn finish(&mut self, checks: &mut Checks) -> Counts {
        checks.check(self.exchange_failures == 0, || {
            format!(
                "{} traced exchange rounds failed or differed",
                self.exchange_failures
            )
        });
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
    let ((g, dag, parts), setup) = measure_setup(t, |t| {
        let g = t.span(Layer::Gen, NO_REP, |_| {
            pg_graph::gen::chung_lu(VERTICES, EDGES, GAMMA, seed)
        });
        let dag = t.span(Layer::Orient, NO_REP, |_| pg_graph::orient_by_degree(&g));
        let parts = t.span(Layer::Partition, NO_REP, |_| {
            pg_bench::distmodel::random_partition(dag.num_vertices(), PARTS, seed)
        });
        (g, dag, parts)
    });
    let n = dag.num_vertices();
    let dag_bytes = 4 * (n + 1) + 4 * g.num_edges();
    drop(g);
    let exact_rows = exact_dag_rows(&dag);
    let mut w = DistTc {
        dag,
        dag_bytes,
        parts,
        exact_rows,
        stores: (0..ITEMS).map(|_| None).collect(),
        exchange_failures: 0,
        counts: Counts::default(),
    };
    let samples = run_rounds(&mut w, t, checks, budget, trace);
    let counts = w.finish(checks);
    (setup, samples, counts)
}
