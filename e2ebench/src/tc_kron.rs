//! `tc-kron`: Triangle Counting on a sparse Graph500 Kronecker graph,
//! exact and under all five representations.
//!
//! DAG rows are short and the triangle kernel never consults the tile
//! planner, so answer time splits between the sketch build and the flat
//! multi-lane sweep.

use crate::common::{
    config, mean_relative_error, measure_setup, run_rounds, same_sum, Checks, Counts, Samples,
    Workload, EXACT,
};
use crate::trace::{Layer, Tracer, NO_REP};
use pg_graph::{CsrGraph, OrientedDag};
use probgraph::algorithms::triangles;
use probgraph::intersect::intersect_card;
use probgraph::{single_process_partials, ProbGraph};
use std::time::Duration;

const SCALE: u32 = 16;
const EDGE_FACTOR: usize = 16;

/// Per-vertex DAG contributions `Σ_{u∈N⁺v} |N⁺v ∩ N⁺u|`, one exact
/// merge per arc — a path independent of the kernel's exact oracle.
pub fn exact_dag_rows(dag: &OrientedDag) -> Vec<f64> {
    pg_parallel::parallel_init(dag.num_vertices(), |v| {
        let np = dag.neighbors_plus(v as u32);
        np.iter()
            .map(|&u| intersect_card(np, dag.neighbors_plus(u)) as u64)
            .sum::<u64>() as f64
    })
}

/// The estimated per-vertex DAG contributions of `pg`, grouped exactly
/// as the triangle kernel sums each row (one part per vertex).
pub fn sketch_dag_rows(dag: &OrientedDag, pg: &ProbGraph) -> Vec<f64> {
    let n = dag.num_vertices();
    let identity: Vec<u32> = (0..n as u32).collect();
    single_process_partials(dag, pg, &identity, n)
}

struct TcKron {
    g: CsrGraph,
    dag: OrientedDag,
    exact_rows: Vec<f64>,
    counts: Counts,
}

impl TcKron {
    /// Additions in one TC total: one per arc inside the row folds plus
    /// one per vertex folding its row into a worker's sum.
    fn summands(&self) -> usize {
        self.g.num_edges() + self.g.num_vertices()
    }
}

impl Workload for TcKron {
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
        let pg = ProbGraph::build_dag(&self.dag, self.g.memory_bytes(), &config(item));
        let est = triangles::count_approx_on_dag(&self.dag, &pg);
        let rows = sketch_dag_rows(&self.dag, &pg);
        let total: f64 = rows.iter().sum();
        checks.check(same_sum(total, est, self.summands()), || {
            format!("slot {item}: TC {est} differs from its per-vertex rows {total}")
        });
        let err = mean_relative_error(&rows, &self.exact_rows);
        self.counts.sketch_bytes[item as usize] = pg.memory_bytes() as u64;
        (est.to_bits(), err)
    }

    type Output = u64;

    fn answer(&mut self, item: u8, t: &mut Tracer) -> u64 {
        let dag = &self.dag;
        if item == EXACT {
            return t.span(Layer::ExactSweep, item, |_| {
                triangles::count_exact_on_dag(dag)
            });
        }
        let base = self.g.memory_bytes();
        let pg = t.span(Layer::Build, item, |_| {
            ProbGraph::build_dag(dag, base, &config(item))
        });
        let est = t.span(Layer::Sweep, item, |_| {
            triangles::count_approx_on_dag(dag, &pg)
        });
        t.span(Layer::Free, item, |_| drop(pg));
        est.to_bits()
    }

    fn fingerprint(out: &u64) -> u64 {
        *out
    }

    /// Sketch totals are `f64` sums the pool reduces in an unspecified
    /// order (`pg_parallel`'s map-reduce), so repeats may differ in
    /// the last bits; they must still agree within the reordering bound.
    fn same(&self, item: u8, want: u64, got: u64) -> bool {
        if item == EXACT {
            return want == got;
        }
        same_sum(f64::from_bits(want), f64::from_bits(got), self.summands())
    }

    fn finish(&mut self, _checks: &mut Checks) -> Counts {
        // The triangle kernel never consults the tile planner.
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
    let ((g, dag), setup) = measure_setup(t, |t| {
        let g = t.span(Layer::Gen, NO_REP, |_| {
            pg_graph::gen::kronecker(SCALE, EDGE_FACTOR, seed)
        });
        let dag = t.span(Layer::Orient, NO_REP, |_| pg_graph::orient_by_degree(&g));
        (g, dag)
    });
    let exact_rows = exact_dag_rows(&dag);
    let mut w = TcKron {
        g,
        dag,
        exact_rows,
        counts: Counts::default(),
    };
    let samples = run_rounds(&mut w, t, checks, budget, trace);
    let counts = w.finish(checks);
    (setup, samples, counts)
}
