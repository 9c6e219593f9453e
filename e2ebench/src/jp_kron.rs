//! `jp-kron`: Jarvis–Patrick clustering (Jaccard) on a dense, skewed
//! Kronecker graph, exact and under all five representations.
//!
//! Rows are long full neighbourhoods and the Bloom store is sized past
//! twice the tile planner's threshold, so the tiled blocked sweep runs
//! for bf2; the exact baseline takes seconds.

use crate::common::{
    config, fingerprint, measure_setup, run_rounds, Checks, Counts, PlanProbe, Rng, Samples,
    Workload, EXACT,
};
use crate::trace::{Layer, Tracer, NO_REP};
use pg_graph::gen::RmatParams;
use pg_graph::CsrGraph;
use probgraph::algorithms::clustering::{
    jarvis_patrick_exact, jarvis_patrick_pg, Clustering, SimilarityKind,
};
use probgraph::intersect::intersect_card;
use probgraph::oracle::jaccard_from_intersection;
use probgraph::ProbGraph;
use std::time::Duration;

const SCALE: u32 = 16;
const EDGE_FACTOR: usize = 32;
/// Kronecker initiator: skewed (hub-to-hub `a` dominates), but less so
/// than Graph500's, which keeps the exact baseline at seconds.
const RMAT: RmatParams = RmatParams {
    a: 0.45,
    b: 0.2,
    c: 0.2,
};
/// Jaccard threshold an edge must exceed to join the clustering.
const TAU: f64 = 0.02;
const KIND: SimilarityKind = SimilarityKind::Jaccard;
/// Edges whose exact selection is re-derived independently.
const SAMPLED_EDGES: usize = 4096;

fn clustering_fingerprint(c: &Clustering) -> u64 {
    let words = c.selected.chunks(64).map(|ch| {
        ch.iter()
            .enumerate()
            .fold(0u64, |w, (i, &b)| w | (u64::from(b) << i))
    });
    fingerprint(words.chain([c.num_edges as u64, c.num_clusters as u64]))
}

struct JpKron {
    g: CsrGraph,
    seed: u64,
    exact: Option<Clustering>,
    counts: Counts,
}

impl Workload for JpKron {
    const EXACT_EVERY: usize = 4;

    fn reference(&mut self, item: u8, checks: &mut Checks) -> (u64, f64) {
        let edges = self.g.edge_list();
        if item == EXACT {
            let c = jarvis_patrick_exact(&self.g, KIND, TAU);
            let mut rng = Rng::new(self.seed, 2);
            for _ in 0..SAMPLED_EDGES {
                let i = rng.below(edges.len());
                let (u, v) = edges[i];
                let (nu, nv) = (self.g.neighbors(u), self.g.neighbors(v));
                let inter = intersect_card(nu, nv) as f64;
                let j = jaccard_from_intersection(nu.len() as f64, nv.len() as f64, inter);
                checks.check((j > TAU) == c.selected[i], || {
                    format!("exact JP selection of edge {u}-{v} disagrees with its merge")
                });
            }
            let fp = clustering_fingerprint(&c);
            self.exact = Some(c);
            return (fp, 0.0);
        }
        let pg = ProbGraph::build(&self.g, &config(item));
        let c = jarvis_patrick_pg(&self.g, &pg, KIND, TAU);
        let exact = self.exact.as_ref().expect("exact reference first");
        let differ = c
            .selected
            .iter()
            .zip(&exact.selected)
            .filter(|(a, b)| a != b)
            .count();
        let err = differ as f64 / edges.len().max(1) as f64;
        let i = item as usize;
        self.counts.sketch_bytes[i] = pg.memory_bytes() as u64;
        // The Jarvis–Patrick kernel consults the planner on every call.
        self.counts.tiled[i] = u64::from(pg.with_oracle(PlanProbe(self.g.num_vertices())));
        (clustering_fingerprint(&c), err)
    }

    type Output = Clustering;

    fn answer(&mut self, item: u8, t: &mut Tracer) -> Clustering {
        let g = &self.g;
        if item == EXACT {
            t.span(Layer::ExactSweep, item, |_| {
                jarvis_patrick_exact(g, KIND, TAU)
            })
        } else {
            let pg = t.span(Layer::Build, item, |_| ProbGraph::build(g, &config(item)));
            let c = t.span(Layer::Sweep, item, |_| jarvis_patrick_pg(g, &pg, KIND, TAU));
            t.span(Layer::Free, item, |_| drop(pg));
            c
        }
    }

    fn fingerprint(out: &Clustering) -> u64 {
        clustering_fingerprint(out)
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
    let (g, setup) = measure_setup(t, |t| {
        t.span(Layer::Gen, NO_REP, |_| {
            pg_graph::gen::kronecker_rmat(SCALE, EDGE_FACTOR, RMAT, seed)
        })
    });
    let mut w = JpKron {
        g,
        seed,
        exact: None,
        counts: Counts::default(),
    };
    let samples = run_rounds(&mut w, t, checks, budget, trace);
    let counts = w.finish(checks);
    (setup, samples, counts)
}
