//! In-memory span recording around calls into the workspace's layers.
//!
//! A span is one call at a layer boundary: its layer, the representation
//! it ran under, its parent span, the round (repetition id) it belongs to,
//! and its start and end. Spans are kept in memory while the benchmark
//! runs and written out when it ends. A layer's self time is its span's
//! duration minus the part covered by its child spans.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// A layer boundary the benchmark records spans at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One whole set-up (graph generation and its preparation).
    Setup,
    /// `pg_graph::gen` — graph generation.
    Gen,
    /// `pg_graph::orient_by_degree`.
    Orient,
    /// Vertex-to-part assignment for the exchange.
    Partition,
    /// `ShardedProbGraph::with_shards` over the empty stream.
    ShardInit,
    /// One build-inclusive answer (or one exact answer).
    Answer,
    /// `ProbGraph` sketch build (through `pg_sketch`/`pg_hash`).
    Build,
    /// The algorithm's sweep over a built store (`probgraph::algorithms`).
    Sweep,
    /// Dropping a built store (its destructor frees the sketches).
    Free,
    /// The algorithm run with the exact oracle (`probgraph::intersect`).
    ExactSweep,
    /// One forked `run_exchange` round (`probgraph::exchange`).
    Exchange,
    /// One serving tick: stage, drain, publish, query.
    Tick,
    /// `ShardedProbGraph::stage_batch` + `stage_removals`.
    Stage,
    /// `ShardedProbGraph::apply_pending` (the per-lane drain).
    Drain,
    /// `ShardedProbGraph::publish_epoch` (the whole-store gather).
    Publish,
    /// One row query against the just-published epoch.
    Query,
    /// `ProbGraph::snapshot_to_bytes`.
    Encode,
    /// `ProbGraphIn::from_snapshot_bytes_borrowed`.
    Validate,
    /// One `pg_parallel::parallel_for` region over trivial items.
    Region,
}

impl Layer {
    /// The layer's name in trace files.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Gen => "gen",
            Layer::Orient => "orient",
            Layer::Partition => "partition",
            Layer::ShardInit => "shard_init",
            Layer::Answer => "answer",
            Layer::Build => "build",
            Layer::Sweep => "sweep",
            Layer::Free => "free",
            Layer::ExactSweep => "exact_sweep",
            Layer::Exchange => "exchange",
            Layer::Tick => "tick",
            Layer::Stage => "stage",
            Layer::Drain => "drain",
            Layer::Publish => "publish",
            Layer::Query => "query",
            Layer::Encode => "encode",
            Layer::Validate => "validate",
            Layer::Region => "region",
        }
    }
}

/// Marks a span that runs under no particular representation.
pub const NO_REP: u8 = u8::MAX;
const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer the call belongs to.
    pub layer: Layer,
    /// Item slot (see `common::ITEM_NAMES`) or [`NO_REP`].
    pub rep: u8,
    /// Index of the enclosing span, if any.
    parent: u32,
    /// Round or tick number the span belongs to (its repetition id).
    pub round: u32,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans while enabled; when disabled, [`Tracer::span`] only calls
/// through, so untraced rounds pay nothing but a branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Repetition id stamped on every span opened from now on.
    pub round: u32,
}

impl Tracer {
    /// A disabled tracer with an empty span log.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            round: 0,
        }
    }

    /// Turns recording on or off for spans opened from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer` (recorded only while enabled);
    /// spans opened inside `f` become its children.
    pub fn span<R>(&mut self, layer: Layer, rep: u8, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            rep,
            parent,
            round: self.round,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Per-span self times in seconds, indexed like the span log.
    fn self_times(&self) -> Vec<f64> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.seconds();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.seconds() - c).max(0.0))
            .collect()
    }

    /// Self times (seconds) of every recorded span of `layer` under `rep`.
    pub fn self_samples(&self, layer: Layer, rep: u8) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.layer == layer && s.rep == rep)
            .map(|(_, t)| t)
            .collect()
    }

    /// For every recorded span of `layer` under `rep` that has children,
    /// the share of its duration its children do not cover — the
    /// instrumentation residual the layer-sum check bounds.
    pub fn residuals(&self, layer: Layer, rep: u8) -> Vec<f64> {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                has_child[s.parent as usize] = true;
            }
        }
        self.spans
            .iter()
            .zip(self.self_times())
            .zip(has_child)
            .filter(|((s, _), c)| s.layer == layer && s.rep == rep && *c && s.end_ns > s.start_ns)
            .map(|((s, t), _)| t / s.seconds())
            .collect()
    }

    /// Writes the span log as tab-separated `id name rep parent round
    /// start_ns end_ns` lines, `rep_name` naming each item slot.
    pub fn write_tsv(&self, path: &Path, rep_name: impl Fn(u8) -> &'static str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\trep\tparent\tround\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.layer.name(),
                rep_name(s.rep),
                s.round,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_from_self_time() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.span(Layer::Answer, 1, |t| {
            t.span(Layer::Build, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span(Layer::Sweep, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let answer = t.spans[0].seconds();
        let build = t.self_samples(Layer::Build, 1)[0];
        let sweep = t.self_samples(Layer::Sweep, 1)[0];
        let glue = t.self_samples(Layer::Answer, 1)[0];
        assert!((answer - build - sweep - glue).abs() < 1e-9);
        assert!(t.residuals(Layer::Answer, 1)[0] < 0.5);
        assert!(t.residuals(Layer::Build, 1).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let x = t.span(Layer::Tick, NO_REP, |_| 7);
        assert_eq!(x, 7);
        assert!(t.spans.is_empty());
    }
}
