//! What every workload shares: the timed items, the round-robin runner,
//! answer checks, and the host record.

use crate::stats::median;
use crate::trace::{Layer, Tracer};
use probgraph::{IntersectionOracle, OracleVisitor, PgConfig, Representation};
use std::time::{Duration, Instant};

/// Item slots, in round-robin order: slot 0 is the exact baseline, slots
/// 1..=5 the representations, all at the same storage budget.
pub const ITEM_NAMES: [&str; 6] = ["exact", "bf2", "khash", "onehash", "kmv", "hll"];
/// Number of item slots.
pub const ITEMS: usize = ITEM_NAMES.len();
/// The exact baseline's slot.
pub const EXACT: u8 = 0;
/// The Bloom (b = 2) slot.
pub const BF2: u8 = 1;
/// Storage budget `s` every representation is built under.
pub const BUDGET: f64 = 0.25;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Pool threads the benchmark runs with (capped by the host).
pub const THREADS: usize = 2;

/// The sketch slots with their names: `(1, "bf2")` … `(5, "hll")`.
pub fn sketch_slots() -> impl Iterator<Item = (usize, &'static str)> {
    ITEM_NAMES.iter().copied().enumerate().skip(1)
}

/// The representation in sketch slot `item` (1..=5).
pub fn representation(item: u8) -> Representation {
    match item {
        1 => Representation::Bloom { b: 2 },
        2 => Representation::KHash,
        3 => Representation::OneHash,
        4 => Representation::Kmv,
        5 => Representation::Hll,
        _ => panic!("slot {item} is not a representation"),
    }
}

/// The build configuration of sketch slot `item`.
pub fn config(item: u8) -> PgConfig {
    PgConfig::new(representation(item), BUDGET)
}

/// Slot name for trace files (`-` when a span has no slot).
pub fn item_name(item: u8) -> &'static str {
    ITEM_NAMES.get(item as usize).copied().unwrap_or("-")
}

/// SplitMix64: the benchmark's own seeded generator for its inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed` and `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over 64-bit words: the fingerprint repeated answers are
/// compared by, bit for bit.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// `Σ|est_v − exact_v| / Σ exact_v`: the error of per-vertex answers,
/// which (unlike the error of their sum) cannot cancel across vertices.
pub fn per_vertex_error(est: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(est.len(), exact.len());
    let num: f64 = est.iter().zip(exact).map(|(e, x)| (e - x).abs()).sum();
    num / exact.iter().sum::<f64>().max(1.0)
}

/// Mean of `|est_v − exact_v| / exact_v` over the vertices whose exact
/// answer is positive: every such vertex weighs the same, so a few hubs
/// cannot dominate the figure.
pub fn mean_relative_error(est: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(est.len(), exact.len());
    let (sum, n) = est
        .iter()
        .zip(exact)
        .filter(|(_, &x)| x > 0.0)
        .fold((0.0, 0usize), |(s, n), (e, x)| {
            (s + (e - x).abs() / x, n + 1)
        });
    sum / n.max(1) as f64
}

/// Whether two sums of the same `terms` non-negative summands, taken in
/// different orders, agree: reordering moves a sum by at most
/// `2 (terms − 1) ε` of its value, so a larger gap is a wrong answer,
/// not rounding.
pub fn same_sum(a: f64, b: f64, terms: usize) -> bool {
    let bound = 2.0 * terms.saturating_sub(1) as f64 * f64::EPSILON * a.abs().max(b.abs());
    (a - b).abs() <= bound
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts checked operations and failures; `ok_frac` is their ratio.
#[derive(Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Descriptions of the first failures.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Exact counts a workload reports for the traced run.
#[derive(Default)]
pub struct Counts {
    /// 1 where the workload's kernel consults the tile planner and the
    /// planner engages for that representation's store.
    pub tiled: [u64; ITEMS],
    /// `ProbGraph::memory_bytes` of each representation's store.
    pub sketch_bytes: [u64; ITEMS],
    /// Sketch bytes one exchange round put on the sockets.
    pub wire_bytes: [u64; ITEMS],
    /// Bytes one epoch publish gathers.
    pub publish_bytes: u64,
    /// Saturated counters in the final published counting-Bloom epoch.
    pub cbf_saturated: u64,
    /// Vertices whose answer on the final epoch differs from a fresh
    /// build over the surviving edges.
    pub stale_rows: u64,
}

/// One workload: a set-up and its exact and per-representation answers,
/// all driven by [`run_rounds`].
pub trait Workload {
    /// Rounds between exact answers (exact answers cost the most).
    const EXACT_EVERY: usize;

    /// Computes `item`'s answer once, untimed, and checks it against an
    /// independent reference where one exists. Returns the answer's
    /// fingerprint, which every timed repeat must reproduce, and (for a
    /// representation) its error against the exact answer. Also serves
    /// as the warm-up, whose time is discarded.
    fn reference(&mut self, item: u8, checks: &mut Checks) -> (u64, f64);

    /// What one answer returns.
    type Output;

    /// Untimed preparation run before every timed answer of `item`.
    fn prepare(&mut self, _item: u8) {}

    /// One timed answer of `item`, recording layer spans through `t`.
    fn answer(&mut self, item: u8, t: &mut Tracer) -> Self::Output;

    /// The fingerprint of an answer, taken after its clock has stopped.
    fn fingerprint(out: &Self::Output) -> u64;

    /// Whether a repeated answer `got` of `item` reproduces the first
    /// one, `want`: bit for bit unless a workload says otherwise.
    fn same(&self, _item: u8, want: u64, got: u64) -> bool {
        want == got
    }

    /// Moves the seconds of every serving tick the last answer ran onto
    /// `times`; workloads without ticks have none.
    fn take_ticks(&mut self, _times: &mut Vec<f64>) {}

    /// Extra layer probes run only in traced rounds.
    fn probe(&mut self, _t: &mut Tracer) {}

    /// Final untimed checks and the exact counts for the traced run.
    fn finish(&mut self, checks: &mut Checks) -> Counts;
}

/// Timing samples of one run, split by whether the round was traced.
#[derive(Default)]
pub struct Samples {
    /// Seconds per answer, per item slot, from untraced rounds.
    pub answers: [Vec<f64>; ITEMS],
    /// Same, from traced rounds.
    pub traced_answers: [Vec<f64>; ITEMS],
    /// Seconds per serving tick, per item slot, from untraced rounds.
    pub ticks: [Vec<f64>; ITEMS],
    /// Same, from traced rounds.
    pub traced_ticks: [Vec<f64>; ITEMS],
    /// Error of each representation's answer (slot 0 unused).
    pub errs: [f64; ITEMS],
}

/// Repeats a set-up `SETUP_REPS` times (each inside a setup span) and
/// keeps the last; returns it with the seconds each took.
pub fn measure_setup<T>(t: &mut Tracer, mut f: impl FnMut(&mut Tracer) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(t.span(Layer::Setup, crate::trace::NO_REP, &mut f));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Seconds each item is given per round: answers shorter than this
/// repeat back to back, so every item is sampled many times per run.
const ITEM_ROUND_SECONDS: f64 = 0.2;

/// Runs the reference pass, then round after round until `budget` has
/// been measured. Each round runs every item in rotated order (the exact
/// one every `EXACT_EVERY` rounds), each repeated back to back for about
/// [`ITEM_ROUND_SECONDS`]. With `trace`, every other pair of
/// `EXACT_EVERY` rounds is traced, so traced and untraced rounds see the
/// same phases of the host and both include exact answers.
pub fn run_rounds<W: Workload>(
    w: &mut W,
    t: &mut Tracer,
    checks: &mut Checks,
    budget: Duration,
    trace: bool,
) -> Samples {
    const MIN_ROUNDS: usize = 4;
    const HARD_CAP: Duration = Duration::from_secs(120);
    let min_rounds = MIN_ROUNDS.max(2 * W::EXACT_EVERY);
    let mut s = Samples::default();
    let mut expected = [0u64; ITEMS];
    // Round 0 runs every item once; its times size the later repeats.
    let mut repeats = [1usize; ITEMS];
    t.set_enabled(false);
    for item in 0..ITEMS as u8 {
        let (fp, err) = w.reference(item, checks);
        expected[item as usize] = fp;
        s.errs[item as usize] = err;
    }
    // Ticks of the reference pass are warm-up.
    w.take_ticks(&mut Vec::new());
    let start = Instant::now();
    let mut round = 0usize;
    while (round < min_rounds || start.elapsed() < budget) && start.elapsed() < HARD_CAP {
        let traced = trace && (round / W::EXACT_EVERY) % 2 == 1;
        t.set_enabled(traced);
        t.round = round as u32;
        for k in 0..ITEMS {
            let item = ((round + k) % ITEMS) as u8;
            if item == EXACT && !round.is_multiple_of(W::EXACT_EVERY) {
                continue;
            }
            for _ in 0..repeats[item as usize] {
                w.prepare(item);
                let t0 = Instant::now();
                let out = t.span(Layer::Answer, item, |t| w.answer(item, t));
                let dt = t0.elapsed().as_secs_f64();
                let fp = W::fingerprint(&out);
                drop(out);
                let (answers, ticks) = if traced {
                    (&mut s.traced_answers, &mut s.traced_ticks)
                } else {
                    (&mut s.answers, &mut s.ticks)
                };
                answers[item as usize].push(dt);
                w.take_ticks(&mut ticks[item as usize]);
                checks.check(w.same(item, expected[item as usize], fp), || {
                    format!(
                        "{} answer in round {round} differs from its first",
                        item_name(item)
                    )
                });
            }
        }
        if round == 0 {
            for (r, times) in repeats.iter_mut().zip(&s.answers) {
                if let Some(&once) = times.first() {
                    *r = (ITEM_ROUND_SECONDS / once).round().clamp(1.0, 64.0) as usize;
                }
            }
        }
        if traced {
            region_probe(t);
            w.probe(t);
        }
        round += 1;
    }
    t.set_enabled(false);
    s
}

/// Times `pg_parallel::parallel_for` regions over 64 trivial items: the
/// fixed cost of one fork/join region.
fn region_probe(t: &mut Tracer) {
    for _ in 0..200 {
        t.span(Layer::Region, crate::trace::NO_REP, |_| {
            pg_parallel::parallel_for(64, |i| {
                std::hint::black_box(i);
            })
        });
    }
}

/// One named metric with its unit.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup: &[f64], s: &Samples, checks: &Checks) -> Vec<Metric> {
    let mut m = vec![
        metric("setup_s", median(setup), "s"),
        metric("exact_s", median(&s.answers[EXACT as usize]), "s"),
    ];
    for (item, name) in sketch_slots() {
        // Where an answer is a window of serving ticks, the answer a
        // client waits for is one tick.
        let answer = if s.ticks[item].is_empty() {
            median(&s.answers[item])
        } else {
            median(&s.ticks[item])
        };
        m.push(metric(format!("answer_s.{name}"), answer, "s"));
    }
    for (item, name) in sketch_slots() {
        m.push(metric(format!("err.{name}"), s.errs[item], "ratio"));
    }
    m.push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
    let ok = (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64;
    m.push(metric("ok_frac", ok, "ratio"));
    m
}

/// The host and planner record printed with every run.
pub struct Host {
    /// Hardware threads the host offers.
    pub nproc: usize,
    /// Pool threads the benchmark runs with.
    pub threads: usize,
    /// Probed L2 capacity in bytes.
    pub l2_bytes: usize,
    /// Destination-tile budget the planner uses, in bytes.
    pub tile_bytes: usize,
}

impl Host {
    /// Probes the host and fixes the benchmark's thread count.
    pub fn init() -> Self {
        let nproc = pg_parallel::available_threads();
        let threads = THREADS.min(nproc).max(1);
        pg_parallel::set_threads(threads);
        Host {
            nproc,
            threads,
            l2_bytes: pg_parallel::cache_topology().l2_bytes,
            tile_bytes: pg_parallel::tile_bytes(),
        }
    }
}

/// Whether the tile planner engages for a store over `n` destination
/// sets (`probgraph::plan_for` on the store's resolved oracle).
pub struct PlanProbe(pub usize);

impl OracleVisitor for PlanProbe {
    type Output = bool;
    fn visit<O: IntersectionOracle>(self, o: &O) -> bool {
        probgraph::plan_for(o, self.0).is_some()
    }
}
