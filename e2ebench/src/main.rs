//! End-to-end and per-layer benchmark of the ProbGraph workspace.
//!
//! ```text
//! cargo run --release -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <tc-kron|jp-kron|serve-churn|dist-tc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from `--seed`, measures for
//! `--seconds`, checks every answer, and prints as its last stdout line
//! one JSON object: `correct`, `attempted`, `failed`, and the metrics —
//! the end-to-end ones with `--trace 0`, the per-layer ones (from spans
//! recorded around each layer's public calls) with `--trace 1`. See
//! `README.md` beside this package for the workloads and metrics.

mod common;
mod dist_tc;
mod jp_kron;
mod serve_churn;
mod stats;
mod tc_kron;
mod trace;

use common::{metric, sketch_slots, Checks, Counts, Host, Metric, Samples, ITEMS};
use stats::{median, quantile};
use std::path::PathBuf;
use std::time::Duration;
use trace::{Layer, Tracer, NO_REP};

/// Largest share of a parent span its children may leave uncovered
/// before the traced run counts its instrumentation as wrong.
const MAX_RESIDUAL: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))? != 0)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::init();
    let budget = Duration::from_secs(args.seconds);
    let mut t = Tracer::new();
    t.set_enabled(args.trace);
    let mut checks = Checks::default();
    let (setup, samples, counts) = match args.workload.as_str() {
        "tc-kron" => tc_kron::run(args.seed, budget, args.trace, &mut t, &mut checks),
        "jp-kron" => jp_kron::run(args.seed, budget, args.trace, &mut t, &mut checks),
        "serve-churn" => serve_churn::run(args.seed, budget, args.trace, &mut t, &mut checks),
        "dist-tc" => dist_tc::run(args.seed, budget, args.trace, &mut t, &mut checks),
        other => {
            eprintln!("e2ebench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    println!(
        "# host: nproc={} threads={} l2_bytes={} tile_bytes={} tiled={}",
        host.nproc,
        host.threads,
        host.l2_bytes,
        host.tile_bytes,
        sketch_slots()
            .map(|(i, r)| format!("{r}:{}", counts.tiled[i]))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!(
        "# samples: answers={:?} ticks={}",
        samples
            .answers
            .iter()
            .chain(&samples.traced_answers)
            .map(Vec::len)
            .collect::<Vec<_>>(),
        samples
            .ticks
            .iter()
            .chain(&samples.traced_ticks)
            .map(Vec::len)
            .sum::<usize>()
    );

    let mut correct = true;
    let metrics = if args.trace {
        let (m, residual) = per_layer(&t, &samples, &counts);
        let untraced: Vec<&str> = (0..ITEMS)
            .filter(|&i| samples.traced_answers[i].is_empty())
            .map(|i| common::ITEM_NAMES[i])
            .collect();
        if !untraced.is_empty() {
            correct = false;
            eprintln!("e2ebench: no traced answer of {}", untraced.join(", "));
        }
        if residual > MAX_RESIDUAL {
            correct = false;
            eprintln!(
                "e2ebench: layer sum misses {residual:.3} of a parent span (limit {MAX_RESIDUAL})"
            );
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match t.write_tsv(&path, common::item_name) {
            Ok(()) => println!("# trace: {}", path.display()),
            Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
        }
        m
    } else {
        common::end_to_end(&setup, &samples, &checks)
    };
    for f in checks.failures() {
        eprintln!("e2ebench: check failed: {f}");
    }
    if metrics.iter().any(|m| !m.value.is_finite()) {
        correct = false;
        eprintln!("e2ebench: a metric is not finite");
    }
    correct &= checks.failed == 0;
    print_result(correct, &checks, &metrics);
}

/// The per-layer metrics of a traced run, and the worst layer-sum
/// residual (median per parent layer and slot).
fn per_layer(t: &Tracer, s: &Samples, c: &Counts) -> (Vec<Metric>, f64) {
    let self_median = |layer, rep| median(&t.self_samples(layer, rep));
    // Serving layers are reported for the counting-Bloom ticks.
    let us = |layer, q| quantile(&t.self_samples(layer, common::BF2), q) * 1e6;
    let mut m = vec![
        metric("gen_s", self_median(Layer::Gen, NO_REP), "s"),
        metric("orient_s", self_median(Layer::Orient, NO_REP), "s"),
        metric("partition_s", self_median(Layer::Partition, NO_REP), "s"),
        metric("shard_init_s", self_median(Layer::ShardInit, NO_REP), "s"),
        metric(
            "exact_sweep_s",
            self_median(Layer::ExactSweep, common::EXACT),
            "s",
        ),
    ];
    for (layer, prefix) in [
        (Layer::Build, "build_s"),
        (Layer::Sweep, "sweep_s"),
        (Layer::Free, "free_s"),
        (Layer::Exchange, "exchange_s"),
        (Layer::Encode, "encode_s"),
        (Layer::Validate, "validate_s"),
    ] {
        for (item, r) in sketch_slots() {
            let name = format!("{prefix}.{r}");
            m.push(metric(name, self_median(layer, item as u8), "s"));
        }
    }
    // Tick latency from the untraced rounds' counting-Bloom ticks.
    let ticks = &s.ticks[common::BF2 as usize];
    m.push(metric("tick_p50_us", quantile(ticks, 0.50) * 1e6, "us"));
    m.push(metric("tick_p99_us", quantile(ticks, 0.99) * 1e6, "us"));
    m.push(metric(
        "region_us",
        self_median(Layer::Region, NO_REP) * 1e6,
        "us",
    ));
    for (layer, name) in [
        (Layer::Stage, "stage"),
        (Layer::Drain, "drain"),
        (Layer::Publish, "publish"),
        (Layer::Query, "query"),
    ] {
        m.push(metric(format!("{name}_p50_us"), us(layer, 0.50), "us"));
        m.push(metric(format!("{name}_p99_us"), us(layer, 0.99), "us"));
    }
    for (item, r) in sketch_slots() {
        m.push(metric(format!("tiled.{r}"), c.tiled[item] as f64, "count"));
        m.push(metric(
            format!("sketch_bytes.{r}"),
            c.sketch_bytes[item] as f64,
            "count",
        ));
        m.push(metric(
            format!("wire_bytes.{r}"),
            c.wire_bytes[item] as f64,
            "count",
        ));
    }
    m.push(metric("publish_bytes", c.publish_bytes as f64, "count"));
    m.push(metric("cbf_saturated", c.cbf_saturated as f64, "count"));
    m.push(metric("stale_rows", c.stale_rows as f64, "count"));

    // Tracing overhead: traced against untraced rounds of the same run.
    let (mut traced, mut plain) = (0.0, 0.0);
    for item in 0..ITEMS {
        if !s.traced_answers[item].is_empty() && !s.answers[item].is_empty() {
            traced += median(&s.traced_answers[item]);
            plain += median(&s.answers[item]);
        }
    }
    let overhead = |a: f64, b: f64| if b > 0.0 { a / b - 1.0 } else { 0.0 };
    m.push(metric(
        "trace_overhead.answer",
        overhead(traced, plain),
        "ratio",
    ));
    m.push(metric(
        "trace_overhead.tick",
        overhead(median(&s.traced_ticks[common::BF2 as usize]), median(ticks)),
        "ratio",
    ));

    // Layer sum: children must account for each parent span.
    let mut residual = 0.0f64;
    let mut groups = vec![(Layer::Setup, NO_REP)];
    for i in 0..ITEMS as u8 {
        groups.extend([(Layer::Answer, i), (Layer::Tick, i)]);
    }
    for (layer, rep) in groups {
        let r = t.residuals(layer, rep);
        if !r.is_empty() && median(&r) > residual {
            residual = median(&r);
            eprintln!(
                "# layer sum: {} {} leaves {residual:.4} uncovered",
                layer.name(),
                common::item_name(rep)
            );
        }
    }
    m.push(metric("layer_residual", residual, "ratio"));

    (m, residual)
}

fn print_result(correct: bool, checks: &Checks, metrics: &[Metric]) {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.attempted, checks.failed
    );
}
