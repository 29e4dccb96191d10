//! End-to-end benchmark of the partitionable-services framework:
//! connect, serve and heal through `ps_core::Framework`.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <mail_steady|mail_fabric|fault_heal|connect_churn|fault_chaos> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread. A run repeats whole episodes (set-up + timed
//! phase, same seed) until `--seconds` of wall time have passed (at
//! least three), times set-up-only repetitions between them, and reports
//! medians. Every episode must reproduce the first episode's virtual
//! outputs exactly. `--trace 0` prints the end-to-end metrics, measured
//! with the program's tracer off; `--trace 1` alternates untraced and
//! traced episodes and prints the per-layer metrics, writing the
//! benchmark's spans and the registry snapshot under `.bench_out/`. The
//! last line of stdout is one JSON object; the exit code is 1 when an
//! output check fails. See `README.md` in this directory.

mod episode;
mod measure;
mod workloads;

use episode::Episode;
use measure::{median, peak_rss_mib, ratio, Pct, Spans};
use ps_trace::WallTimer;
use std::fmt::Write as _;
use workloads::WORKLOADS;

/// Episodes a run measures at least, whatever `--seconds` says.
const MIN_EPISODES: usize = 3;
/// Set-ups a run times at least, and the share of its wall time they
/// take at least. Set-up-only repetitions run between episodes, so the
/// samples spread over the whole run: the host's speed drifts over
/// seconds, and a set-up takes only tenths of one.
const MIN_SETUPS: usize = 15;
const SETUP_SHARE: f64 = 0.3;
/// A seed no figure in this benchmark's documents was tuned on: later
/// changes confirm their claims on it.
const HELD_OUT_SEED: u64 = 9_001;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    match run() {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}

/// A metric for the result line: name, unit, value.
type Metric = (&'static str, &'static str, f64);

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let workload = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, w)| w)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!("unknown workload {:?} (one of {names:?})", args.workload)
        })?;
    let mut spans = Spans::new();

    let mut plain: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    let started = WallTimer::start();
    // Set-up is timed in every episode and in set-up-only repetitions.
    let mut setups: Vec<Episode> = Vec::new();
    let setup_time = |eps: &[Episode]| eps.iter().map(|e| e.setup_s).sum::<f64>();
    let mut first: Option<String> = None;
    let mut deterministic = true;
    let mut log = String::new();
    for i in 0.. {
        let trace_this = args.trace && i % 2 == 1;
        spans.set_keep(trace_this);
        let open = spans.begin("episode", || format!("e{i}"));
        let ep = workload(args.seed, trace_this, false, &mut spans)?;
        spans.end(open);
        spans.set_keep(false);
        let canonical = ep.v.canonical();
        deterministic &= *first.get_or_insert_with(|| canonical.clone()) == canonical;
        let _ = writeln!(
            log,
            "episode {i}{}: setup {:.4} s, timed {:.4} s, {:.1} ops/s, connect p50 {:.3} ms",
            if trace_this { " (traced)" } else { "" },
            ep.setup_s,
            ep.timed_s,
            ratio(ep.v.ops_completed as f64, ep.timed_s),
            Pct::of(&ep.connect_wall_ms, 0.5).value
        );
        if trace_this {
            traced.push(ep);
        } else {
            plain.push(ep);
        }
        while !args.trace
            && setup_time(&plain) + setup_time(&setups) < SETUP_SHARE * started.elapsed_ms() / 1e3
        {
            setups.push(workload(args.seed, false, true, &mut spans)?);
        }
        let enough = if args.trace {
            !traced.is_empty() && !plain.is_empty()
        } else {
            plain.len() >= MIN_EPISODES
        };
        if enough && started.elapsed_ms() / 1e3 >= args.seconds {
            break;
        }
    }
    while !args.trace && plain.len() + setups.len() < MIN_SETUPS {
        setups.push(workload(args.seed, false, true, &mut spans)?);
    }
    // Episode 0 is never traced; its virtual outputs are the run's.
    let v = &plain.first().ok_or("no episode ran")?.v;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "e2ebench workload={} seed={} held_out_seed={HELD_OUT_SEED} trace={} \
         episodes={} untraced + {} traced, {:.1} s measured",
        args.workload,
        args.seed,
        u8::from(args.trace),
        plain.len(),
        traced.len(),
        started.elapsed_ms() / 1e3
    );
    let _ = writeln!(
        out,
        "digest {} seed={} fnv64={:016x}",
        args.workload,
        args.seed,
        v.digest()
    );
    let _ = writeln!(out, "  virtual outputs: {}", v.canonical());
    out.push_str(&log);
    let mut correct = deterministic;
    let _ = writeln!(
        out,
        "check deterministic_episodes: {} (every episode reproduced the digest)",
        pass(deterministic)
    );
    for (name, ok, detail) in &v.checks {
        correct &= ok;
        let _ = writeln!(out, "check {name}: {} ({detail})", pass(*ok));
    }

    let metrics = if args.trace {
        let layers = layer_metrics(&traced, &plain, &mut out);
        write_artifacts(&args, &spans, traced.last(), &mut out)?;
        layers
    } else {
        end_to_end(&plain, &setups, v, &mut out)
    };
    notes(&args.workload, &mut out);

    let mut json = String::new();
    for (name, unit, value) in &metrics {
        correct &= value.is_finite();
        let value = if value.is_finite() { *value } else { 0.0 };
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let episodes = plain.iter().chain(traced.iter());
    let (attempted, failed) = episodes.fold((0u64, 0u64), |(a, f), e| {
        (
            a + e.v.attempted_ops() + e.v.connects,
            f + e.v.failed_ops() + e.v.connect_errors,
        )
    });
    print!("{out}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    Ok(correct)
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Median over episodes of a per-episode value.
fn med(eps: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    median(&eps.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(
    plain: &[Episode],
    setups: &[Episode],
    v: &episode::Virtual,
    out: &mut String,
) -> Vec<Metric> {
    let op = |q| Pct::of(&v.op_ms, q);
    let connect_v = |q| Pct::of(&v.connect_ms, q);
    let setup_s: Vec<f64> = plain.iter().chain(setups).map(|e| e.setup_s).collect();
    let connect_walls: Vec<f64> = plain
        .iter()
        .chain(setups)
        .flat_map(|e| e.connect_wall_ms.iter().copied())
        .collect();
    let connect_wall = |q: f64| Pct::of(&connect_walls, q);
    let attempted = v.attempted_ops() as f64;
    let op_mean = ratio(v.op_ms.iter().sum(), v.op_ms.len() as f64);
    let metrics: Vec<Metric> = vec![
        ("setup_s", "s", median(&setup_s)),
        (
            "mail_ops_per_s",
            "1/s",
            med(plain, |e| ratio(e.v.ops_completed as f64, e.timed_s)),
        ),
        ("op_ms_p99", "ms", op(0.99).value),
        ("peak_rss_mb", "MiB", peak_rss_mib()),
    ];
    let _ = writeln!(
        out,
        "end-to-end (wall metrics: medians over {} untraced episodes):",
        plain.len()
    );
    let detail = |name: &str| -> String {
        match name {
            "setup_s" => format!("median of {} set-ups over the run", setup_s.len()),
            "mail_ops_per_s" => format!("{} ops per episode", v.ops_completed),
            "op_ms_p99" => op(0.99).describe(),
            "peak_rss_mb" => "VmHWM of this process".to_owned(),
            _ => String::new(),
        }
    };
    for (name, unit, value) in &metrics {
        let _ = writeln!(out, "  {name:<22} {value:>14.4} {unit:<6} {}", detail(name));
    }

    // The per-workload figures that are not on every workload, so not
    // in the result line (see README.md).
    let _ = writeln!(out, "per-workload figures:");
    let busy: Vec<Vec<f64>> = plain
        .iter()
        .map(|e| {
            e.passes
                .iter()
                .filter(|p| p.busy)
                .map(|p| p.wall_ms)
                .collect()
        })
        .collect();
    let heal = |q: f64| median(&busy.iter().map(|b| Pct::of(b, q).value).collect::<Vec<_>>());
    let first_busy = busy.first().cloned().unwrap_or_default();
    let lines = [
        (
            "connect_wall_ms_p50",
            connect_wall(0.5).value,
            "ms",
            connect_wall(0.5).describe() + " pooled over the run",
        ),
        (
            "connect_wall_ms_p95",
            connect_wall(0.95).value,
            "ms",
            connect_wall(0.95).describe() + " pooled over the run",
        ),
        ("op_ms_p50", op(0.5).value, "ms", op(0.5).describe()),
        (
            "op_ms_mean",
            op_mean,
            "ms",
            format!("mean over {} ops", v.op_ms.len()),
        ),
        (
            "connect_ms_p50",
            connect_v(0.5).value,
            "ms",
            connect_v(0.5).describe(),
        ),
        (
            "connect_ms_p95",
            connect_v(0.95).value,
            "ms",
            connect_v(0.95).describe(),
        ),
        (
            "sessions_per_s",
            med(plain, |e| ratio(e.v.sessions as f64, e.timed_s)),
            "1/s",
            format!("{} sessions per episode", v.sessions),
        ),
        (
            "heal_wall_ms_p50",
            heal(0.5),
            "ms",
            format!(
                "{} (busy passes of {} per episode)",
                Pct::of(&first_busy, 0.5).describe(),
                v.passes
            ),
        ),
        (
            "heal_wall_ms_p90",
            heal(0.9),
            "ms",
            Pct::of(&first_busy, 0.9).describe() + " (busy passes)",
        ),
        (
            "recovery_ms_p50",
            Pct::of(&v.recovery_ms, 0.5).value,
            "ms",
            format!(
                "{}; {} incidents: {} recovered, {} kept on a re-routed link, {} outlived \
                 by their repair",
                Pct::of(&v.recovery_ms, 0.5).describe(),
                v.incidents,
                v.recovery_ms.len(),
                v.incidents_kept,
                v.incidents_outlived
            ),
        ),
        (
            "failed_ratio",
            ratio(v.failed_ops() as f64, attempted),
            "ratio",
            format!(
                "{} failed ({} lost + {} denied) / {attempted} attempted ops; {} connect errors",
                v.failed_ops(),
                v.lost,
                v.denied,
                v.connect_errors
            ),
        ),
    ];
    for (name, value, unit, detail) in lines {
        let _ = writeln!(out, "  {name:<22} {value:>14.4} {unit:<6} {detail}");
    }
    metrics
}

/// The per-layer metrics of the traced episodes. Counts repeat exactly
/// per seed, so they come from one episode; wall figures are medians.
fn layer_metrics(traced: &[Episode], plain: &[Episode], out: &mut String) -> Vec<Metric> {
    let Some(t) = traced.first() else {
        return Vec::new();
    };
    let c = |name: &str| t.counter(name) as f64;
    let wall = |e: &Episode| e.setup_s + e.timed_s;
    let ops = t.v.ops_completed as f64;
    let memo_hits = c("planner.hier.memo_hits");
    let memo_base = memo_hits + c("planner.hier.segments");
    let metrics: Vec<(Metric, String)> = vec![
        (
            (
                "planner.plan_wall_ms_p50",
                "ms",
                med(traced, |e| Pct::of(&e.planning_ms, 0.5).value),
            ),
            Pct::of(&t.planning_ms, 0.5).describe() + " (costs.planning_ms per Framework::connect)",
        ),
        (
            (
                "planner.plan_wall_ms_p95",
                "ms",
                med(traced, |e| Pct::of(&e.planning_ms, 0.95).value),
            ),
            Pct::of(&t.planning_ms, 0.95).describe(),
        ),
        (
            ("planner.work_units", "count", t.work_units as f64),
            "PlanStats::work_units summed over Framework::connect calls".to_owned(),
        ),
        (
            (
                "planner.mappings_evaluated",
                "count",
                c("planner.mappings_evaluated"),
            ),
            String::new(),
        ),
        (
            ("planner.bound_prunes", "count", c("planner.bound_prunes")),
            String::new(),
        ),
        (
            (
                "planner.cache_hit_ratio",
                "ratio",
                ratio(c("server.plan_cache_hits"), c("server.connects")),
            ),
            format!(
                "{} plan-cache hits / {} server connects",
                c("server.plan_cache_hits"),
                c("server.connects")
            ),
        ),
        (
            (
                "planner.memo_hit_ratio",
                "ratio",
                ratio(memo_hits, memo_base),
            ),
            format!("{memo_hits} memo hits / {memo_base} (hits + segments solved)"),
        ),
        (
            (
                "planner.repair_chains_resolved",
                "count",
                c("planner.repair_chains_resolved"),
            ),
            String::new(),
        ),
        (
            (
                "planner.repair_chains_reused",
                "count",
                c("planner.repair_chains_reused"),
            ),
            String::new(),
        ),
        (
            ("net.route_rows", "count", c("planner.hier.route_rows")),
            String::new(),
        ),
        (
            ("net.route_repairs", "count", c("heal.route_repairs")),
            String::new(),
        ),
        (
            ("net.route_rebuilds", "count", c("heal.route_rebuilds")),
            String::new(),
        ),
        (
            ("sim.events", "count", t.events as f64),
            "events processed inside run_until".to_owned(),
        ),
        (
            ("sim.run_wall_ms", "ms", med(traced, |e| e.run_wall_ms)),
            "benchmark span around run_until; ps-mail host time is inside it".to_owned(),
        ),
        (
            (
                "sim.ns_per_event",
                "ns",
                med(traced, |e| ratio(e.run_wall_ms * 1e6, e.events as f64)),
            ),
            String::new(),
        ),
        (
            (
                "smock.connect_self_wall_ms_p50",
                "ms",
                med(traced, |e| {
                    let selfs: Vec<f64> = e
                        .connect_wall_ms
                        .iter()
                        .zip(&e.planning_ms)
                        .map(|(w, p)| w - p)
                        .collect();
                    Pct::of(&selfs, 0.5).value
                }),
            ),
            "connect wall minus costs.planning_ms".to_owned(),
        ),
        (
            (
                "smock.deploy_reuse_ratio",
                "ratio",
                ratio(
                    t.deploy_reused as f64,
                    (t.deploy_created + t.deploy_reused) as f64,
                ),
            ),
            format!(
                "{} reused / {} placements",
                t.deploy_reused,
                t.deploy_created + t.deploy_reused
            ),
        ),
        (
            (
                "smock.messages_per_op",
                "ratio",
                ratio(t.messages as f64, ops),
            ),
            format!("{} messages / {ops} completed ops", t.messages),
        ),
        (
            ("smock.retries", "count", c("world.retries")),
            String::new(),
        ),
        (
            (
                "smock.drops",
                "count",
                c("world.drops") + c("world.loss_drops"),
            ),
            "world.drops + world.loss_drops".to_owned(),
        ),
        (
            ("smock.invoke_failures", "count", c("world.invoke_failures")),
            String::new(),
        ),
        (
            ("mail.coherence_flushes", "count", c("coherence.flushes")),
            String::new(),
        ),
        (
            ("mail.coherence_updates", "count", c("coherence.updates")),
            String::new(),
        ),
        (
            (
                "core.heal_self_wall_ms",
                "ms",
                med(traced, |e| e.passes.iter().map(|p| p.self_ms).sum()),
            ),
            "per episode: heal wall minus planning and route repair wall, all passes".to_owned(),
        ),
        (
            (
                "core.idle_pass_wall_us",
                "us",
                med(traced, |e| {
                    let idle: Vec<f64> = e
                        .passes
                        .iter()
                        .filter(|p| !p.busy)
                        .map(|p| p.wall_ms * 1e3)
                        .collect();
                    Pct::of(&idle, 0.5).value
                }),
            ),
            "p50 over passes that found nothing to do".to_owned(),
        ),
        (
            (
                "core.busy_pass_ratio",
                "ratio",
                ratio(t.v.busy_passes as f64, t.v.passes as f64),
            ),
            format!("{} busy / {} passes", t.v.busy_passes, t.v.passes),
        ),
        (
            ("monitor.changes", "count", c("monitor.changes")),
            String::new(),
        ),
        (
            (
                "trace.overhead_ratio",
                "ratio",
                ratio(med(traced, wall), med(plain, wall)),
            ),
            format!(
                "median traced episode wall {:.4} s / median untraced {:.4} s",
                med(traced, wall),
                med(plain, wall)
            ),
        ),
    ];
    let _ = writeln!(
        out,
        "per-layer ({} traced episodes; counts are per episode):",
        traced.len()
    );
    for ((name, unit, value), detail) in &metrics {
        let _ = writeln!(out, "  {name:<32} {value:>14.4} {unit:<6} {detail}");
    }
    // Not in the result line: it reads 0 on a workload that builds no
    // route table and repairs none (lazy hierarchical rows publish no
    // wall time; net.route_rows counts them).
    let route_us = med(traced, |e| {
        e.route_build_us as f64 + e.histogram_sum("heal.route_repair_wall_us")
    });
    let _ = writeln!(
        out,
        "  {:<32} {route_us:>14.4} {:<6} route-table builds reported by Framework::connect \
         + route repairs in heal passes (report only)",
        "net.route_wall_us", "us"
    );
    metrics.into_iter().map(|(m, _)| m).collect()
}

fn write_artifacts(
    args: &Args,
    spans: &Spans,
    last: Option<&Episode>,
    out: &mut String,
) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let spans_path = dir.join(format!("{stem}.spans.jsonl"));
    std::fs::write(&spans_path, spans.to_jsonl())
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let registry_path = dir.join(format!("{stem}.registry.json"));
    let registry = last.map_or_else(String::new, |e| e.registry_json.clone());
    std::fs::write(&registry_path, registry)
        .map_err(|e| format!("write {}: {e}", registry_path.display()))?;
    let _ = writeln!(
        out,
        "wrote {} and {}",
        spans_path.display(),
        registry_path.display()
    );
    Ok(())
}

fn notes(workload: &str, out: &mut String) {
    let _ = writeln!(
        out,
        "note: planning costs 0 virtual ms, so connect_ms covers lookup, proxy download, \
         blueprint transfer and startup only"
    );
    let _ = writeln!(
        out,
        "note: ps-mail host time (components, ChaCha20) runs inside the run_until span; \
         splitting it out needs tracing inside the program"
    );
    if workload == "connect_churn" {
        let _ = writeln!(
            out,
            "note: arrivals are open-loop in virtual time; since planning takes no virtual \
             time the generator never runs late (lateness 0 ms)"
        );
    }
}
