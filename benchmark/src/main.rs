//! The repo benchmark named by `/BENCHMARK.json`.
//!
//! `benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds the inputs from the seed, sets the workload's system up, runs
//! it, checks every answer and prints every metric by name with its unit;
//! the last line of standard output is the driver's JSON object. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run measures the per-layer budget instead and writes the spans it
//! recorded to `benchmark/out/<workload>.trace.json`. See `README.md`.

mod catalogue;
mod compare;
mod domains;
mod layers;
mod oracle;
mod pin;
mod report;
mod setup;
mod spans;
mod stats;
mod workloads;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use pigeonring_hamming::kernels;
use pigeonring_server::EngineSpec;
use pigeonring_service::MachineFingerprint;

use catalogue::{DOMAINS, WORKLOADS};
use domains::{DomainBench, Edit, GraphDom, Hamming, Set};
use layers::ServicePools;
use oracle::{digest, Checker};
use report::{Metric, RunReport};
use setup::{DomainState, ShardedRig, Sizes, TcpRig, World, SETUP_REPS, SHARDED_K};
use spans::SpanLog;
use stats::{fastest, median, percentile_us};
use workloads::{Ctx, Stream, StreamRun, TcpDomain, Units};

/// Where result documents and traces go, relative to the repo root (the
/// directory the command runs from).
const OUT_DIR: &str = "benchmark/out";

/// Share of `--seconds` each domain's stream gets when streams take turns
/// ([`DOMAINS`] order): hamming and graph queries cost a
/// millisecond or more, so their repetitions are the ones that need time.
const STREAM_SHARES: [f64; 4] = [0.5, 0.075, 0.075, 0.35];

/// Untraced/traced pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 2;

const USAGE: &str = "usage:
  benchmark run --workload <direct|sharded|tcp_solo|tcp_mixed> --seed <u64> \
[--seconds <s>] [--trace <0|1>] [--quick]
  benchmark all [--seed <u64>] [--seconds <s>] [--quick] [--out <set.json>]
  benchmark compare <a.json> <b.json>
  benchmark manifest";

/// Parsed `run` / `all` flags.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: f64::from(catalogue::RUN_SECONDS),
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?),
            "--seed" => flags.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                flags.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if flags.seconds.is_nan() || flags.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => flags.quick = true,
            "--out" => flags.out = Some(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| run_command(&f)),
        Some("all") => parse_flags(&args[1..]).and_then(|f| all_command(&f)),
        Some("compare") => compare::command(&args[1..]),
        Some("manifest") => {
            print!("{}", catalogue::manifest_json());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `run`: one workload, one mode. `Ok(false)` when an answer was wrong.
fn run_command(flags: &Flags) -> Result<bool, String> {
    let workload = flags
        .workload
        .as_deref()
        .filter(|w| WORKLOADS.iter().any(|(name, _)| name == w))
        .ok_or_else(|| format!("--workload must be one of the four names\n{USAGE}"))?;
    let report = run(workload, flags)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{workload}.{}.json", report.mode);
    std::fs::write(&path, report.document()).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", report.table());
    println!("# result document: {path}");
    println!("{}", report.driver_line());
    Ok(report.correct)
}

/// `all`: every workload in both modes, each in its own process (so that
/// `peak_rss_mb` is per workload), merged into one set document.
fn all_command(flags: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut docs = Vec::new();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        for (trace, mode) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", workload, "--trace", trace])
                .args(["--seed", &flags.seed.to_string()])
                .args(["--seconds", &flags.seconds.to_string()]);
            if flags.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().map_err(|e| e.to_string())?;
            all_correct &= status.success();
            let path = format!("{OUT_DIR}/{workload}.{mode}.json");
            docs.push(std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?);
        }
    }
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/set.json"));
    let set = format!("{{\"runs\": [\n{}]}}\n", docs.join(","));
    std::fs::write(&out, set).map_err(|e| format!("{out}: {e}"))?;
    println!("# set document: {out}");
    Ok(all_correct)
}

/// The workload's system under test.
enum System {
    /// The unsharded engines in the [`World`].
    Direct,
    /// K=4 indexes and their pool.
    Sharded(Box<ShardedRig>),
    /// The in-process server and its connections.
    Tcp(Box<TcpRig>),
}

/// Builds the workload's system [`SETUP_REPS`] times in a row, keeping
/// the last, and returns the seconds each build took.
fn set_up(
    workload: &str,
    world: &World,
    spec: &EngineSpec,
    engine_rounds: Vec<f64>,
) -> Result<(System, Vec<f64>), String> {
    match workload {
        "direct" => Ok((System::Direct, engine_rounds)),
        "sharded" => {
            let mut rounds = Vec::new();
            let mut kept = None;
            for _ in 0..SETUP_REPS {
                drop(kept.take());
                let (rig, secs) = ShardedRig::build(world, spec, SHARDED_K);
                rounds.push(secs);
                kept = Some(rig);
            }
            Ok((
                System::Sharded(Box::new(kept.expect("SETUP_REPS > 0"))),
                rounds,
            ))
        }
        _ => {
            let mut rounds = Vec::new();
            let mut kept: Option<TcpRig> = None;
            for _ in 0..SETUP_REPS {
                if let Some(previous) = kept.take() {
                    previous.shutdown();
                }
                let (rig, secs) = TcpRig::start(spec)?;
                rounds.push(secs);
                kept = Some(rig);
            }
            Ok((System::Tcp(Box::new(kept.expect("SETUP_REPS > 0"))), rounds))
        }
    }
}

fn direct_stream<'a, D: DomainBench>(
    index: usize,
    st: &'a DomainState<D>,
    n: usize,
    spec: &EngineSpec,
    ctx: &'a Ctx<'a>,
) -> Stream<'a> {
    workloads::direct::<D>(
        index,
        st.engine(),
        &st.queries[..n],
        &st.expected.ids[..n],
        D::params(spec, None),
        ctx,
    )
}

fn sharded_stream<'a, D: DomainBench>(
    index: usize,
    st: &'a DomainState<D>,
    (sharded, pool): (
        &'a pigeonring_service::ShardedIndex<D::Engine>,
        &'a pigeonring_service::WorkerPool,
    ),
    n: usize,
    spec: &EngineSpec,
    ctx: &'a Ctx<'a>,
) -> Stream<'a> {
    workloads::sharded::<D>(
        index,
        sharded,
        pool,
        &st.queries[..n],
        &st.expected.ids[..n],
        D::params(spec, None),
        ctx,
    )
}

/// How many of a domain's queries a run uses.
fn take<D: DomainBench>(st: &DomainState<D>, prefix_only: bool) -> usize {
    if prefix_only {
        st.prefix
    } else {
        st.queries.len()
    }
}

/// Runs `workload` once; streams come back in [`DOMAINS`] order. A
/// calibrated `units` carries the whole run's measuring time (shared by
/// the four streams when they take turns). `prefix_only` restricts every
/// domain to its trace prefix.
fn run_workload(
    workload: &str,
    world: &World,
    system: &mut System,
    spec: &EngineSpec,
    units: Units,
    prefix_only: bool,
    ctx: &Ctx<'_>,
) -> Result<Vec<StreamRun>, String> {
    let n = (
        take(&world.hamming, prefix_only),
        take(&world.edit, prefix_only),
        take(&world.set, prefix_only),
        take(&world.graph, prefix_only),
    );
    // Streams that take turns share the time by what one repetition costs
    // them; tcp_mixed runs all domains at once.
    let shares: Vec<Units> = STREAM_SHARES
        .iter()
        .map(|share| match units {
            Units::Calibrated { budget_s } => Units::Calibrated {
                budget_s: budget_s * share,
            },
            fixed => fixed,
        })
        .collect();
    match system {
        System::Direct => workloads::rotate(
            vec![
                direct_stream(0, &world.hamming, n.0, spec, ctx),
                direct_stream(1, &world.edit, n.1, spec, ctx),
                direct_stream(2, &world.set, n.2, spec, ctx),
                direct_stream(3, &world.graph, n.3, spec, ctx),
            ],
            &shares,
            ctx,
        ),
        System::Sharded(rig) => {
            let p = &rig.pool;
            workloads::rotate(
                vec![
                    sharded_stream(0, &world.hamming, (&rig.hamming, p), n.0, spec, ctx),
                    sharded_stream(1, &world.edit, (&rig.edit, p), n.1, spec, ctx),
                    sharded_stream(2, &world.set, (&rig.set, p), n.2, spec, ctx),
                    sharded_stream(3, &world.graph, (&rig.graph, p), n.3, spec, ctx),
                ],
                &shares,
                ctx,
            )
        }
        System::Tcp(rig) => {
            let doms = [
                tcp_domain(0, &world.hamming, n.0),
                tcp_domain(1, &world.edit, n.1),
                tcp_domain(2, &world.set, n.2),
                tcp_domain(3, &world.graph, n.3),
            ];
            if workload == "tcp_mixed" {
                workloads::tcp_mixed(&mut rig.clients, &doms, units, ctx)
            } else {
                let client = RefCell::new(&mut rig.clients[0]);
                let streams = doms
                    .iter()
                    .map(|dom| workloads::tcp_solo(&client, dom, ctx))
                    .collect();
                workloads::rotate(streams, &shares, ctx)
            }
        }
    }
}

fn tcp_domain<D: DomainBench>(index: usize, st: &DomainState<D>, n: usize) -> TcpDomain<'_> {
    TcpDomain {
        index,
        wire: &st.wire[..n],
        expected: &st.expected.ids[..n],
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, when the run happens inside a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// One run: inputs, oracle, set-up, workload, metrics.
fn run(workload: &str, flags: &Flags) -> Result<RunReport, String> {
    // Before any thread is spawned, so that they all inherit the mask.
    let pinned = pin::pin_to_one_cpu();
    let (spec, sizes) = if flags.quick {
        (EngineSpec::quick(), Sizes::quick())
    } else {
        (EngineSpec::full(), Sizes::full())
    };
    let checker = Checker::default();
    let mut world = World::generate(&spec, sizes, flags.seed);
    // The unsharded engines are the oracle everywhere, the system under
    // test in `direct`, and the innermost layer of the traced budget.
    let keep_engines = workload == "direct" || flags.trace;
    let engine_rounds = world.build_engines(&spec, if keep_engines { SETUP_REPS } else { 1 });
    world.run_oracle(&spec, sizes, flags.seed, &checker);
    if !keep_engines {
        world.drop_engines();
    }
    let (mut system, setup_rounds) = set_up(workload, &world, &spec, engine_rounds)?;

    let mut log = SpanLog::new();
    let ctx = Ctx {
        epoch: log.epoch(),
        checker: &checker,
        traced: false,
        quick: flags.quick,
    };
    let mut remarks = Vec::new();
    let mut metrics;
    let runs;
    if flags.trace {
        let before = match &mut system {
            System::Tcp(rig) => Some(rig.stats()?),
            _ => None,
        };
        // A quarter of the time: the heavy streams still measure their
        // five passes, which is what the p99 needs.
        let units = Units::Calibrated {
            budget_s: flags.seconds / 4.0,
        };
        runs = run_workload(workload, &world, &mut system, &spec, units, false, &ctx)?;
        let workload_delta = match (&mut system, before) {
            (System::Tcp(rig), Some(before)) => Some(rig.stats()?.delta(&before)),
            _ => None,
        };
        metrics = per_layer_metrics(
            workload,
            &world,
            &mut system,
            &spec,
            &runs,
            workload_delta,
            &ctx,
            &mut log,
            &mut remarks,
        )?;
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/{workload}.trace.json");
        std::fs::write(&path, spans::to_json(workload, flags.seed, log.spans()))
            .map_err(|e| format!("{path}: {e}"))?;
        remarks.push(format!("{} spans written to {path}", log.spans().len()));
    } else {
        let units = Units::Calibrated {
            budget_s: flags.seconds,
        };
        runs = run_workload(workload, &world, &mut system, &spec, units, false, &ctx)?;
        metrics = vec![Metric::timed("setup_s", "s", fastest(&setup_rounds))];
        for (d, run) in DOMAINS.iter().zip(&runs) {
            let estimate = run
                .estimate
                .ok_or_else(|| format!("{d}: nothing was measured"))?;
            metrics.push(Metric::timed(format!("{d}.qps"), "1/s", estimate.qps));
            metrics.push(Metric::timed(format!("{d}.p50_us"), "us", estimate.p50_us));
            remarks.push(format!("{d}: {} measured samples", run.lat_ns.len()));
        }
    }
    if let System::Tcp(rig) = system {
        rig.shutdown();
    }
    if !flags.trace {
        metrics.push(Metric::derived("peak_rss_mb", "MB", peak_rss_mb()));
    }

    // One digest per domain, from this workload's own replies; it must
    // equal the oracle's, and `compare` checks it across workloads.
    let expected_digests = [
        digest(&world.hamming.expected.ids),
        digest(&world.edit.expected.ids),
        digest(&world.set.expected.ids),
        digest(&world.graph.expected.ids),
    ];
    let mut digests = BTreeMap::new();
    let mut digests_agree = true;
    for ((d, run), expected) in DOMAINS.iter().zip(&runs).zip(expected_digests) {
        let got = digest(&run.answers);
        digests_agree &= got == expected;
        digests.insert(*d, got);
    }
    if !digests_agree {
        remarks.push("result digests differ from the oracle's".to_string());
    }

    let wanted = if flags.trace {
        catalogue::per_layer()
    } else {
        catalogue::end_to_end()
    };
    let metrics = in_catalogue_order(metrics, &wanted)?;
    Ok(RunReport {
        workload: workload.to_string(),
        mode: if flags.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
        seed: flags.seed,
        seconds: flags.seconds,
        quick: flags.quick,
        environment: vec![
            ("backend", kernels::backend().to_string()),
            ("machine", MachineFingerprint::detect().to_json()),
            ("nproc", pigeonring_service::cores().to_string()),
            (
                "pinned_cpu",
                pinned.map_or_else(|| "none (unpinned run)".to_string(), |cpu| cpu.to_string()),
            ),
            ("commit", commit()),
        ],
        correct: checker.failed() == 0 && digests_agree,
        attempted: checker.attempted(),
        failed: checker.failed(),
        digests,
        metrics,
        remarks,
    })
}

/// Orders `metrics` as the catalogue lists them and insists that exactly
/// the catalogue's names are present.
fn in_catalogue_order(
    mut metrics: Vec<Metric>,
    wanted: &[catalogue::Def],
) -> Result<Vec<Metric>, String> {
    let mut ordered = Vec::with_capacity(wanted.len());
    for def in wanted {
        let pos = metrics
            .iter()
            .position(|m| m.name == def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        let metric = metrics.swap_remove(pos);
        if metric.unit != def.unit {
            return Err(format!("metric {} has unit {}", def.name, metric.unit));
        }
        ordered.push(metric);
    }
    match metrics.first() {
        Some(extra) => Err(format!("metric {} is not in the catalogue", extra.name)),
        None => Ok(ordered),
    }
}

/// The traced run: everything `--trace 1` reports.
#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    workload: &str,
    world: &World,
    system: &mut System,
    spec: &EngineSpec,
    runs: &[StreamRun],
    workload_delta: Option<pigeonring_telemetry::Snapshot>,
    ctx: &Ctx<'_>,
    log: &mut SpanLog,
    remarks: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let checker = ctx.checker;
    let mut metrics = vec![Metric::derived("datagen.generate_s", "s", world.datagen_s)];

    // Tail latency of the workload itself (reported, not gated).
    for (d, run) in DOMAINS.iter().zip(runs) {
        metrics.push(
            Metric::derived(
                format!("tail.{d}.p99_us"),
                "us",
                percentile_us(&run.lat_ns, 99.0),
            )
            .with_note(format!("{} samples, closed loop", run.lat_ns.len())),
        );
    }

    // The same workload over the trace prefix, untraced and traced in
    // turn: the difference is what recording spans costs.
    let one_pass = Units::Fixed {
        warm: 0,
        measured: 1,
    };
    let mut timed = |traced: bool, log: Option<&mut SpanLog>| -> Result<f64, String> {
        let ctx = Ctx {
            epoch: ctx.epoch,
            checker,
            traced,
            quick: ctx.quick,
        };
        let start = Instant::now();
        let runs = run_workload(workload, world, system, spec, one_pass, true, &ctx)?;
        let secs = start.elapsed().as_secs_f64();
        if let Some(log) = log {
            for run in runs {
                log.extend(run.spans);
            }
        }
        Ok(secs)
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for pair in 0..OVERHEAD_PAIRS {
        untraced.push(timed(false, None)?);
        let keep = (pair + 1 == OVERHEAD_PAIRS).then_some(&mut *log);
        traced.push(timed(true, keep)?);
    }
    let (u, t) = (median(&untraced), median(&traced));
    metrics.push(
        Metric::derived("trace.overhead_pct", "%", (t - u) / u * 100.0).with_note(format!(
            "untraced {u:.4} s, traced {t:.4} s over the prefix"
        )),
    );

    // The layer probes need a server whatever the workload.
    let mut own_rig = None;
    let rig: &mut TcpRig = match system {
        System::Tcp(rig) => rig,
        _ => own_rig.insert(TcpRig::start(spec)?.0),
    };
    let pools = ServicePools::new();

    let before = rig.stats()?;
    let h = layers::chain::<Hamming>(&world.hamming, rig, &pools.workload, spec, checker, log)?;
    let e = layers::chain::<Edit>(&world.edit, rig, &pools.workload, spec, checker, log)?;
    let s = layers::chain::<Set>(&world.set, rig, &pools.workload, spec, checker, log)?;
    let g = layers::chain::<GraphDom>(&world.graph, rig, &pools.workload, spec, checker, log)?;
    // Server-side counters: around the workload when it ran over TCP,
    // otherwise around the chain's round trips.
    let delta = match workload_delta {
        Some(delta) => delta,
        None => {
            remarks.push(
                "server.* Stats deltas taken around the span chain (no TCP in this workload)"
                    .to_string(),
            );
            rig.stats()?.delta(&before)
        }
    };
    metrics.extend(layers::server_delta_metrics(&delta));

    metrics.extend(layers::engine_counts(&world.hamming, spec));
    metrics.extend(layers::engine_counts(&world.edit, spec));
    metrics.extend(layers::engine_counts(&world.set, spec));
    metrics.extend(layers::engine_counts(&world.graph, spec));
    let build =
        |name: &str, rounds: &[f64]| Metric::timed(format!("{name}.build_s"), "s", fastest(rounds));
    metrics.extend([
        build(Hamming::NAME, &world.hamming.build_s),
        build(Edit::NAME, &world.edit.build_s),
        build(Set::NAME, &world.set.build_s),
        build(GraphDom::NAME, &world.graph.build_s),
    ]);

    let engine = [
        layers::engine_probes(&world.hamming, spec, checker),
        layers::engine_probes(&world.edit, spec, checker),
        layers::engine_probes(&world.set, spec, checker),
        layers::engine_probes(&world.graph, spec, checker),
    ];
    let searched = engine.each_ref().map(|e| e.search_us);
    metrics.extend(layers::service_probes(
        &world.hamming,
        spec,
        &pools,
        searched[0],
        checker,
    ));
    metrics.extend(layers::service_probes(
        &world.edit,
        spec,
        &pools,
        searched[1],
        checker,
    ));
    metrics.extend(layers::service_probes(
        &world.set,
        spec,
        &pools,
        searched[2],
        checker,
    ));
    metrics.extend(layers::service_probes(
        &world.graph,
        spec,
        &pools,
        searched[3],
        checker,
    ));
    for chain in [h, e, s, g] {
        metrics.extend(chain);
    }
    for probes in engine {
        metrics.extend(probes.metrics);
    }

    let sample_frame =
        pigeonring_server::wire::encode_request(&pigeonring_server::Request::Query {
            request_id: 1,
            query: world.hamming.wire[0].clone(),
            explain: false,
        });
    metrics.extend(layers::micro_probes(&pools, rig, &sample_frame)?);
    if let Some(rig) = own_rig {
        rig.shutdown();
    }
    Ok(metrics)
}
