//! End-to-end benchmark: the paper's query catalog through the public
//! entry points `sip_core::run_query`, `sip_core::run_query_dop` and
//! `sip_net::run_distributed`, timed from outside, every result checked
//! against the oracle. See `README.md` beside this crate for the
//! workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload local-dop1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod summary;

use sip_common::retry::RetryPolicy;
use sip_common::trace::{Phase, TraceLevel};
use sip_common::{Result, Row, SipError};
use sip_core::{run_query, run_query_dop, AipConfig, QuerySpec, Strategy};
use sip_data::{generate, Catalog, TpchConfig};
use sip_engine::{canonical, execute_oracle, DelayModel, ExecMetrics, ExecOptions, PartitionMap};
use sip_net::{run_distributed, LinkSpec, NetStats, RemoteConfig};
use sip_queries::{build_query, query_def};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scale factor of the generated catalogs.
const SF: f64 = 0.2;
/// Zipf factor of the skewed catalog the paper's B variants run on.
const SKEWED_ZIPF: f64 = 0.5;
/// Set-ups per process; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// The strategies every query runs under, in this order.
const STRATEGIES: [Strategy; 3] = [
    Strategy::Baseline,
    Strategy::FeedForward,
    Strategy::CostBased,
];
/// The local queries of Table I (the C variants are the distributed ones).
const LOCAL_QUERIES: [&str; 17] = [
    "Q1A", "Q1B", "Q1D", "Q1E", "Q2A", "Q2B", "Q2C", "Q2D", "Q2E", "Q3A", "Q3B", "Q3D", "Q3E",
    "Q4A", "Q4B", "Q5A", "Q5B",
];
/// Figs. 9/11: PARTSUPP delayed by the paper's §VI-B model.
const DELAYED_QUERIES: [&str; 6] = ["Q1A", "Q1D", "Q1E", "Q3A", "Q3D", "Q3E"];
/// Fig. 13: PARTSUPP fetched from a remote site.
const REMOTE_QUERIES: [&str; 2] = ["Q3C", "Q1C"];
/// The table the stalled workload delays or fetches remotely.
const STALLED_TABLE: &str = "partsupp";
/// `latency_s.tail` is this percentile when a window holds enough queries.
const TAIL_CAP: f64 = 0.9;
/// Failure messages printed to stderr per run, at most.
const MAX_REPORTED_FAILURES: u64 = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// Serial push execution, CPU-bound: `run_query`, recovery off.
    LocalDop1,
    /// The same cells partition-parallel at dop = nproc, recovery armed.
    LocalDopN,
    /// §VI-B: PARTSUPP delayed or remote, dop 1.
    Stalled,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::LocalDop1, Workload::LocalDopN, Workload::Stalled];

    fn name(self) -> &'static str {
        match self {
            Workload::LocalDop1 => "local-dop1",
            Workload::LocalDopN => "local-dopN",
            Workload::Stalled => "stalled-inputs",
        }
    }

    fn queries(self) -> Vec<(&'static str, Source)> {
        match self {
            Workload::LocalDop1 | Workload::LocalDopN => {
                LOCAL_QUERIES.iter().map(|&q| (q, Source::Local)).collect()
            }
            Workload::Stalled => DELAYED_QUERIES
                .iter()
                .map(|&q| (q, Source::Delayed))
                .chain(REMOTE_QUERIES.iter().map(|&q| (q, Source::Remote)))
                .collect(),
        }
    }
}

/// How a query's PARTSUPP input arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    Local,
    Delayed,
    Remote,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One catalog query, ready to run.
struct Query {
    id: &'static str,
    skewed: bool,
    source: Source,
    spec: QuerySpec,
}

/// What one engine call returned.
struct Run {
    rows: Vec<Row>,
    metrics: ExecMetrics,
    net: Option<NetStats>,
    map: Option<Arc<PartitionMap>>,
}

/// Per-layer sums over the queries of one window.
#[derive(Default)]
struct Layers {
    queries: u64,
    operators: u64,
    batches: u64,
    rows_in: u64,
    phase_nanos: [u64; sip_common::trace::N_PHASES],
    filters_injected: u64,
    rows_probed: u64,
    rows_dropped: u64,
    filter_bytes: u64,
    rows_routed: u64,
    skew_sum: f64,
    skew_queries: u64,
    attempts: u64,
    fragment_retries: u64,
    speculated: u64,
    net_bytes: u64,
    rows_pruned_remote: u64,
    filters_shipped: u64,
    lower_s: f64,
}

impl Layers {
    fn add(&mut self, run: &Run) {
        let m = &run.metrics;
        self.queries += 1;
        self.operators += m.per_op.len() as u64;
        for op in &m.per_op {
            self.batches += op.batches_in;
            self.rows_in += op.rows_in[0] + op.rows_in[1];
            self.rows_probed += op.aip_probed;
            self.rows_dropped += op.aip_dropped;
            self.rows_routed += op.routed.iter().sum::<u64>();
            self.fragment_retries += op.retries;
            self.speculated += op.speculated;
        }
        for (sum, n) in self.phase_nanos.iter_mut().zip(m.phase_totals()) {
            *sum += n;
        }
        self.filters_injected += m.filters_injected;
        self.filter_bytes += m.filter_stats.iter().map(|f| f.bytes).sum::<u64>();
        self.attempts += u64::from(m.attempts);
        if let Some(map) = &run.map {
            let parts = m.per_partition(map);
            let max = parts.iter().map(|p| p.rows_out).max().unwrap_or(0) as f64;
            let mean = parts.iter().map(|p| p.rows_out).sum::<u64>() as f64 / parts.len() as f64;
            if mean > 0.0 {
                self.skew_sum += max / mean;
                self.skew_queries += 1;
            }
        }
        if let Some(net) = &run.net {
            self.net_bytes += net.total_bytes();
            self.rows_pruned_remote += net.rows_pruned_remote.load(Relaxed);
            self.filters_shipped += net.filters_shipped.load(Relaxed);
        }
    }
}

/// The measurements of one timed window.
#[derive(Default)]
struct Window {
    latencies: Vec<f64>,
    per_cell: Vec<Vec<f64>>,
    peak_state_mb: Vec<f64>,
    elapsed_s: f64,
    cpu_s: f64,
    layers: Layers,
}

impl Window {
    fn queries_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.elapsed_s
    }
}

/// Everything a run measures, plus its failure tally.
struct Bench {
    workload: Workload,
    dop: u32,
    catalogs: Catalogs,
    queries: Vec<Query>,
    /// `(query index, strategy, result digest)` of every completed call,
    /// checked against the oracle by [`Bench::verify`].
    results: Vec<(usize, Strategy, u64)>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn catalog(&self, skewed: bool) -> &Catalog {
        self.catalogs[usize::from(skewed)]
            .as_ref()
            .expect("set-up generates every catalog the workload's queries use")
    }

    /// One engine call. `warm` runs the cell with its source undelayed
    /// and local, for the untimed warm-up pass.
    fn call(&self, q: &Query, strategy: Strategy, trace: TraceLevel, warm: bool) -> Result<Run> {
        let catalog = self.catalog(q.skewed);
        let aip = AipConfig::paper();
        let mut opts = ExecOptions::default().with_trace(trace);
        let source = if warm { Source::Local } else { q.source };
        match (self.workload, source) {
            (Workload::LocalDopN, _) => {
                opts = opts.with_retry(RetryPolicy::with_attempts(3));
                let (out, map) = run_query_dop(&q.spec, catalog, strategy, opts, &aip, self.dop)?;
                Ok(Run {
                    rows: out.rows,
                    metrics: out.metrics,
                    net: None,
                    map,
                })
            }
            (_, Source::Remote) => {
                let remote = RemoteConfig::new(STALLED_TABLE, LinkSpec::lan_100mbps());
                let run = run_distributed(&q.spec, catalog, strategy, opts, &aip, &remote)?;
                Ok(Run {
                    rows: run.output.rows,
                    metrics: run.output.metrics,
                    net: Some(run.net),
                    map: None,
                })
            }
            (_, source) => {
                if source == Source::Delayed {
                    opts = opts.with_delay(STALLED_TABLE, DelayModel::paper_delayed());
                }
                let out = run_query(&q.spec, catalog, strategy, opts, &aip)?;
                Ok(Run {
                    rows: out.rows,
                    metrics: out.metrics,
                    net: None,
                    map: None,
                })
            }
        }
    }

    /// Run one cell. An error or leaked state counts as failed at once
    /// (`None`); the result's digest waits for [`Bench::verify`].
    fn checked(
        &mut self,
        qi: usize,
        strategy: Strategy,
        trace: TraceLevel,
        warm: bool,
    ) -> Option<(f64, Run)> {
        let start = Instant::now();
        let outcome = self.call(&self.queries[qi], strategy, trace, warm);
        let latency = start.elapsed().as_secs_f64();
        self.attempted += 1;
        match outcome {
            Ok(run) if run.metrics.final_state_bytes == 0 => {
                self.results.push((qi, strategy, digest(&run.rows)));
                Some((latency, run))
            }
            Ok(run) => {
                let leaked = run.metrics.final_state_bytes;
                self.fail(
                    qi,
                    strategy,
                    &format!("{leaked} bytes of state left at the end"),
                );
                None
            }
            Err(e) => {
                self.fail(qi, strategy, &format!("error: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, qi: usize, strategy: Strategy, why: &str) {
        self.failed += 1;
        if self.failed <= MAX_REPORTED_FAILURES {
            eprintln!(
                "perfbench: FAILED {} {}: {why}",
                self.queries[qi].id,
                strategy.name()
            );
        }
    }

    /// Check every completed call against the oracle, which runs once per
    /// query here, after every window: it fills each table's lazy row
    /// cache, which the engine never reads and which would otherwise sit
    /// in `rss_peak_mb`.
    fn verify(&mut self) -> Result<()> {
        let mut expected = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            let phys = q.spec.lower(self.catalog(q.skewed), Strategy::Baseline)?;
            expected.push(digest(&execute_oracle(&phys)?));
        }
        for (qi, strategy, got) in std::mem::take(&mut self.results) {
            if got != expected[qi] {
                self.fail(qi, strategy, "result differs from the oracle's");
            }
        }
        Ok(())
    }

    fn cells(&self) -> Vec<(usize, Strategy)> {
        (0..self.queries.len())
            .flat_map(|qi| STRATEGIES.map(|s| (qi, s)))
            .collect()
    }

    fn warm_up(&mut self) {
        for (qi, strategy) in self.cells() {
            self.checked(qi, strategy, TraceLevel::Off, true);
        }
    }

    /// Closed loop over the cells in a fixed order, whole passes, until at
    /// least `seconds` have gone by.
    fn window(&mut self, seconds: u64, trace: TraceLevel) -> Result<Window> {
        let cells = self.cells();
        let mut w = Window {
            per_cell: vec![Vec::new(); cells.len()],
            ..Window::default()
        };
        let cpu0 = cpu_seconds()?;
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(seconds) {
            for (ci, &(qi, strategy)) in cells.iter().enumerate() {
                if trace != TraceLevel::Off {
                    let q = &self.queries[qi];
                    let t = Instant::now();
                    q.spec.lower(self.catalog(q.skewed), strategy)?;
                    w.layers.lower_s += t.elapsed().as_secs_f64();
                }
                if let Some((latency, run)) = self.checked(qi, strategy, trace, false) {
                    w.latencies.push(latency);
                    w.per_cell[ci].push(latency);
                    w.peak_state_mb.push(run.metrics.peak_state_mb());
                    w.layers.add(&run);
                }
            }
        }
        w.elapsed_s = start.elapsed().as_secs_f64();
        w.cpu_s = cpu_seconds()? - cpu0;
        Ok(w)
    }
}

/// The uniform and the skewed catalog, indexed by `skewed`; a catalog no
/// query of the workload uses is not generated.
type Catalogs = [Option<Catalog>; 2];

/// The catalogs and the workload's query plans, timed.
struct Setup {
    catalogs: Catalogs,
    specs: Vec<QuerySpec>,
    generate_s: f64,
    build_s: f64,
}

fn set_up(workload: Workload, seed: u64) -> Result<Setup> {
    let start = Instant::now();
    let gen = |zipf_z| {
        generate(&TpchConfig {
            scale_factor: SF,
            seed,
            zipf_z,
        })
    };
    let skewed = workload
        .queries()
        .into_iter()
        .map(|(id, _)| Ok(query_def(id)?.skewed_data))
        .collect::<Result<Vec<_>>>()?;
    let catalogs = [
        skewed.contains(&false).then(|| gen(0.0)).transpose()?,
        skewed
            .contains(&true)
            .then(|| gen(SKEWED_ZIPF))
            .transpose()?,
    ];
    let generate_s = start.elapsed().as_secs_f64();
    let built = Instant::now();
    let specs = workload
        .queries()
        .into_iter()
        .zip(skewed)
        .map(|((id, _), skewed)| {
            let catalog = catalogs[usize::from(skewed)].as_ref();
            build_query(id, catalog.expect("generated above"))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Setup {
        catalogs,
        specs,
        generate_s,
        build_s: built.elapsed().as_secs_f64(),
    })
}

/// Order-independent digest of a result multiset.
fn digest(rows: &[Row]) -> u64 {
    let mut h = DefaultHasher::new();
    canonical(rows).hash(&mut h);
    h.finish()
}

fn cpu_seconds() -> Result<f64> {
    /// `USER_HZ`, the unit of `/proc` CPU times on every Linux ABI.
    const TICKS_PER_S: f64 = 100.0;
    let stat = read_proc("/proc/self/stat")?;
    let ticks = summary::parse_stat_cpu_ticks(&stat)
        .ok_or_else(|| SipError::Exec("unparsable /proc/self/stat".into()))?;
    Ok(ticks as f64 / TICKS_PER_S)
}

fn read_proc(path: &str) -> Result<String> {
    std::fs::read_to_string(path).map_err(|e| SipError::Exec(format!("{path}: {e}")))
}

/// Reset `VmHWM` to the current RSS so the next peak excludes set-up.
fn reset_peak_rss() -> Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| SipError::Exec(format!("/proc/self/clear_refs: {e}")))
}

fn peak_rss_mb() -> Result<f64> {
    let status = read_proc("/proc/self/status")?;
    let kb = summary::parse_status_kb(&status, "VmHWM")
        .ok_or_else(|| SipError::Exec("no VmHWM in /proc/self/status".into()))?;
    Ok(kb as f64 / 1024.0)
}

fn cpu_model() -> String {
    read_proc("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A metric as the result line carries it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn need(value: Option<f64>, what: &str) -> Result<f64> {
    value.ok_or_else(|| SipError::Exec(format!("too few samples for {what}")))
}

fn end_to_end(w: &Window, setup_s: f64, rss_peak_mb: f64) -> Result<Vec<Metric>> {
    Ok(vec![
        metric("queries_per_s", w.queries_per_s(), "1/s"),
        metric(
            "latency_s.p50",
            need(summary::percentile(&w.latencies, 0.5), "p50")?,
            "s",
        ),
        metric(
            "latency_s.tail",
            need(summary::tail(&w.latencies, TAIL_CAP).map(|t| t.0), "tail")?,
            "s",
        ),
        metric(
            "latency_s.geomean",
            need(summary::geomean_of_medians(&w.per_cell), "geomean")?,
            "s",
        ),
        metric(
            "peak_state_mb.mean",
            w.peak_state_mb.iter().sum::<f64>() / w.latencies.len() as f64,
            "MB",
        ),
        metric("rss_peak_mb", rss_peak_mb, "MB"),
        metric("setup_s", setup_s, "s"),
    ])
}

fn per_layer(
    traced: &Window,
    untraced: &Window,
    generate_s: f64,
    build_s_per_query: f64,
) -> Vec<Metric> {
    let l = &traced.layers;
    let q = l.queries.max(1) as f64;
    let phase_s = |p: Phase| l.phase_nanos[p as usize] as f64 / 1e9 / q;
    const MB: f64 = 1024.0 * 1024.0;
    vec![
        metric("data.generate_s", generate_s, "s"),
        metric("plan.build_s", build_s_per_query, "s"),
        metric("plan.lower_s", l.lower_s / q, "s"),
        metric(
            "engine.operators_per_query",
            l.operators as f64 / q,
            "count",
        ),
        metric("engine.batches_per_query", l.batches as f64 / q, "count"),
        metric("engine.rows_in_per_query", l.rows_in as f64 / q, "count"),
        metric("engine.compute_s", phase_s(Phase::Compute), "s"),
        metric("engine.channel_send_s", phase_s(Phase::ChannelSend), "s"),
        metric("engine.channel_recv_s", phase_s(Phase::ChannelRecv), "s"),
        metric(
            "engine.cpu_s_per_query",
            untraced.cpu_s / untraced.latencies.len() as f64,
            "s",
        ),
        metric(
            "aip.filters_injected",
            l.filters_injected as f64 / q,
            "count",
        ),
        metric("aip.rows_probed", l.rows_probed as f64 / q, "count"),
        metric("aip.rows_dropped", l.rows_dropped as f64 / q, "count"),
        metric(
            "aip.drop_ratio",
            summary::drop_ratio(l.rows_dropped, l.rows_probed),
            "ratio",
        ),
        metric("aip.filter_mb", l.filter_bytes as f64 / MB / q, "MB"),
        metric("aip.tap_probe_s", phase_s(Phase::TapProbe), "s"),
        metric("aip.admit_build_s", phase_s(Phase::AdmitBuild), "s"),
        metric("parallel.rows_routed", l.rows_routed as f64 / q, "count"),
        metric(
            "parallel.partition_skew",
            if l.skew_queries == 0 {
                0.0
            } else {
                l.skew_sum / l.skew_queries as f64
            },
            "ratio",
        ),
        metric("recovery.attempts", l.attempts as f64 / q, "count"),
        metric(
            "recovery.fragment_retries",
            l.fragment_retries as f64 / q,
            "count",
        ),
        metric("recovery.speculated", l.speculated as f64 / q, "count"),
        metric("net.bytes_shipped", l.net_bytes as f64 / q, "bytes"),
        metric(
            "net.rows_pruned_remote",
            l.rows_pruned_remote as f64 / q,
            "count",
        ),
        metric("net.filters_shipped", l.filters_shipped as f64 / q, "count"),
        metric(
            "trace.overhead",
            untraced.queries_per_s() / traced.queries_per_s(),
            "ratio",
        ),
    ]
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(SipError::Exec(format!("{} is not finite", m.name)));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn run(args: Args) -> Result<String> {
    let workload = args.workload;
    let dop = match workload {
        Workload::LocalDopN => std::thread::available_parallelism().map_or(1, |n| n.get() as u32),
        _ => 1,
    };
    println!(
        "box: nproc={} cpu={:?} | workload={} dop={dop} sf={SF} data_seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model(),
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut generate_s = Vec::with_capacity(SETUP_REPEATS);
    let mut build_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let start = Instant::now();
        let s = set_up(workload, args.seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        generate_s.push(s.generate_s);
        build_s.push(s.build_s);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let setup_s = need(summary::median(&setup_s), "setup_s")?;
    let generate_s = need(summary::median(&generate_s), "data.generate_s")?;
    let n_queries = setup.specs.len() as f64;
    let build_s_per_query = need(summary::median(&build_s), "plan.build_s")? / n_queries;

    let queries = workload
        .queries()
        .into_iter()
        .zip(setup.specs)
        .map(|((id, source), spec)| {
            Ok(Query {
                id,
                skewed: query_def(id)?.skewed_data,
                source,
                spec,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let mut bench = Bench {
        workload,
        dop,
        catalogs: setup.catalogs,
        queries,
        results: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    bench.warm_up();

    reset_peak_rss()?;
    let timed = bench.window(args.seconds, TraceLevel::Off)?;
    let rss_peak_mb = peak_rss_mb()?;
    for ((qi, strategy), samples) in bench.cells().into_iter().zip(&timed.per_cell) {
        println!(
            "cell {:<4} {:<12} median {:>9.4} s over {}",
            bench.queries[qi].id,
            strategy.name(),
            summary::median(samples).unwrap_or(f64::NAN),
            samples.len()
        );
    }
    let metrics = if args.trace {
        let traced = bench.window(args.seconds, TraceLevel::Ops)?;
        per_layer(&traced, &timed, generate_s, build_s_per_query)
    } else {
        end_to_end(&timed, setup_s, rss_peak_mb)?
    };
    bench.verify()?;
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "timed queries: {} in {:.3} s over {} cells, latency_s.tail at p{:.0}; attempted {}, failed {}",
        timed.latencies.len(),
        timed.elapsed_s,
        timed.per_cell.len(),
        summary::tail(&timed.latencies, TAIL_CAP).map_or(f64::NAN, |t| t.1 * 100.0),
        bench.attempted,
        bench.failed
    );
    result_line(bench.failed == 0, bench.attempted, bench.failed, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <local-dop1|local-dopN|stalled-inputs> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
