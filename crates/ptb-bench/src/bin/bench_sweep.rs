//! Records the simulator's own speed as one JSON document on stdout
//! (progress goes to stderr), so `bench_sweep > BENCH_sweep.json`
//! records it. Four sections, every row the same shape — network,
//! layer or `null`, TW or `null`, then variant → ms:
//!
//! * `kernel` — every layer of every benchmark network under PTB+StSAP
//!   at each Fig. 10 TW: the serial per-tap oracle
//!   (`simulate_layer_reference`) against the production kernel as the
//!   service runs it (`PreparedLayer::simulate_memoized`, on the
//!   layer's cached firing index).
//! * `drain` — each network's PTB+StSAP sweep over the same TWs as one
//!   work list ([`sweep_reports`]) on a warm cache, drained by one
//!   thread against `drainers` threads.
//! * `cache` — each network's three-policy sweep (baseline \[14\] at
//!   TW 1, PTB and PTB+StSAP at every TW), each run on a fresh cache in
//!   `CacheMode::Off` against `CacheMode::Mem`.
//! * `audit` — the PTB+StSAP sweep at TWs 1/4/16/64 of the four
//!   networks `verify_sweep` audits, each run on a fresh cache, at audit
//!   levels `off`, `sample` and `full`.
//!
//! Before any timing, each row runs every variant once and exits
//! nonzero unless they agree: equal reports, and (audit rows) a clean
//! audit at every level. Then [`time_row`] runs the variants in turn
//! for [`ROUNDS`] rounds and keeps each variant's minimum.
//!
//! Honors `PTB_QUICK=1` (cropped layers, shortened period). `PTB_CACHE`
//! and `PTB_VERIFY` are ignored: the sections choose those modes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ptb_accel::audit::AuditLevel;
use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::report::NetworkReport;
use ptb_accel::{simulate_layer_reference, PreparedLayer};
use ptb_bench::{exit_on_findings, sweep_reports, ActivityCache, CacheMode, RunOptions};
use serde::{Serialize, Value};
use spikegen::NetworkSpec;

/// Timed rounds per row; each variant keeps its best.
const ROUNDS: usize = 5;

/// One timed row: what was run, then each variant's best time in ms.
#[derive(Serialize)]
struct Row {
    network: String,
    layer: Option<String>,
    tw: Option<u32>,
    ms: Value,
}

/// One section of the record: what its rows time, its rows, and per
/// variant the sum of its rows' times.
#[derive(Serialize)]
struct Section {
    description: String,
    rows: Vec<Row>,
    total_ms: Value,
}

#[derive(Serialize)]
struct Record {
    host_cores: usize,
    drainers: usize,
    fidelity: String,
    reps: usize,
    statistic: String,
    kernel: Section,
    drain: Section,
    cache: Section,
    audit: Section,
}

/// A row's variants: each a name and a closure that runs it once.
type Variants<'a, T> = [(&'static str, &'a dyn Fn() -> T)];

/// Runs every variant once and exits nonzero unless all return the
/// same value; then runs them in turn for [`ROUNDS`] rounds and returns
/// each variant's minimum wall time in ms, in variant order.
fn time_row<T: PartialEq>(what: &str, variants: &Variants<T>) -> Vec<(&'static str, f64)> {
    let (first, rest) = variants.split_first().expect("a row has variants");
    let want = (first.1)();
    if let Some((name, _)) = rest.iter().find(|(_, run)| run() != want) {
        eprintln!("bench_sweep: {what}: {name} disagrees with {}", first.0);
        std::process::exit(1);
    }
    let mut best = vec![f64::INFINITY; variants.len()];
    for _ in 0..ROUNDS {
        for (b, (_, run)) in best.iter_mut().zip(variants) {
            let t0 = Instant::now();
            black_box(run());
            *b = b.min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    variants.iter().map(|(name, _)| *name).zip(best).collect()
}

/// Variant → ms as a JSON object, each time rounded to the microsecond.
fn ms_object(times: &[(&str, f64)]) -> Value {
    let field = |(name, ms): &(&str, f64)| (name.to_string(), Value::F64((ms * 1e3).round() / 1e3));
    Value::Object(times.iter().map(field).collect())
}

impl Section {
    fn new(description: &str) -> Self {
        Section {
            description: description.to_string(),
            rows: Vec::new(),
            total_ms: Value::Object(Vec::new()),
        }
    }

    /// Times one row's variants ([`time_row`]) and records the row.
    fn push<T: PartialEq>(
        &mut self,
        network: &str,
        layer: Option<&str>,
        tw: Option<u32>,
        variants: &Variants<T>,
    ) {
        let tw_label = tw.map_or(String::new(), |tw| format!("tw={tw}"));
        let what = format!("{network} {} {tw_label}", layer.unwrap_or(""));
        let mut times = time_row(&what, variants);
        eprintln!("{what}: {times:.3?} ms");
        let ms = ms_object(&times);
        if let Value::Object(sums) = &self.total_ms {
            for ((_, sum), (_, ms)) in sums.iter().zip(&mut times) {
                *ms += sum.as_f64().expect("totals are numbers");
            }
        }
        self.total_ms = ms_object(&times);
        self.rows.push(Row {
            network: network.to_string(),
            layer: layer.map(str::to_string),
            tw,
            ms,
        });
    }
}

/// The reports of `policy` over `net` at `tws` on `drainers` threads,
/// exiting nonzero on any audit finding.
fn sweep(
    net: &NetworkSpec,
    policy: Policy,
    tws: &[u32],
    opts: &RunOptions,
    cache: &ActivityCache,
    drainers: usize,
) -> Vec<NetworkReport> {
    sweep_reports(net, policy, tws, opts, cache, drainers)
        .into_iter()
        .map(|(report, audit)| {
            exit_on_findings(&audit);
            report
        })
        .collect()
}

fn main() {
    let opts = RunOptions {
        cache: CacheMode::Mem,
        verify: AuditLevel::Off,
        ..RunOptions::from_env()
    };
    let quick = opts.max_timesteps.is_some();
    let host_cores = ptb_bench::pool_size();
    let drainers = host_cores.max(2);
    let tws = SimInputs::tw_sweep();
    let stsap = Policy::ptb_with_stsap();
    let benchmarks = spikegen::datasets::all_benchmarks();

    let mut kernel = Section::new(
        "per layer, PTB+StSAP at TWs 1..64: the serial per-tap oracle vs the \
         production kernel (PreparedLayer::simulate_memoized, cached firing index)",
    );
    for net in &benchmarks {
        for (i, layer) in net.layers.iter().enumerate() {
            let (shape, timesteps, seed) = opts.layer_inputs(net, i);
            let activity = layer
                .input_profile
                .generate(shape.ifmap_neurons(), timesteps, seed);
            let prep = PreparedLayer::new(shape, Arc::new(activity));
            for &tw in &tws {
                let inputs = SimInputs::hpca22(tw);
                kernel.push(
                    &net.name,
                    Some(&layer.name),
                    Some(tw),
                    &[
                        ("oracle", &|| {
                            simulate_layer_reference(&inputs, stsap, shape, prep.spikes())
                        }),
                        ("kernel", &|| prep.simulate_memoized(&inputs, stsap)),
                    ],
                );
            }
        }
    }

    let mut drain = Section::new(
        "per network, the PTB+StSAP sweep at TWs 1..64 as one work list of \
         (TW point, layer) items on a warm cache: one drainer vs `drainers`",
    );
    for net in &benchmarks {
        let cache = opts.new_cache();
        drain.push(
            &net.name,
            None,
            None,
            &[
                ("one_drainer", &|| sweep(net, stsap, &tws, &opts, &cache, 1)),
                ("pool", &|| sweep(net, stsap, &tws, &opts, &cache, drainers)),
            ],
        );
    }

    let three: [(Policy, &[u32]); 3] = [
        (Policy::BaselineTemporal, &[1]),
        (Policy::ptb(), &tws),
        (stsap, &tws),
    ];
    let mut cache = Section::new(
        "per network, the baseline [14] at TW 1 and PTB and PTB+StSAP at \
         TWs 1..64, each run on a fresh activity cache: mode off vs mem",
    );
    for net in &benchmarks {
        let three_policy = |mode| {
            let cache = ActivityCache::new(mode);
            three
                .iter()
                .flat_map(|&(policy, tws)| sweep(net, policy, tws, &opts, &cache, host_cores))
                .collect::<Vec<_>>()
        };
        cache.push(
            &net.name,
            None,
            None,
            &[
                ("off", &|| three_policy(CacheMode::Off)),
                ("mem", &|| three_policy(CacheMode::Mem)),
            ],
        );
    }

    let audit_tws = [1, 4, 16, 64];
    let mut audit = Section::new(
        "per network, the PTB+StSAP sweep at TWs 1/4/16/64, each run on a \
         fresh activity cache, at audit level off vs sample vs full",
    );
    let audited = benchmarks
        .iter()
        .cloned()
        .chain([spikegen::datasets::cifar10_cnn()]);
    for net in audited {
        let at = |verify| {
            let opts = RunOptions { verify, ..opts };
            sweep(
                &net,
                stsap,
                &audit_tws,
                &opts,
                &opts.new_cache(),
                host_cores,
            )
        };
        audit.push(
            &net.name,
            None,
            None,
            &[
                ("off", &|| at(AuditLevel::Off)),
                ("sample", &|| at(AuditLevel::Sample)),
                ("full", &|| at(AuditLevel::Full)),
            ],
        );
    }

    let record = Record {
        host_cores,
        drainers,
        fidelity: if quick { "quick" } else { "full" }.to_string(),
        reps: ROUNDS,
        statistic: format!(
            "per variant, the minimum of {ROUNDS} rounds that run a row's variants \
             in turn, after one untimed run that checks they agree"
        ),
        kernel,
        drain,
        cache,
        audit,
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&record).expect("record serializes")
    );
}
