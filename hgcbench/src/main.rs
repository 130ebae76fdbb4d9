//! End-to-end and per-layer benchmark of the FreeHGC workspace.
//!
//! ```text
//! hgcbench --workload <protocol|cold-scale|serve-mixed> --seed <n> \
//!          --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every input that varies between runs is generated from `--seed`. With
//! `--trace 0` the last line of standard output is a JSON object with the
//! end-to-end metrics; with `--trace 1` the run measures the workload
//! traced in this process and untraced in a child process (half the
//! seconds each), probes every layer on the workload's own graph, writes
//! the spans to `.bench_out/` and reports the per-layer metrics plus the
//! tracing overhead of each end-to-end metric. The line before it records
//! the thread budgets and sample counts. The exit code is 0 only when
//! every output check passed. `--smoke` shrinks every graph for the
//! benchmark's own test.

mod cold_scale;
mod common;
mod layers;
mod protocol;
mod report;
mod serve_mixed;
mod trace;

use report::{median, Metrics, Tally};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// What one measured pass of a workload produced.
pub struct Pass {
    /// End-to-end metrics measured by the pass (all but `setup_s` and
    /// `ok_share`, which [`measure`] adds).
    pub metrics: Metrics,
    pub tally: Tally,
    /// Per-layer metrics the workload measures natively.
    pub layer: Metrics,
    pub facts: Vec<(String, f64)>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    Protocol,
    ColdScale,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Protocol,
        Workload::ColdScale,
        Workload::ServeMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Protocol => "protocol",
            Workload::ColdScale => "cold-scale",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Generator scale factor (full run, smoke run).
    fn scale(self, smoke: bool) -> f64 {
        match (self, smoke) {
            (Workload::Protocol, false) => 2.0,
            (Workload::ColdScale, false) => 32.0,
            (Workload::ServeMixed, false) => 1.0,
            (Workload::Protocol, true) => 0.3,
            (Workload::ColdScale, true) => 0.5,
            (Workload::ServeMixed, true) => 0.3,
        }
    }
}

enum Inputs {
    Protocol(protocol::Inputs),
    ColdScale(cold_scale::Inputs),
    ServeMixed(serve_mixed::Inputs),
}

impl Inputs {
    fn setup(w: Workload, seed: u64, scale: f64) -> Self {
        match w {
            Workload::Protocol => Inputs::Protocol(protocol::setup(seed, scale)),
            Workload::ColdScale => Inputs::ColdScale(cold_scale::setup(seed, scale)),
            Workload::ServeMixed => Inputs::ServeMixed(serve_mixed::setup(seed, scale)),
        }
    }

    fn run(&self, seconds: f64) -> Pass {
        match self {
            Inputs::Protocol(i) => protocol::run(i, seconds),
            Inputs::ColdScale(i) => cold_scale::run(i, seconds),
            Inputs::ServeMixed(i) => serve_mixed::run(i, seconds),
        }
    }

    /// The graph the layer probe runs on.
    fn primary(&self) -> layers::Primary {
        let (graph, kind, cfg) = match self {
            Inputs::Protocol(i) => {
                let d = &i.datasets[0];
                (d.graph.clone(), d.kind, d.cfg.clone())
            }
            Inputs::ColdScale(i) => (i.graph.clone(), cold_scale::KIND, i.cfg.clone()),
            Inputs::ServeMixed(i) => {
                let s = &i.graphs[0];
                (s.graph.clone(), s.kind, s.cfg.clone())
            }
        };
        layers::Primary { graph, kind, cfg }
    }
}

/// Kernel thread budget of every workload, pinned through
/// `set_thread_override`. Serial, because on a shared 2-core host the
/// parallel kernels (which spawn and join threads on every call) turn
/// the host's CPU steal into several times more wall-time noise: in
/// alternated runs of `cold-scale`, cold condensation spread ±16% at
/// two threads against ±3.5% serially, for a 1.15× gain. The parallel
/// layer is measured per layer instead ([`layers::parallel_threads`]).
const KERNEL_THREADS: usize = 1;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Sets the workload up `SETUPS` times and runs one pass on the last
/// set-up; returns the end-to-end metrics, the tally, the pass and its
/// inputs.
fn measure(w: Workload, seed: u64, scale: f64, seconds: f64) -> (Metrics, Pass, Inputs) {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(Inputs::setup(w, seed, scale));
        times.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUPS > 0");
    let pass = inputs.run(seconds);
    let mut e2e = pass.metrics.clone();
    e2e.set("setup_s", median(&times), "s");
    e2e.set("ok_share", pass.tally.ok_share(), "share");
    (e2e, pass, inputs)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        smoke,
    })
}

/// Per-layer metrics read off the recorded spans.
fn span_metrics(spans: &[trace::Span], m: &mut Metrics) {
    let med = |name: &str| median(&trace::durations(spans, name));
    for (metric, span) in [
        ("datasets.generate_s", "datasets.generate"),
        ("hetgraph.compose_s", "hetgraph.compose"),
        ("core.condense_s", "core.condense"),
        ("core.warm_condense_s", "core.warm_condense"),
        ("hgnn.propagate_s", "hgnn.propagate"),
        ("hgnn.propagate_cond_s", "hgnn.propagate_cond"),
        ("hgnn.train_s", "hgnn.train"),
        ("hgnn.predict_s", "hgnn.predict"),
        ("serve.handle_s", "serve.handle"),
        ("serve.encode_s", "serve.encode"),
        ("serve.decode_s", "serve.decode"),
    ] {
        m.set(metric, med(span), "s");
    }
}

/// Share of the traced pass's span time that each layer's spans spent
/// outside their child spans; `bench` is the benchmark's own round and
/// request spans.
fn self_shares(spans: &[trace::Span], m: &mut Metrics) {
    let selfs = trace::self_times(spans);
    let total: f64 = selfs.iter().sum();
    for layer in ["bench", "datasets", "hetgraph", "core", "hgnn", "serve"] {
        let own: f64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name.split('.').next() == Some(layer))
            .map(|(_, t)| t)
            .sum();
        let share = if total > 0.0 { own / total } else { 0.0 };
        m.set(format!("trace.self_share.{layer}"), share, "share");
    }
}

/// The untraced half of a traced run: this binary with `--trace 0` for
/// `seconds`, in a process of its own so that its peak RSS and the
/// traced half's are measured alike. Returns its end-to-end metrics
/// (those named in `names`) and its tally.
fn untraced_child(args: &Args, seconds: f64, names: &Metrics) -> (Metrics, Tally) {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run the untraced half");
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    let number = |key: &str| -> Option<f64> {
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        rest[..rest.find([',', '}'])?].trim().parse().ok()
    };
    let mut m = Metrics::default();
    for (name, (_, unit)) in &names.0 {
        let v = number(&format!("\"{name}\": {{\"value\": ")).unwrap_or(f64::NAN);
        m.set(name.clone(), v, unit);
    }
    let attempted = number("\"attempted\": ").unwrap_or(0.0) as u64;
    let failed = number("\"failed\": ").map_or(1, |f| f as u64);
    // A half that did not report counts as one failed operation.
    let tally = Tally {
        attempted: attempted.max(1),
        failed: if attempted == 0 { 1 } else { failed },
    };
    (m, tally)
}

/// `--trace 1`: the untraced half in a child process, the traced half
/// here, then the layer probe. Returns the per-layer metrics and tally.
fn traced_run(args: &Args, scale: f64, facts: &mut Vec<(String, f64)>) -> (Metrics, Tally) {
    let w = args.workload;
    let half = args.seconds / 2.0;
    trace::set_enabled(true);
    let (traced, pass, inputs) = measure(w, args.seed, scale, half);
    let spans = trace::drain();
    trace::set_enabled(false);
    let (plain, plain_tally) = untraced_child(args, half, &traced);
    trace::set_enabled(true);
    let mut m = pass.layer.clone();
    self_shares(&spans, &mut m);
    for (name, (value, unit)) in &traced.0 {
        m.set(
            format!("trace.overhead.{name}"),
            value - plain.get(name),
            unit,
        );
    }
    let mut tally = plain_tally;
    tally.absorb(pass.tally);
    let probe_seed = report::mix(args.seed, 900) % 1000;
    let serve_probe = w != Workload::ServeMixed;
    layers::probe(
        &inputs.primary(),
        probe_seed,
        serve_probe,
        &mut m,
        &mut tally,
    );
    let mut all = spans;
    all.extend(trace::drain());
    span_metrics(&all, &mut m);
    let (hits, misses) = (
        common::CTX_HITS.load(Ordering::Relaxed),
        common::CTX_MISSES.load(Ordering::Relaxed),
    );
    m.set(
        "hetgraph.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
        "share",
    );
    let epochs = common::TRAIN_EPOCHS.load(Ordering::Relaxed) as f64;
    let trainings = common::TRAIN_RUNS.load(Ordering::Relaxed).max(1) as f64;
    m.set("hgnn.train_epochs", epochs / trainings, "count");
    m.set(
        "parallel.threads",
        layers::parallel_threads() as f64,
        "count",
    );
    m.set(
        "parallel.machine_parallelism",
        freehgc_parallel::machine_parallelism() as f64,
        "count",
    );
    m.set("trace.spans", all.len() as f64, "count");
    let path = std::path::Path::new(".bench_out").join(format!(
        "trace-{}-seed{}.jsonl",
        w.name(),
        args.seed
    ));
    if let Err(e) = trace::write_jsonl(&path, &all) {
        eprintln!("hgcbench: writing {}: {e}", path.display());
        tally.record(false);
    }
    facts.extend(pass.facts);
    (m, tally)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hgcbench: {e}");
            eprintln!(
                "usage: hgcbench --workload <protocol|cold-scale|serve-mixed> --seed <n> --seconds <s> --trace <0|1> [--smoke]"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    freehgc_parallel::set_thread_override(Some(KERNEL_THREADS));
    let scale = w.scale(args.smoke);
    let mut facts: Vec<(String, f64)> = vec![
        (
            "nproc".into(),
            freehgc_parallel::machine_parallelism() as f64,
        ),
        ("thread_budget".into(), KERNEL_THREADS as f64),
        ("scale".into(), scale),
        ("seconds".into(), args.seconds),
        ("setups".into(), SETUPS as f64),
    ];
    let (metrics, tally) = if args.trace {
        traced_run(&args, scale, &mut facts)
    } else {
        let (e2e, pass, _inputs) = measure(w, args.seed, scale, args.seconds);
        facts.extend(pass.facts);
        (e2e, pass.tally)
    };
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!("{}", report::info_line(w.name(), &facts));
    println!("{}", report::result_line(correct, tally, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
