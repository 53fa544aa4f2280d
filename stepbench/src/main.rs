//! Step-level benchmark of AppMult retraining and serving.
//!
//! ```text
//! appmult-stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the same timed window — retraining, evaluation,
//! open-loop serving, closed-loop serving — over its own model, pool
//! threads and open-loop rate (see `setup::WORKLOADS` and the README). The
//! untraced run prints the end-to-end metrics; the traced run assembles
//! a timed copy of the model and prints the per-layer metrics. The last
//! line of standard output is the JSON result.

mod arch;
mod phases;
mod reference;
mod setup;
mod stats;
mod traced;

use std::collections::HashMap;
use std::process::{Command, ExitCode};
use std::time::Duration;

use appmult_mult::ExactMultiplier;
use appmult_nn::optim::Adam;
use appmult_nn::{Module, Tensor};
use appmult_obs::ObsSink;
use appmult_serve::{Engine, EngineConfig};

use crate::phases::{EvalOutcome, Generator, ServeOutcome, Trainee};
use crate::setup::{serving_model, Setup, Workload, OUTSTANDING, SHARES};
use crate::stats::{median, percentile, Metrics};

/// Learning rate of the Adam optimizer every retrain phase uses.
const LR: f32 = 1e-3;
/// Set-ups run in fresh child processes per run, besides the run's own;
/// fresh processes make every repetition synthesize its multiplier anew.
/// They run between cycles of the timed window, evenly spread, so the
/// median set-up time samples the whole run.
const SETUP_CHILDREN: usize = 4;
/// Sampled conv outputs and gradient-table entries checked.
const SAMPLES: usize = 48;

/// The per-layer metrics the traced run prints, in `BENCHMARK.json`
/// order. Both workloads' models have conv1 and conv2; the traced run's
/// JSON file has the step metrics of every conv.
pub const PER_LAYER: &[&str] = &[
    "mult.zoo_entry_ms",
    "mult.lut_build_ms",
    "core.grad_lut_build_ms",
    "data.generate_ms",
    "data.batch_ms",
    "models.build_ms",
    "serve.registry_load_ms",
    "core.step_ms",
    "core.conv1.forward_ms",
    "core.conv1.backward_ms",
    "nn.conv1.im2col_ms",
    "core.conv1.quantize_ms",
    "kernels.conv1.forward_acc_ms",
    "kernels.conv1.backward_dx_ms",
    "kernels.conv1.backward_dw_ms",
    "nn.conv1.col2im_ms",
    "core.conv1.non_gemm_ms",
    "core.conv2.forward_ms",
    "core.conv2.backward_ms",
    "nn.conv2.im2col_ms",
    "core.conv2.quantize_ms",
    "kernels.conv2.forward_acc_ms",
    "kernels.conv2.backward_dx_ms",
    "kernels.conv2.backward_dw_ms",
    "nn.conv2.col2im_ms",
    "core.conv2.non_gemm_ms",
    "core.convs.forward_ms",
    "core.convs.backward_ms",
    "core.convs.non_gemm_ms",
    "kernels.lookups_per_step",
    "kernels.ns_per_lookup",
    "nn.float_forward_ms",
    "nn.float_backward_ms",
    "nn.optimizer_step_ms",
    "core.loop_other_ms",
    "core.eval_batch_ms",
    "pool.step_speedup",
    "serve.submit_us",
    "serve.forward_batch_ms.b1",
    "serve.forward_batch_ms.b32",
    "serve.batch_size_mean",
    "serve.queue_wait_ms",
    "serve.generator_lag_ms",
    "serve.latency_p99_ms",
    "obs.tracing_overhead_pct",
];

/// The unit of a per-layer metric, read from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.contains("_ms") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.contains("ns_per") {
        "ns"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("speedup") {
        "x"
    } else {
        "count"
    }
}

pub struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = HashMap::new();
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = setup::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = match flags.get("--seconds") {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None => 45.0,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flags.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stepbench: {e}");
            return ExitCode::from(2);
        }
    };
    appmult_pool::set_global_threads(args.workload.threads);
    if args.setup_only {
        let s = setup::run_setup(args.workload, args.seed);
        println!("{}", s.times.total_s);
        return ExitCode::SUCCESS;
    }
    let report = if args.trace {
        traced::run(&args)
    } else {
        run(&args)
    };
    for failure in &report.failures {
        eprintln!("stepbench: check failed: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failed,
        report.metrics.to_json()
    );
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Descriptions of failed correctness checks (empty = correct).
    pub failures: Vec<String>,
}

impl Report {
    /// Counts the window's operations: training batches, evaluated
    /// batches and serving requests; failed ones are refused or rejected
    /// requests.
    pub fn count(&mut self, trainee: &Trainee, eval: &EvalOutcome, served: &ServeOutcome) {
        self.attempted +=
            trainee.steps() + eval.images.div_ceil(setup::BATCH) + served.served.len();
        self.failed += served.served.iter().filter(|r| r.outcome.is_err()).count();
    }

    /// Records a check; `Err` keeps its description.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(e);
        }
    }
}

/// Runs the set-up in a fresh process and returns its seconds.
fn child_setup(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--setup-only",
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match (
        out.status.success(),
        stdout.lines().last().map(str::parse::<f64>),
    ) {
        (true, Some(Ok(s))) => Ok(s),
        _ => Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Checks that run before the timed window: the reference against closed
/// forms, then the model's gradient tables against the reference.
pub fn check_tables(report: &mut Report, s: &Setup, seed: u64) {
    for bits in [7, 8] {
        report.check(reference::self_test(&ExactMultiplier::new(bits), seed));
    }
    let m = &s.model;
    report.check(reference::check_gradients(
        m.multiplier.as_ref(),
        m.hws,
        &m.grads,
        seed,
        SAMPLES,
    ));
}

/// Checks after retraining: repeatable evaluations; finite, falling
/// losses; accuracy above the pre-retraining accuracy; finite logits;
/// conv outputs of the retrained weights against the reference.
pub fn check_retrained(
    report: &mut Report,
    s: &Setup,
    t: &mut Trainee,
    before: f64,
    eval: &EvalOutcome,
    seed: u64,
) {
    report.check(if eval.mismatches == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} repeated evaluations disagreed",
            eval.mismatches
        ))
    });
    let after = accuracy(t, s);
    let losses = &t.epoch_losses;
    report.check(if losses.iter().all(|l| l.is_finite()) {
        Ok(())
    } else {
        Err(format!("non-finite epoch loss in {losses:?}"))
    });
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    report.check(if last < first {
        Ok(())
    } else {
        Err(format!("last epoch loss {last} not below first {first}"))
    });
    report.check(if after > before {
        Ok(())
    } else {
        Err(format!("top-1 {after} after retraining, {before} before"))
    });
    let logits = t.model.forward(&s.test[0].0, false);
    report.check(if logits.as_slice().iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err("non-finite logits".into())
    });
    let mut params = Vec::new();
    t.model.visit_params(&mut |p| params.push(p.value.clone()));
    let m = &s.model;
    let plan = arch::plan(m.plan.arch);
    report.check(reference::check_convs(
        m.multiplier.as_ref(),
        &m.lut,
        &m.grads,
        &plan,
        &params,
        seed,
        SAMPLES / 6,
    ));
}

/// The test split as single samples, the serving traffic's inputs.
fn test_samples(s: &Setup) -> Vec<Tensor> {
    let mut out = Vec::new();
    for (x, _) in &s.test {
        let per = x.len() / x.shape()[0];
        for chunk in x.as_slice().chunks(per) {
            out.push(Tensor::from_vec(chunk.to_vec(), &[3, setup::HW, setup::HW]));
        }
    }
    out
}

/// Checks every serving outcome: each ticket id issued once, every
/// submission resolved exactly once, and each served output bit-identical
/// to a batch-of-one forward of its sample through a separately built
/// model calibrated on the same batch. Refused or rejected requests are
/// not checked here; they count as failed operations.
pub fn check_served(
    report: &mut Report,
    s: &Setup,
    seed: u64,
    samples: &[Tensor],
    out: &ServeOutcome,
) {
    let mut ids = out.ticket_ids.clone();
    ids.sort_unstable();
    ids.dedup();
    report.check(if ids.len() == out.ticket_ids.len() {
        Ok(())
    } else {
        Err("a ticket id was issued twice".into())
    });
    report.check(if out.served.len() == out.submit_us.len() {
        Ok(())
    } else {
        Err(format!(
            "{} submissions but {} outcomes",
            out.submit_us.len(),
            out.served.len()
        ))
    });
    let m = &s.model;
    let mut reference = serving_model(m.plan.arch, seed, m.lut.clone(), m.grads.clone(), &s.calib);
    let mut expected: HashMap<usize, Vec<u32>> = HashMap::new();
    for r in &out.served {
        let Ok(got) = &r.outcome else { continue };
        let want = expected.entry(r.sample).or_insert_with(|| {
            let x = samples[r.sample].reshape(&[1, 3, setup::HW, setup::HW]);
            let y = reference.forward(&x, false);
            y.as_slice().iter().map(|v| v.to_bits()).collect()
        });
        let got: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
        if &got != want {
            report.failures.push(format!(
                "served a different output for sample {} than the reference",
                r.sample
            ));
            return;
        }
    }
}

/// Cycles of the timed window. Each cycle runs every phase for its share
/// of a sixteenth of the window, so each rate, a total over the whole
/// window, samples every stretch of the run alike rather than one block
/// of it: the host's speed switches between levels every few seconds.
/// A total moves in proportion to the share of slow stretches, where a
/// median of per-cycle rates jumps between the two levels when that
/// share is near one half.
pub const CYCLES: usize = 16;

/// Everything the timed window measured.
pub struct Window {
    /// Training images over the wall time of the window's `retrain`
    /// calls.
    pub train_img_per_s: f64,
    pub eval: EvalOutcome,
    pub served: ServeOutcome,
    /// The test split as single samples, the serving traffic's inputs.
    pub samples: Vec<Tensor>,
}

/// Drives the timed window: [`CYCLES`] cycles of retraining, evaluation,
/// open-loop and closed-loop serving, then completes the passes the
/// trainee needs for the loss check. A `shadow` trainee (the traced
/// run's timed copy) trains alongside for the same time but is not
/// evaluated; with `sink`, serving runs under that recording sink.
/// `between(i)` runs before cycle `i`, outside every timed phase.
pub fn window(
    args: &Args,
    s: &Setup,
    trainee: &mut Trainee,
    mut shadow: Option<&mut Trainee>,
    sink: Option<&ObsSink>,
    between: &mut dyn FnMut(usize),
) -> Window {
    let w = args.workload;
    let samples = test_samples(s);
    let name = s.model.plan.key;
    let engine = Engine::start(
        s.registry.clone(),
        EngineConfig {
            workers: engine_workers(w),
            ..EngineConfig::default()
        },
    );
    let mut generator = Generator::new(args.seed, samples.len());
    let mut eval = EvalOutcome::default();
    let mut served = ServeOutcome::default();
    let cycle = args.seconds / CYCLES as f64;
    let requests = ((w.open_rate_hz * SHARES.open_loop * cycle) as usize).max(1);
    for i in 0..CYCLES {
        between(i);
        phases::train_slice(
            trainee,
            shadow.as_deref_mut(),
            &s.train,
            SHARES.train * cycle,
        );
        phases::eval_slice(trainee, &s.test, SHARES.eval * cycle, &mut eval);
        if let Some(sink) = sink {
            appmult_obs::set_global(sink);
        }
        phases::open_loop(
            &engine,
            name,
            &samples,
            &mut generator,
            w.open_rate_hz,
            requests,
            &mut served,
        );
        let closed = Duration::from_secs_f64(SHARES.closed_loop * cycle);
        phases::closed_loop(
            &engine,
            name,
            &samples,
            &mut generator,
            OUTSTANDING,
            closed,
            &mut served,
        );
        appmult_obs::set_global(&ObsSink::null());
    }
    let train_img_per_s = trainee.img_per_s();
    engine.shutdown();
    phases::finish_passes(trainee, &s.train);
    if let Some(shadow) = shadow {
        phases::finish_passes(shadow, &s.train);
    }
    Window {
        train_img_per_s,
        eval,
        served,
        samples,
    }
}

/// Serving workers: the default engine's two, or fewer so that workers
/// times pool threads does not exceed the host's cores. An oversubscribed
/// engine measures the host's scheduler more than the engine.
fn engine_workers(w: &Workload) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    EngineConfig::default()
        .workers
        .min(cores / w.threads)
        .max(1)
}

/// The trainee of the set-up's training instance.
pub fn trainee(s: &mut Setup) -> Trainee {
    let model = std::mem::take(&mut s.model.model);
    Trainee::new(Box::new(model), Box::new(Adam::new(LR)))
}

/// Top-1 of the trainee's model on the test split. Before retraining,
/// this first eval-mode pass also calibrates the activation ranges, as in
/// Table II's "initial accuracy" flow.
pub fn accuracy(t: &mut Trainee, s: &Setup) -> f64 {
    appmult_retrain::evaluate(t.model.as_mut(), &s.test).0
}

/// The untraced run: end-to-end metrics.
fn run(args: &Args) -> Report {
    let (w, seed) = (args.workload, args.seed);
    let mut report = Report::default();
    let mut s = setup::run_setup(w, seed);
    let mut setup_secs = vec![s.times.total_s];
    check_tables(&mut report, &s, seed);
    let mut trainee = trainee(&mut s);
    let before = accuracy(&mut trainee, &s);

    let mut children = |cycle: usize| {
        if cycle.is_multiple_of(CYCLES / SETUP_CHILDREN) {
            match child_setup(w, seed) {
                Ok(secs) => setup_secs.push(secs),
                Err(e) => report.failures.push(e),
            }
        }
    };
    let win = window(args, &s, &mut trainee, None, None, &mut children);
    let (eval, served, samples) = (&win.eval, &win.served, &win.samples);

    check_retrained(&mut report, &s, &mut trainee, before, eval, seed);
    check_served(&mut report, &s, seed, samples, served);
    report.count(&trainee, eval, served);
    let m = &mut report.metrics;
    m.push("setup_s", "s", median(&setup_secs));
    m.push("peak_rss_mb", "MiB", stats::peak_rss_mb());
    m.push("train_img_per_s", "img/s", win.train_img_per_s);
    m.push("eval_img_per_s", "img/s", eval.img_per_s());
    m.push("serve_img_per_s", "img/s", served.closed_img_per_s());
    m.push("serve_p50_ms", "ms", percentile(&served.latencies_ms, 50.0));
    report
}
