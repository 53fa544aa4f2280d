//! The traced run: per-layer metrics.
//!
//! The model is assembled a second time from its layer plan with every
//! layer wrapped in a timing [`Module`] and the optimizer wrapped in a
//! timing [`Optimizer`]; the copy is checked bit for bit against the
//! `appmult-models` builder and then handed to the same `retrain` and
//! `evaluate` calls as the untraced model. Conv phases are replayed
//! through the public `appmult-nn`, `appmult-retrain` and
//! `appmult-kernels` functions on each layer's own shapes.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use appmult_kernels::{backward_dw, backward_dx, forward_acc, GemmShape, Kernel};
use appmult_nn::layers::{col2im, im2col, nchw_to_rows, Conv2dSpec, Sequential};
use appmult_nn::optim::{Adam, Optimizer};
use appmult_nn::{Module, Parameter, Tensor};
use appmult_obs::ObsSink;
use appmult_pool::Pool;
use appmult_retrain::{ApproxConv2d, QuantConfig, QuantParams, RetrainConfig};

use crate::arch::{self, Layer, PlannedLayer};
use crate::phases::{EvalOutcome, ServeOutcome, Trainee};
use crate::setup::{self, BuiltModel, Setup, BATCH, HW};
use crate::stats::{mean, median, time_ms, Metrics};
use crate::{Args, Report, LR};

/// Accumulated wall time of one wrapped layer.
#[derive(Debug, Default)]
struct Clock {
    forward_ns: u64,
    backward_ns: u64,
    /// The latest forward input and backward `grad_out` of a conv, kept
    /// for the phase replay.
    input: Option<Tensor>,
    grad_out: Option<Tensor>,
}

type SharedClock = Arc<Mutex<Clock>>;

fn lock(c: &SharedClock) -> std::sync::MutexGuard<'_, Clock> {
    c.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A layer wrapped in a wall-clock timer.
struct Timed {
    inner: Box<dyn Module>,
    clock: SharedClock,
    keep_tensors: bool,
}

impl Module for Timed {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let start = Instant::now();
        let out = self.inner.forward(input, train);
        let ns = start.elapsed().as_nanos() as u64;
        let mut c = lock(&self.clock);
        c.forward_ns += ns;
        if self.keep_tensors && train {
            c.input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let start = Instant::now();
        let out = self.inner.backward(grad_out);
        let ns = start.elapsed().as_nanos() as u64;
        let mut c = lock(&self.clock);
        c.backward_ns += ns;
        if self.keep_tensors {
            c.grad_out = Some(grad_out.clone());
        }
        out
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        self.inner.visit_params(visitor);
    }
}

/// An optimizer wrapped in a wall-clock timer.
struct TimedOptimizer {
    inner: Adam,
    step_ns: Arc<Mutex<u64>>,
}

impl Optimizer for TimedOptimizer {
    fn step(&mut self, module: &mut dyn Module) {
        let start = Instant::now();
        self.inner.step(module);
        *self.step_ns.lock().unwrap_or_else(PoisonError::into_inner) +=
            start.elapsed().as_nanos() as u64;
    }
    fn set_lr(&mut self, lr: f32) {
        self.inner.set_lr(lr);
    }
    fn lr(&self) -> f32 {
        self.inner.lr()
    }
}

/// The plan and clocks of one timed model copy.
struct CopyMeta {
    plan: Vec<PlannedLayer>,
    clocks: Vec<SharedClock>,
}

impl CopyMeta {
    fn reset(&self) {
        for c in &self.clocks {
            let mut c = lock(c);
            c.forward_ns = 0;
            c.backward_ns = 0;
        }
    }
}

/// Assembles a copy of `m` from its layer plan, every layer timed.
fn assemble(m: &BuiltModel, seed: u64) -> (Sequential, CopyMeta) {
    let plan = arch::plan(m.plan.arch);
    let mut model = Sequential::new();
    let mut clocks = Vec::new();
    for layer in &plan {
        let clock = SharedClock::default();
        model.push_boxed(Box::new(Timed {
            inner: layer.build(seed, &m.lut, &m.grads),
            clock: clock.clone(),
            keep_tensors: layer.is_conv(),
        }));
        clocks.push(clock);
    }
    (model, CopyMeta { plan, clocks })
}

fn params_of(model: &mut dyn Module) -> Vec<Tensor> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.push(p.value.clone()));
    out
}

fn bits_of(tensors: &[Tensor]) -> Vec<(Vec<usize>, Vec<u32>)> {
    tensors
        .iter()
        .map(|t| {
            (
                t.shape().to_vec(),
                t.as_slice().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// The assembled copy must match the builder bit for bit: parameter
/// count, every initial parameter, and the logits of one fixed batch.
fn check_copy(m: &BuiltModel, seed: u64, batch: &Tensor) -> Result<(), String> {
    let mut built = m.rebuild(seed);
    let (mut copy, _) = assemble(m, seed);
    if built.num_params() != copy.num_params() {
        return Err(format!(
            "copy has {} parameters, builder {}",
            copy.num_params(),
            built.num_params()
        ));
    }
    if bits_of(&params_of(&mut built)) != bits_of(&params_of(&mut copy)) {
        return Err("copy's initial parameters differ from the builder's".into());
    }
    let (a, b) = (built.forward(batch, false), copy.forward(batch, false));
    if bits_of(&[a]) != bits_of(&[b]) {
        return Err("copy's logits differ from the builder's".into());
    }
    Ok(())
}

/// A named phase the replay times.
type Phase<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// Runs every named phase once per round, in turn, for at least 300 ms
/// and 5 rounds, and returns each phase's median milliseconds. Phases
/// sharing rounds see the same host speed, so their differences hold.
fn replay_rounds(phases: &mut [Phase<'_>]) -> BTreeMap<&'static str, f64> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); phases.len()];
    let start = Instant::now();
    while samples[0].len() < 5 || start.elapsed().as_millis() < 300 {
        for ((_, f), times) in phases.iter_mut().zip(&mut samples) {
            let ((), ms) = time_ms(f);
            times.push(ms);
        }
    }
    phases
        .iter()
        .zip(&samples)
        .map(|((name, _), times)| (*name, median(times)))
        .collect()
}

/// Work-size floor of the layers' pool dispatches: a GEMM with fewer
/// than this many multiply-accumulates runs on the calling thread.
const PAR_FLOOR_MACS: usize = 1 << 16;

/// Replays one conv on its captured input and output gradient: the whole
/// layer (a fresh `ApproxConv2d` with the same weights, forward in train
/// mode then backward) and each phase through the public functions. GEMMs
/// go through the global pool with the layers' row partitioning.
fn replay_conv(
    spec: &Conv2dSpec,
    (weight, bias): (&Tensor, &Tensor),
    input: &Tensor,
    grad_out: &Tensor,
    m: &BuiltModel,
) -> BTreeMap<&'static str, f64> {
    let bits = m.lut.bits();
    let pool = Pool::global();
    let kernel = Kernel::global();
    let s = input.shape();
    let (n, h, w) = (s[0], s[2], s[3]);
    let k = spec.patch_len();
    let j = spec.out_channels;

    let cols = im2col(input, spec);
    let (xlo, xhi) = input.min_max();
    let (wlo, whi) = weight.min_max();
    let xp = QuantParams::from_range(xlo, xhi, bits);
    let wp = QuantParams::from_range(wlo, whi, bits);
    let quantize = |values: &[f32], p: &QuantParams| -> (Vec<u16>, Vec<bool>) {
        values
            .iter()
            .map(|&v| (p.quantize(v) as u16, p.in_range(v)))
            .unzip()
    };
    let (xq, _) = quantize(cols.as_slice(), &xp);
    let (wq, _) = quantize(weight.as_slice(), &wp);
    let rows = xq.len() / k;
    let shape = GemmShape { j, k, bits };
    let table = m.lut.entries();
    let g = nchw_to_rows(grad_out);
    let g = g.as_slice();
    let (gx, gw) = (m.grads.wrt_x_table(), m.grads.wrt_w_table());
    let dx_rows = Tensor::zeros(&[rows, k]);
    let mut layer = ApproxConv2d::with_params(
        *spec,
        weight.clone(),
        bias.clone(),
        m.lut.clone(),
        m.grads.clone(),
        QuantConfig::default(),
    );
    let mut acc = vec![0i64; rows * j];
    let mut dx = vec![0f32; rows * k];
    let mut dw = vec![0f32; j * k];
    let mut phases: Vec<Phase<'_>> = vec![
        (
            "layer_ms",
            Box::new(|| {
                layer.forward(input, true);
                layer.backward(grad_out);
                layer.zero_grad();
            }),
        ),
        (
            "im2col_ms",
            Box::new(|| {
                std::hint::black_box(im2col(input, spec));
            }),
        ),
        (
            "quantize_ms",
            Box::new(|| {
                std::hint::black_box(quantize(cols.as_slice(), &xp));
                std::hint::black_box(quantize(weight.as_slice(), &wp));
            }),
        ),
        (
            "forward_acc_ms",
            Box::new(|| {
                pool.with_min_elems(PAR_FLOOR_MACS / k)
                    .run_rows(&mut acc, j, |r0, chunk| {
                        let r = chunk.len() / j;
                        forward_acc(kernel, shape, table, &wq, &xq[r0 * k..(r0 + r) * k], chunk);
                    });
            }),
        ),
        (
            "backward_dx_ms",
            Box::new(|| {
                dx.fill(0.0);
                pool.with_min_elems(PAR_FLOOR_MACS / j)
                    .run_rows(&mut dx, k, |r0, chunk| {
                        let r = chunk.len() / k;
                        backward_dx(
                            kernel,
                            shape,
                            gx,
                            &wq,
                            &xq[r0 * k..(r0 + r) * k],
                            &g[r0 * j..(r0 + r) * j],
                            wp.scale,
                            wp.zero_point as f32,
                            chunk,
                        );
                    });
            }),
        ),
        (
            "backward_dw_ms",
            Box::new(|| {
                dw.fill(0.0);
                pool.with_min_elems(PAR_FLOOR_MACS / rows.max(1)).run_rows(
                    &mut dw,
                    k,
                    |j0, chunk| {
                        let r = chunk.len() / k;
                        backward_dw(
                            kernel,
                            shape,
                            gw,
                            &wq[j0 * k..(j0 + r) * k],
                            j0,
                            &xq,
                            g,
                            xp.scale,
                            xp.zero_point as f32,
                            chunk,
                        );
                    },
                );
            }),
        ),
        (
            "col2im_ms",
            Box::new(|| {
                std::hint::black_box(col2im(&dx_rows, spec, n, h, w));
            }),
        ),
    ];
    let mut out = replay_rounds(&mut phases);
    out.insert("lookups", (3 * rows * j * k) as f64);
    out
}

/// Per-step layer times of the timed copy over the traced epochs.
fn step_metrics(
    copy: &CopyMeta,
    m: &BuiltModel,
    model: &mut dyn Module,
    steps: usize,
    step_ms: f64,
    opt_ms: f64,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let params = params_of(model);
    let per_step = |ns: u64| ns as f64 / 1e6 / steps as f64;
    let (mut float_fwd, mut float_bwd, mut layers_ms) = (0.0, 0.0, 0.0);
    let (mut conv_fwd, mut conv_bwd, mut non_gemm, mut gemm_ms, mut lookups) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut param_index = 0;
    for (layer, clock) in copy.plan.iter().zip(&copy.clocks) {
        let c = lock(clock);
        let (f, b) = (per_step(c.forward_ns), per_step(c.backward_ns));
        layers_ms += f + b;
        if let Layer::Conv { spec, .. } = layer.layer {
            let name = &layer.name;
            let input = c.input.as_ref().expect("conv saw a training forward");
            let grad_out = c.grad_out.as_ref().expect("conv saw a backward");
            let phases = replay_conv(
                &spec,
                (&params[param_index], &params[param_index + 1]),
                input,
                grad_out,
                m,
            );
            let gemm =
                phases["forward_acc_ms"] + phases["backward_dx_ms"] + phases["backward_dw_ms"];
            out.insert(format!("core.{name}.forward_ms"), f);
            out.insert(format!("core.{name}.backward_ms"), b);
            out.insert(format!("nn.{name}.im2col_ms"), phases["im2col_ms"]);
            out.insert(format!("core.{name}.quantize_ms"), phases["quantize_ms"]);
            out.insert(
                format!("kernels.{name}.forward_acc_ms"),
                phases["forward_acc_ms"],
            );
            out.insert(
                format!("kernels.{name}.backward_dx_ms"),
                phases["backward_dx_ms"],
            );
            out.insert(
                format!("kernels.{name}.backward_dw_ms"),
                phases["backward_dw_ms"],
            );
            out.insert(format!("nn.{name}.col2im_ms"), phases["col2im_ms"]);
            out.insert(
                format!("core.{name}.non_gemm_ms"),
                phases["layer_ms"] - gemm,
            );
            conv_fwd += f;
            conv_bwd += b;
            non_gemm += phases["layer_ms"] - gemm;
            gemm_ms += gemm;
            lookups += phases["lookups"];
        } else {
            float_fwd += f;
            float_bwd += b;
        }
        param_index += layer.param_count();
    }
    out.insert("core.convs.forward_ms".into(), conv_fwd);
    out.insert("core.convs.backward_ms".into(), conv_bwd);
    out.insert("core.convs.non_gemm_ms".into(), non_gemm);
    out.insert("kernels.lookups_per_step".into(), lookups);
    out.insert("kernels.ns_per_lookup".into(), gemm_ms * 1e6 / lookups);
    out.insert("nn.float_forward_ms".into(), float_fwd);
    out.insert("nn.float_backward_ms".into(), float_bwd);
    out.insert("nn.optimizer_step_ms".into(), opt_ms);
    out.insert("core.loop_other_ms".into(), step_ms - layers_ms - opt_ms);
    out
}

/// Step time at 1 pool thread over step time at 2 threads, alternating
/// thread counts over the first batches.
fn pool_step_speedup(trainee: &mut Trainee, s: &Setup, threads: usize) -> f64 {
    let batches = &s.train[..s.train.len().min(8)];
    let config = RetrainConfig::quick(1);
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let mut secs = [0.0; 2];
        for (i, t) in [1, 2].into_iter().enumerate() {
            appmult_pool::set_global_threads(t);
            let start = Instant::now();
            appmult_retrain::retrain(
                trainee.model.as_mut(),
                trainee.optimizer.as_mut(),
                &config,
                batches,
                &[],
            );
            secs[i] = start.elapsed().as_secs_f64();
        }
        ratios.push(secs[0] / secs[1]);
    }
    appmult_pool::set_global_threads(threads);
    median(&ratios)
}

/// Direct `Registry::forward_batch` times of the served model at batch
/// sizes 1 and 32.
fn forward_batch_ms(s: &Setup, name: &str) -> (f64, f64) {
    let x = &s.test[0].0;
    let one = Tensor::from_vec(x.as_slice()[..3 * HW * HW].to_vec(), &[1, 3, HW, HW]);
    let forward = |batch: &Tensor| {
        s.registry
            .forward_batch(name, batch)
            .expect("registered model serves");
    };
    let times = replay_rounds(&mut [
        ("b1", Box::new(|| forward(&one))),
        ("b32", Box::new(|| forward(x))),
    ]);
    (times["b1"], times["b32"])
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Where the traced run writes its full per-layer JSON.
fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{workload}.json"))
}

fn json_object(metrics: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", crate::stats::json_number(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The traced run: per-layer metrics of workload `args.workload`.
pub fn run(args: &Args) -> Report {
    let (w, seed) = (args.workload, args.seed);
    let mut report = Report::default();
    let mut s = setup::run_setup(w, seed);
    crate::check_tables(&mut report, &s, seed);
    report.check(check_copy(&s.model, seed, &s.test[0].0));
    let (model, meta) = assemble(&s.model, seed);
    let step_ns = Arc::<Mutex<u64>>::default();
    let mut traced = Trainee::new(
        Box::new(model),
        Box::new(TimedOptimizer {
            inner: Adam::new(LR),
            step_ns: step_ns.clone(),
        }),
    );
    let mut untraced = crate::trainee(&mut s);
    let before = crate::accuracy(&mut untraced, &s);
    let before_traced = crate::accuracy(&mut traced, &s);
    report.check(if before.to_bits() == before_traced.to_bits() {
        Ok(())
    } else {
        Err("the timed copy evaluates differently from the builder's model".into())
    });
    meta.reset();

    // The timed copy trains alongside the untraced model, slice by slice,
    // so both see the same host; serving records into `sink`.
    let sink = ObsSink::recording();
    let crate::Window {
        eval,
        served,
        samples,
        ..
    } = crate::window(
        args,
        &s,
        &mut untraced,
        Some(&mut traced),
        Some(&sink),
        &mut |_| {},
    );
    let overhead_pct = (untraced.img_per_s() / traced.img_per_s() - 1.0) * 100.0;
    let n = untraced.epoch_losses.len().min(traced.epoch_losses.len());
    report.check(
        if same_bits(&untraced.epoch_losses[..n], &traced.epoch_losses[..n]) {
            Ok(())
        } else {
            Err("the timed copy trained to different losses than the untraced model".into())
        },
    );

    let steps = traced.steps();
    let step_ms = traced.secs * 1e3 / steps as f64;
    let opt_ms =
        *step_ns.lock().unwrap_or_else(PoisonError::into_inner) as f64 / 1e6 / steps as f64;
    let mut layers = step_metrics(
        &meta,
        &s.model,
        traced.model.as_mut(),
        steps,
        step_ms,
        opt_ms,
    );
    layers.insert("core.step_ms".into(), step_ms);

    crate::check_retrained(&mut report, &s, &mut untraced, before, &eval, seed);
    crate::check_served(&mut report, &s, seed, &samples, &served);
    let speedup = pool_step_speedup(&mut untraced, &s, w.threads);
    let batch_size_mean = sink
        .histogram("serve.batch.size")
        .map_or(f64::NAN, |h| h.mean());
    let (b1, b32) = forward_batch_ms(&s, s.model.plan.key);
    // Service time of a batch of the mean size, interpolated between the
    // measured batch-1 and batch-32 forwards.
    let service_ms = b1 + (b32 - b1) * (batch_size_mean - 1.0) / (BATCH as f64 - 1.0);

    let t = s.times;
    for (k, v) in [
        ("mult.zoo_entry_ms", t.zoo_entry_ms),
        ("mult.lut_build_ms", t.lut_build_ms),
        ("core.grad_lut_build_ms", t.grad_lut_build_ms),
        ("data.generate_ms", t.data_generate_ms),
        ("data.batch_ms", t.data_batch_ms),
        ("models.build_ms", t.models_build_ms),
        ("serve.registry_load_ms", t.registry_load_ms),
        ("core.eval_batch_ms", 1e3 * BATCH as f64 / eval.img_per_s()),
        ("pool.step_speedup", speedup),
        ("serve.submit_us", mean(&served.submit_us)),
        ("serve.forward_batch_ms.b1", b1),
        ("serve.forward_batch_ms.b32", b32),
        ("serve.batch_size_mean", batch_size_mean),
        (
            "serve.queue_wait_ms",
            mean(&served.latencies_ms) - service_ms,
        ),
        ("serve.generator_lag_ms", mean(&served.lag_ms)),
        (
            "serve.latency_p99_ms",
            crate::stats::percentile(&served.latencies_ms, 99.0),
        ),
        ("obs.tracing_overhead_pct", overhead_pct),
    ] {
        layers.insert(k.to_string(), v);
    }

    let mut m = Metrics::default();
    for name in crate::PER_LAYER {
        let value = layers.get(*name).copied().unwrap_or(f64::NAN);
        m.push(*name, crate::unit_of(name), value);
    }
    report.metrics = m;

    let json = format!(
        "{{\"workload\": \"{}\", \"model\": \"{}\", \"seed\": {seed}, \"seconds\": {}, \"threads\": {}, \"metrics\": {}}}\n",
        w.name,
        s.model.plan.key,
        args.seconds,
        w.threads,
        json_object(&layers),
    );
    let path = trace_path(w.name);
    let written = std::fs::create_dir_all(path.parent().expect("out dir"))
        .and_then(|()| std::fs::write(&path, json));
    report.check(written.map_err(|e| format!("writing {}: {e}", path.display())));
    report.count(&untraced, &eval, &served);
    report.count(&traced, &EvalOutcome::default(), &ServeOutcome::default());
    report
}
