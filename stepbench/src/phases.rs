//! The timed phases of a run: retraining, evaluation, open-loop and
//! closed-loop serving. Each phase calls the library's public entry
//! points and measures from outside them.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use appmult_nn::optim::Optimizer;
use appmult_nn::{Module, Tensor};
use appmult_retrain::{evaluate, retrain, Batch, RetrainConfig};
use appmult_rng::Rng64;
use appmult_serve::{Engine, Request, Ticket};

/// Training batches per `retrain` call: each call is one epoch over the
/// next chunk of the training set, so phases can be sliced finely.
pub const CHUNK: usize = 5;
/// Fewest full passes over the training set a trainee makes, so its
/// first and last pass differ.
pub const MIN_EPOCHS: usize = 2;

/// A model being retrained, with its optimizer and history.
pub struct Trainee {
    pub model: Box<dyn Module>,
    pub optimizer: Box<dyn Optimizer>,
    /// Mean training loss of every full pass over the training set.
    pub epoch_losses: Vec<f64>,
    pub images: usize,
    pub secs: f64,
    next_chunk: usize,
    pass_loss: f64,
    pass_images: usize,
}

impl Trainee {
    pub fn new(model: Box<dyn Module>, optimizer: Box<dyn Optimizer>) -> Self {
        Self {
            model,
            optimizer,
            epoch_losses: Vec::new(),
            images: 0,
            secs: 0.0,
            next_chunk: 0,
            pass_loss: 0.0,
            pass_images: 0,
        }
    }

    /// One `retrain` call without a test set over the next chunk.
    pub fn step_chunk(&mut self, train: &[Batch]) {
        let from = self.next_chunk * CHUNK;
        let part = &train[from..(from + CHUNK).min(train.len())];
        let start = Instant::now();
        let history = retrain(
            self.model.as_mut(),
            self.optimizer.as_mut(),
            &RetrainConfig::quick(1),
            part,
            &[],
        );
        self.secs += start.elapsed().as_secs_f64();
        let images: usize = part.iter().map(|(_, labels)| labels.len()).sum();
        self.images += images;
        self.pass_loss += history.epochs[0].train_loss * images as f64;
        self.pass_images += images;
        self.next_chunk += 1;
        if from + part.len() == train.len() {
            self.epoch_losses
                .push(self.pass_loss / self.pass_images as f64);
            self.next_chunk = 0;
            self.pass_loss = 0.0;
            self.pass_images = 0;
        }
    }

    /// Training batches run so far.
    pub fn steps(&self) -> usize {
        self.images.div_ceil(crate::setup::BATCH)
    }

    /// Training images per second over the wall time of the `retrain`
    /// calls.
    pub fn img_per_s(&self) -> f64 {
        self.images as f64 / self.secs
    }
}

/// Trains `trainee` in whole chunks for `secs` of `retrain` time. A
/// `shadow` gets the same time, its chunks alternating with the
/// trainee's.
pub fn train_slice(
    trainee: &mut Trainee,
    mut shadow: Option<&mut Trainee>,
    train: &[Batch],
    secs: f64,
) {
    let until = trainee.secs + secs;
    let until_shadow = shadow.as_ref().map_or(0.0, |p| p.secs + secs);
    loop {
        let mut stepped = false;
        if trainee.secs < until {
            trainee.step_chunk(train);
            stepped = true;
        }
        if let Some(p) = shadow.as_deref_mut().filter(|p| p.secs < until_shadow) {
            p.step_chunk(train);
            stepped = true;
        }
        if !stepped {
            break;
        }
    }
}

/// Completes full passes until `trainee` has [`MIN_EPOCHS`] of them.
pub fn finish_passes(trainee: &mut Trainee, train: &[Batch]) {
    while trainee.epoch_losses.len() < MIN_EPOCHS {
        trainee.step_chunk(train);
    }
}

/// What the evaluation slices measured.
#[derive(Default)]
pub struct EvalOutcome {
    /// Evaluations that disagreed with the model's first evaluation in
    /// the same slice (no training ran in between).
    pub mismatches: usize,
    pub images: usize,
    pub secs: f64,
}

impl EvalOutcome {
    pub fn img_per_s(&self) -> f64 {
        self.images as f64 / self.secs
    }
}

/// Evaluates `trainee`'s model on `test` in whole passes until `secs`
/// pass.
pub fn eval_slice(trainee: &mut Trainee, test: &[Batch], secs: f64, out: &mut EvalOutcome) {
    let per_pass: usize = test.iter().map(|(_, labels)| labels.len()).sum();
    let mut first: Option<f64> = None;
    let start = Instant::now();
    loop {
        let begin = Instant::now();
        let (acc, _) = evaluate(trainee.model.as_mut(), test);
        out.secs += begin.elapsed().as_secs_f64();
        out.images += per_pass;
        if first.get_or_insert(acc).to_bits() != acc.to_bits() {
            out.mismatches += 1;
        }
        if start.elapsed().as_secs_f64() >= secs {
            break;
        }
    }
}

/// One served request's record.
pub struct Served {
    pub sample: usize,
    /// `Ok(output)` or the rejection label.
    pub outcome: Result<Tensor, &'static str>,
}

/// What a serving phase measured.
#[derive(Default)]
pub struct ServeOutcome {
    pub served: Vec<Served>,
    /// Open loop: latency of each request from its due time, in ms.
    pub latencies_ms: Vec<f64>,
    /// Open loop: how late each submission ran behind its due time, in ms.
    pub lag_ms: Vec<f64>,
    /// Microseconds spent inside each `Engine::submit` call.
    pub submit_us: Vec<f64>,
    /// Closed loop: completed requests and the seconds they took.
    pub closed_completed: usize,
    pub closed_secs: f64,
    /// Ticket ids, in submission order (each must be unique).
    pub ticket_ids: Vec<u64>,
}

impl ServeOutcome {
    /// Closed-loop completions per second.
    pub fn closed_img_per_s(&self) -> f64 {
        self.closed_completed as f64 / self.closed_secs
    }
}

/// The seeded request generator: draws each request's sample uniformly
/// from the test samples.
pub struct Generator {
    rng: Rng64,
    samples: usize,
}

impl Generator {
    pub fn new(seed: u64, samples: usize) -> Self {
        Self {
            rng: Rng64::seed_from_u64(seed ^ 0x5EED_5E4E),
            samples,
        }
    }

    fn draw(&mut self) -> usize {
        self.rng.below(self.samples as u64) as usize
    }
}

/// A submitted request awaiting its outcome.
struct Pending {
    ticket: Ticket,
    due: Instant,
    sample: usize,
}

fn submit(
    engine: &Engine,
    name: &str,
    samples: &[Tensor],
    sample: usize,
    due: Instant,
    out: &mut ServeOutcome,
) -> Option<Pending> {
    let request = Request::new(name, samples[sample].clone());
    let start = Instant::now();
    let ticket = engine.submit(request);
    out.submit_us.push(start.elapsed().as_secs_f64() * 1e6);
    match ticket {
        Ok(ticket) => {
            out.ticket_ids.push(ticket.id());
            Some(Pending {
                ticket,
                due,
                sample,
            })
        }
        // A refusal at admission is a failed operation, recorded as such.
        Err(r) => {
            out.served.push(Served {
                sample,
                outcome: Err(r.label()),
            });
            None
        }
    }
}

fn record(p: Pending, outcome: Result<Tensor, &'static str>, out: &mut ServeOutcome) {
    out.served.push(Served {
        sample: p.sample,
        outcome,
    });
}

/// Polls the pending open-loop requests, recording the resolved ones
/// with their latency from the due time. Returns how many resolved.
fn sweep(pending: &mut Vec<Pending>, out: &mut ServeOutcome) -> usize {
    let mut resolved = 0;
    let mut i = 0;
    while i < pending.len() {
        if let Some(result) = pending[i].ticket.try_get() {
            let p = pending.swap_remove(i);
            out.latencies_ms.push(p.due.elapsed().as_secs_f64() * 1e3);
            record(p, result.map_err(|r| r.label()), out);
            resolved += 1;
        } else {
            i += 1;
        }
    }
    resolved
}

/// How often the generator checks its pending requests while it waits
/// for the next due time; bounds the latency measurement's resolution.
const POLL: Duration = Duration::from_micros(100);

/// Open loop: submits `count` requests evenly spaced at `rate_hz` from one
/// thread, which also polls outstanding tickets between arrivals. Latency
/// runs from each request's due time to the poll that sees it resolved.
pub fn open_loop(
    engine: &Engine,
    name: &str,
    samples: &[Tensor],
    generator: &mut Generator,
    rate_hz: f64,
    count: usize,
    out: &mut ServeOutcome,
) {
    let period = Duration::from_secs_f64(1.0 / rate_hz);
    let mut pending = Vec::new();
    let t0 = Instant::now();
    for i in 0..count {
        let due = t0 + period * i as u32;
        loop {
            sweep(&mut pending, out);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL));
        }
        out.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
        pending.extend(submit(engine, name, samples, generator.draw(), due, out));
    }
    while !pending.is_empty() {
        if sweep(&mut pending, out) == 0 {
            std::thread::sleep(POLL);
        }
    }
}

/// Closed loop: keeps `outstanding` requests in flight for `budget`,
/// replacing each as the oldest resolves, then drains them.
pub fn closed_loop(
    engine: &Engine,
    name: &str,
    samples: &[Tensor],
    generator: &mut Generator,
    outstanding: usize,
    budget: Duration,
    out: &mut ServeOutcome,
) {
    let mut queue: VecDeque<Pending> = VecDeque::new();
    let start = Instant::now();
    for _ in 0..outstanding {
        queue.extend(submit(engine, name, samples, generator.draw(), start, out));
    }
    let mut completed = 0usize;
    while let Some(p) = queue.pop_front() {
        let result = p.ticket.wait().map_err(|r| r.label());
        record(p, result, out);
        completed += 1;
        if start.elapsed() < budget {
            queue.extend(submit(
                engine,
                name,
                samples,
                generator.draw(),
                Instant::now(),
                out,
            ));
        }
    }
    out.closed_completed += completed;
    out.closed_secs += start.elapsed().as_secs_f64();
}
