//! Workload definitions and set-up: everything a run builds before its
//! timed window, each step timed around the public call that does it.

use std::sync::Arc;

use appmult_data::{DatasetConfig, SyntheticDataset};
use appmult_models::{lenet5, vgg, ConvMode, ModelConfig, VggDepth};
use appmult_mult::{zoo, Multiplier, MultiplierLut};
use appmult_nn::layers::Sequential;
use appmult_nn::{Module, Tensor};
use appmult_retrain::{Batch, GradientLut, GradientMode};
use appmult_serve::{LutBuilder, ModelSpec, Registry};

use crate::stats::time_ms;

/// Images per mini-batch in every phase.
pub const BATCH: usize = 32;
/// Side of the square synthetic CIFAR-like inputs.
pub const HW: usize = 16;
/// Classes of the synthetic dataset.
pub const CLASSES: usize = 10;

/// Network architecture of one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// LeNet-5 at full width.
    Lenet,
    /// The 6-conv VGG variant (`VggDepth::Small`) at width divisor 4.
    Vggs,
}

impl Arch {
    fn width_div(self) -> usize {
        match self {
            Arch::Lenet => 1,
            Arch::Vggs => 4,
        }
    }
}

/// One model of a workload: architecture plus the zoo multiplier its
/// approximate convolutions use.
#[derive(Debug, Clone, Copy)]
pub struct ModelPlan {
    /// Short name, used as the registry name and in metric names.
    pub key: &'static str,
    pub arch: Arch,
    /// Table I name passed to `zoo::entry`.
    pub mult: &'static str,
}

pub const LENET_RM8: ModelPlan = ModelPlan {
    key: "lenet",
    arch: Arch::Lenet,
    mult: "mul8u_rm8",
};
pub const VGGS_SYN7: ModelPlan = ModelPlan {
    key: "vggs",
    arch: Arch::Vggs,
    mult: "mul7u_syn1",
};

/// Share of the timed window each phase gets, in driving order.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    pub train: f64,
    pub eval: f64,
    pub open_loop: f64,
    pub closed_loop: f64,
}

pub const SHARES: Shares = Shares {
    train: 0.4,
    eval: 0.2,
    open_loop: 0.2,
    closed_loop: 0.2,
};
/// Training and test images per class of the synthetic dataset.
const TRAIN_PER_CLASS: usize = 96;
const TEST_PER_CLASS: usize = 32;
/// Requests kept outstanding in the closed-loop phase.
pub const OUTSTANDING: usize = 16;

/// A named workload: its model, pool threads and the open-loop rate.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// `appmult-pool` worker count for the whole run.
    pub threads: usize,
    pub model: ModelPlan,
    /// Open-loop arrival rate (requests per second, evenly spaced).
    pub open_rate_hz: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "retrain_lenet_rm8_1t",
        threads: 1,
        model: LENET_RM8,
        open_rate_hz: 400.0,
    },
    Workload {
        name: "retrain_vggs_syn7_2t",
        threads: 2,
        model: VGGS_SYN7,
        open_rate_hz: 200.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The builder configuration of `arch` over the given tables.
pub fn model_config(
    arch: Arch,
    seed: u64,
    lut: Arc<MultiplierLut>,
    grads: Arc<GradientLut>,
) -> ModelConfig {
    ModelConfig {
        num_classes: CLASSES,
        input_channels: 3,
        input_hw: (HW, HW),
        width_div: arch.width_div(),
        seed,
        conv: ConvMode::approximate(lut, grads),
    }
}

/// Builds `arch` through the `appmult-models` builder.
pub fn build_model(arch: Arch, config: &ModelConfig) -> Sequential {
    match arch {
        Arch::Lenet => lenet5(config),
        Arch::Vggs => vgg(VggDepth::Small, config),
    }
}

/// The tables and training instance of one model.
pub struct BuiltModel {
    pub plan: ModelPlan,
    pub multiplier: Arc<dyn Multiplier>,
    pub hws: u32,
    pub lut: Arc<MultiplierLut>,
    pub grads: Arc<GradientLut>,
    /// The instance the train and eval phases run.
    pub model: Sequential,
}

impl BuiltModel {
    /// A fresh builder instance of this model (same seed, same tables).
    pub fn rebuild(&self, seed: u64) -> Sequential {
        let cfg = model_config(self.plan.arch, seed, self.lut.clone(), self.grads.clone());
        build_model(self.plan.arch, &cfg)
    }
}

/// Per-layer set-up times in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub zoo_entry_ms: f64,
    pub lut_build_ms: f64,
    pub grad_lut_build_ms: f64,
    pub data_generate_ms: f64,
    pub data_batch_ms: f64,
    pub models_build_ms: f64,
    pub registry_load_ms: f64,
    pub total_s: f64,
}

/// Everything the timed window consumes.
pub struct Setup {
    pub model: BuiltModel,
    pub train: Vec<Batch>,
    pub test: Vec<Batch>,
    /// The fixed batch the served model is calibrated on before traffic.
    pub calib: Arc<Tensor>,
    pub registry: Arc<Registry>,
    pub times: SetupTimes,
}

/// The dataset configuration of a run.
fn dataset_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
        seed,
        ..DatasetConfig::small(CLASSES, TRAIN_PER_CLASS, TEST_PER_CLASS)
    }
}

/// Builds a serving instance: the builder's model, calibrated on `calib`
/// in eval mode. The served model and its reference copy both go
/// through here, so both calibrate their activation ranges on the same
/// batch.
pub fn serving_model(
    arch: Arch,
    seed: u64,
    lut: Arc<MultiplierLut>,
    grads: Arc<GradientLut>,
    calib: &Tensor,
) -> Sequential {
    let mut model = build_model(arch, &model_config(arch, seed, lut, grads));
    model.forward(calib, false);
    model
}

/// Runs the set-up of workload `w` for `seed`.
///
/// # Panics
///
/// Panics if the model names a multiplier missing from the zoo or the
/// registry refuses the model.
pub fn run_setup(w: &Workload, seed: u64) -> Setup {
    let start = std::time::Instant::now();
    let mut times = SetupTimes::default();
    let plan = w.model;
    let (entry, ms) = time_ms(|| zoo::entry(plan.mult).expect("multiplier is in the zoo"));
    times.zoo_entry_ms = ms;
    let (lut, ms) = time_ms(|| Arc::new(entry.multiplier.to_lut()));
    times.lut_build_ms = ms;
    let hws = entry.recommended_hws();
    let (grads, ms) = time_ms(|| {
        Arc::new(GradientLut::build(
            &lut,
            GradientMode::difference_based(hws),
        ))
    });
    times.grad_lut_build_ms = ms;
    let (model, ms) = time_ms(|| {
        build_model(
            plan.arch,
            &model_config(plan.arch, seed, lut.clone(), grads.clone()),
        )
    });
    times.models_build_ms = ms;
    let model = BuiltModel {
        plan,
        multiplier: entry.multiplier,
        hws,
        lut,
        grads,
        model,
    };
    let (data, ms) = time_ms(|| SyntheticDataset::generate(&dataset_config(seed)));
    times.data_generate_ms = ms;
    let ((train, test), ms) = time_ms(|| (data.train_batches(BATCH), data.test_batches(BATCH)));
    times.data_batch_ms = ms;
    let calib = Arc::new(train[0].0.clone());

    let (registry, ms) = time_ms(|| {
        let registry = Arc::new(Registry::new(4));
        registry
            .load(serving_spec(&model, seed, &calib))
            .expect("registry accepts the model");
        registry
    });
    times.registry_load_ms = ms;
    times.total_s = start.elapsed().as_secs_f64();
    Setup {
        model,
        train,
        test,
        calib,
        registry,
        times,
    }
}

/// The registry spec of one model: its tables are prefetched into the
/// LUT cache, and the factory builds the model and calibrates it on the
/// fixed batch (so a rebuilt instance serves with the same ranges).
fn serving_spec(m: &BuiltModel, seed: u64, calib: &Arc<Tensor>) -> ModelSpec {
    let (lut, grads) = (m.lut.clone(), m.grads.clone());
    let prefetch: LutBuilder = Arc::new(move || ((*lut).clone(), (*grads).clone()));
    let arch = m.plan.arch;
    let key = m.plan.mult;
    let calib = Arc::clone(calib);
    let rebuild = Arc::clone(&prefetch);
    ModelSpec::new(
        m.plan.key,
        vec![3, HW, HW],
        Arc::new(move |luts| {
            let (lut, grads) = luts.get(key, || rebuild());
            serving_model(arch, seed, lut, grads, &calib)
        }),
    )
    .with_prefetch(key, prefetch)
}
