//! Layer-by-layer plans of the two benchmark architectures, mirroring the
//! `appmult-models` builders. The traced run assembles its timed model
//! copies from these plans and checks them bit for bit against the
//! builders; the reference checks use them to find each approximate conv.

use std::sync::Arc;

use appmult_mult::MultiplierLut;
use appmult_nn::layers::{BatchNorm2d, Conv2dSpec, Dropout, Flatten, Linear, MaxPool2d, Relu};
use appmult_nn::Module;
use appmult_retrain::{ApproxConv2d, GradientLut, QuantConfig};

use crate::setup::{Arch, CLASSES, HW};

/// One layer of a plan.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// Approximate convolution; `seed` is the offset from the model seed.
    Conv {
        spec: Conv2dSpec,
        seed: u64,
    },
    BatchNorm(usize),
    Relu,
    MaxPool,
    Flatten,
    Dropout {
        p: f32,
        seed: u64,
    },
    Linear {
        input: usize,
        output: usize,
        seed: u64,
    },
}

/// A named layer with the NCHW shape (without batch) of its input.
#[derive(Debug, Clone)]
pub struct PlannedLayer {
    pub name: String,
    pub layer: Layer,
    pub input_chw: (usize, usize, usize),
}

impl PlannedLayer {
    /// Whether this is one of the AppMult convolutions.
    pub fn is_conv(&self) -> bool {
        matches!(self.layer, Layer::Conv { .. })
    }

    /// Number of `Parameter`s the layer exposes to `visit_params`.
    pub fn param_count(&self) -> usize {
        match self.layer {
            Layer::Conv { .. } | Layer::BatchNorm(_) | Layer::Linear { .. } => 2,
            _ => 0,
        }
    }

    /// Builds the layer as the model builder would.
    pub fn build(
        &self,
        model_seed: u64,
        lut: &Arc<MultiplierLut>,
        grads: &Arc<GradientLut>,
    ) -> Box<dyn Module> {
        match self.layer {
            Layer::Conv { spec, seed } => Box::new(ApproxConv2d::new(
                spec.in_channels,
                spec.out_channels,
                spec.kernel,
                spec.stride,
                spec.padding,
                model_seed + seed,
                lut.clone(),
                grads.clone(),
                QuantConfig::default(),
            )),
            Layer::BatchNorm(c) => Box::new(BatchNorm2d::new(c)),
            Layer::Relu => Box::new(Relu::new()),
            Layer::MaxPool => Box::new(MaxPool2d::new(2, 2)),
            Layer::Flatten => Box::new(Flatten::new()),
            Layer::Dropout { p, seed } => Box::new(Dropout::new(p, model_seed + seed)),
            Layer::Linear {
                input,
                output,
                seed,
            } => Box::new(Linear::new(input, output, model_seed + seed)),
        }
    }
}

fn conv(
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    seed: u64,
) -> Layer {
    Layer::Conv {
        spec: Conv2dSpec {
            in_channels,
            out_channels,
            kernel,
            stride: 1,
            padding,
        },
        seed,
    }
}

/// The layer plan of `arch` at the benchmark's input size.
pub fn plan(arch: Arch) -> Vec<PlannedLayer> {
    let layers: Vec<(&str, Layer)> = match arch {
        // lenet5 at width divisor 1 on 16x16 inputs: 16 -> 12 -> 6 -> 2 -> 1.
        Arch::Lenet => vec![
            ("conv1", conv(3, 6, 5, 0, 0)),
            ("relu1", Layer::Relu),
            ("pool1", Layer::MaxPool),
            ("conv2", conv(6, 16, 5, 0, 1)),
            ("relu2", Layer::Relu),
            ("pool2", Layer::MaxPool),
            ("flatten", Layer::Flatten),
            (
                "fc1",
                Layer::Linear {
                    input: 16,
                    output: 120,
                    seed: 2,
                },
            ),
            ("relu3", Layer::Relu),
            (
                "fc2",
                Layer::Linear {
                    input: 120,
                    output: 84,
                    seed: 3,
                },
            ),
            ("relu4", Layer::Relu),
            (
                "fc3",
                Layer::Linear {
                    input: 84,
                    output: CLASSES,
                    seed: 4,
                },
            ),
        ],
        // vgg(Small) at width divisor 4: widths 8, 8 | 16, 16 | 32, 32.
        Arch::Vggs => {
            let mut v = Vec::new();
            let widths = [(3, 8), (8, 8), (8, 16), (16, 16), (16, 32), (32, 32)];
            let names = ["conv1", "conv2", "conv3", "conv4", "conv5", "conv6"];
            let bns = ["bn1", "bn2", "bn3", "bn4", "bn5", "bn6"];
            let relus = ["relu1", "relu2", "relu3", "relu4", "relu5", "relu6"];
            let pools = ["pool1", "pool2", "pool3"];
            for (i, &(cin, cout)) in widths.iter().enumerate() {
                v.push((names[i], conv(cin, cout, 3, 1, i as u64)));
                v.push((bns[i], Layer::BatchNorm(cout)));
                v.push((relus[i], Layer::Relu));
                if i % 2 == 1 {
                    v.push((pools[i / 2], Layer::MaxPool));
                }
            }
            v.push(("flatten", Layer::Flatten));
            v.push(("dropout", Layer::Dropout { p: 0.2, seed: 6 }));
            v.push((
                "fc",
                Layer::Linear {
                    input: 32 * 2 * 2,
                    output: CLASSES,
                    seed: 7,
                },
            ));
            v
        }
    };
    let mut chw = (3, HW, HW);
    layers
        .into_iter()
        .map(|(name, layer)| {
            let planned = PlannedLayer {
                name: name.to_string(),
                layer,
                input_chw: chw,
            };
            chw = match layer {
                Layer::Conv { spec, .. } => {
                    let (h, w) = spec.out_hw(chw.1, chw.2);
                    (spec.out_channels, h, w)
                }
                Layer::MaxPool => (chw.0, chw.1 / 2, chw.2 / 2),
                Layer::Flatten => (chw.0 * chw.1 * chw.2, 1, 1),
                Layer::Linear { output, .. } => (output, 1, 1),
                _ => chw,
            };
            planned
        })
        .collect()
}
