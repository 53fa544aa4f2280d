//! An independent reference for Eqs. 4-8, written from the paper's
//! formulas rather than from the library: products come from
//! `Multiplier::multiply` (never from a product LUT or `appmult-kernels`),
//! convolutions are evaluated one output at a time, and gradients are
//! smoothed and differenced per output entry.

use std::sync::Arc;

use appmult_mult::{Multiplier, MultiplierLut};
use appmult_nn::layers::Conv2dSpec;
use appmult_nn::{Module, Tensor};
use appmult_retrain::{ApproxConv2d, GradientLut, QuantConfig};
use appmult_rng::Rng64;

use crate::arch::{Layer, PlannedLayer};

/// Relative tolerance of a sampled conv output against the reference,
/// taken on the magnitude of its dequantized accumulator plus bias: the
/// library dequantizes an exact integer sum in `f32`, the reference in
/// `f64`, so only `f32` rounding separates them.
pub const CONV_RTOL: f64 = 1e-5;
/// Tolerance of a sampled gradient-table entry, relative to `max(1, |ref|)`:
/// both sides smooth in `f64`, the library stores the result as `f32`.
pub const GRAD_RTOL: f64 = 1e-5;

/// Eq. 7 quantizer: `Q(v) = clamp(round(v / s + Z), 0, 2^B - 1)` over a
/// range widened to contain 0, with `s = (hi - lo) / (2^B - 1)` and
/// `Z = round(-lo / s)`. Evaluated in `f32`, the precision of the
/// training framework's values, so that codes agree exactly.
#[derive(Debug, Clone, Copy)]
pub struct Quant {
    pub scale: f32,
    pub zero: i64,
    qmax: f32,
}

impl Quant {
    pub fn from_range(lo: f32, hi: f32, bits: u32) -> Self {
        let (lo, hi) = (lo.min(0.0), hi.max(0.0));
        let qmax = ((1u32 << bits) - 1) as f32;
        let scale = ((hi - lo) / qmax).max(1e-10);
        let zero = (-lo / scale).round().clamp(0.0, qmax);
        Self {
            scale,
            zero: zero as i64,
            qmax,
        }
    }

    pub fn code(&self, v: f32) -> u32 {
        (v / self.scale + self.zero as f32)
            .round()
            .clamp(0.0, self.qmax) as u32
    }
}

fn min_max(values: &[f32]) -> (f32, f32) {
    values
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// One conv output `(n, co, oy, ox)` by Eqs. 7-8: both operands quantized
/// over their own full range (what a freshly calibrated layer sees), the
/// `AM(W, X)` products taken from the multiplier, and
/// `y = s_w s_x sum (AM - Z_x W - Z_w X + Z_w Z_x) + b`.
/// Returns the value and the magnitude the tolerance scales with.
#[allow(clippy::too_many_arguments)]
pub fn conv_output(
    mult: &dyn Multiplier,
    spec: &Conv2dSpec,
    weight: &[f32],
    bias: &[f32],
    input: &Tensor,
    (n, co, oy, ox): (usize, usize, usize, usize),
) -> (f64, f64) {
    let bits = mult.bits();
    let (wlo, whi) = min_max(weight);
    let (xlo, xhi) = min_max(input.as_slice());
    let wq = Quant::from_range(wlo, whi, bits);
    let xq = Quant::from_range(xlo, xhi, bits);
    let s = input.shape();
    let (c, h, w) = (s[1], s[2], s[3]);
    let k = spec.kernel;
    let (zw, zx) = (wq.zero, xq.zero);
    let mut acc = 0i64;
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                let inside = iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w;
                let x = if inside {
                    input.as_slice()[((n * c + ci) * h + iy as usize) * w + ix as usize]
                } else {
                    0.0 // zero padding
                };
                let wv = weight[co * spec.patch_len() + (ci * k + ky) * k + kx];
                let (wc, xc) = (wq.code(wv), xq.code(x));
                let am = i64::from(mult.multiply(wc, xc));
                acc += am - zx * i64::from(wc) - zw * i64::from(xc) + zw * zx;
            }
        }
    }
    let dq = f64::from(wq.scale) * f64::from(xq.scale) * acc as f64;
    let b = f64::from(bias[co]);
    (dq + b, dq.abs() + b.abs())
}

/// Eq. 4: the mean of `f` over the window `[t - hws, t + hws]`.
fn smoothed(f: &dyn Fn(u32) -> f64, t: u32, hws: u32) -> f64 {
    let sum: f64 = (t - hws..=t + hws).map(f).sum();
    sum / f64::from(2 * hws + 1)
}

/// Eqs. 5-6 for one operand axis: `f(t)` is `AM` with the other operand
/// fixed. Central difference of the smoothed function for
/// `HWS < t < 2^B - 1 - HWS`, the row's average slope otherwise.
fn difference_gradient(f: &dyn Fn(u32) -> f64, t: u32, hws: u32, bits: u32) -> f64 {
    let n = 1u32 << bits;
    if t > hws && t + hws + 1 < n {
        (smoothed(f, t + 1, hws) - smoothed(f, t - 1, hws)) / 2.0
    } else {
        let (lo, hi) = (0..n)
            .map(f)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
        (hi - lo) / f64::from(n)
    }
}

/// `dAM/dX` at `(w, x)` by Eqs. 4-6.
pub fn grad_wrt_x(mult: &dyn Multiplier, hws: u32, w: u32, x: u32) -> f64 {
    difference_gradient(&|t| f64::from(mult.multiply(w, t)), x, hws, mult.bits())
}

/// `dAM/dW` at `(w, x)` by Eqs. 4-6.
pub fn grad_wrt_w(mult: &dyn Multiplier, hws: u32, w: u32, x: u32) -> f64 {
    difference_gradient(&|t| f64::from(mult.multiply(t, x)), w, hws, mult.bits())
}

/// Checks the reference itself against closed forms on an exact
/// multiplier: `AM(w, x) = w x`, the interior `dAM/dX = w` and
/// `dAM/dW = x`, and a conv output equal to the float dot product of the
/// dequantized operands. Returns a description of the first mismatch.
pub fn self_test(exact: &dyn Multiplier, seed: u64) -> Result<(), String> {
    let bits = exact.bits();
    let n = 1u32 << bits;
    let hws = 3;
    let mut rng = Rng64::seed_from_u64(seed ^ 0x00C1_05ED);
    for _ in 0..64 {
        let w = rng.below(u64::from(n)) as u32;
        let x = rng.below(u64::from(n)) as u32;
        if exact.multiply(w, x) != w * x {
            return Err(format!("exact product at ({w}, {x})"));
        }
        let xi = hws + 1 + rng.below(u64::from(n - 2 * hws - 2)) as u32;
        if grad_wrt_x(exact, hws, w, xi) != f64::from(w)
            || grad_wrt_w(exact, hws, xi, x) != f64::from(x)
        {
            return Err(format!(
                "interior gradient at ({w}, {xi}) is not the other operand"
            ));
        }
    }
    // Conv: Eq. 8 expanded must equal sum (W - Z_w)(X - Z_x) s_w s_x + b.
    let spec = Conv2dSpec {
        in_channels: 2,
        out_channels: 3,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let weight: Vec<f32> = (0..3 * spec.patch_len())
        .map(|_| rng.uniform_f32(-0.5, 0.4))
        .collect();
    let bias = [0.1f32, -0.2, 0.05];
    let input = Tensor::from_vec(
        (0..2 * 2 * 5 * 5)
            .map(|_| rng.uniform_f32(-0.3, 1.2))
            .collect(),
        &[2, 2, 5, 5],
    );
    let (wlo, whi) = min_max(&weight);
    let (xlo, xhi) = min_max(input.as_slice());
    let (wq, xq) = (
        Quant::from_range(wlo, whi, bits),
        Quant::from_range(xlo, xhi, bits),
    );
    for &(ni, co, oy, ox) in &[(0, 0, 0, 0), (1, 2, 4, 3), (0, 1, 2, 2), (1, 0, 4, 0)] {
        let (got, mag) = conv_output(exact, &spec, &weight, &bias, &input, (ni, co, oy, ox));
        let mut dot = 0f64;
        for ci in 0..2 {
            for ky in 0..3 {
                for kx in 0..3 {
                    let (iy, ix) = ((oy + ky) as isize - 1, (ox + kx) as isize - 1);
                    let x = if (0..5).contains(&iy) && (0..5).contains(&ix) {
                        input.at(&[ni, ci, iy as usize, ix as usize])
                    } else {
                        0.0
                    };
                    let wv = weight[co * 18 + (ci * 3 + ky) * 3 + kx];
                    let dw = i64::from(wq.code(wv)) - wq.zero;
                    let dx = i64::from(xq.code(x)) - xq.zero;
                    dot += (dw * dx) as f64;
                }
            }
        }
        let want = dot * f64::from(wq.scale) * f64::from(xq.scale) + f64::from(bias[co]);
        if (got - want).abs() > 1e-9 * (1.0 + mag) {
            return Err(format!(
                "conv closed form at ({ni}, {co}, {oy}, {ox}): {got} vs {want}"
            ));
        }
    }
    Ok(())
}

/// Compares sampled entries of both gradient tables with the reference.
pub fn check_gradients(
    mult: &dyn Multiplier,
    hws: u32,
    grads: &GradientLut,
    seed: u64,
    samples: usize,
) -> Result<(), String> {
    let n = 1u64 << mult.bits();
    let mut rng = Rng64::seed_from_u64(seed ^ 0x6AD_1E47);
    for i in 0..samples {
        // `t` is the operand the gradient differentiates along; every
        // fourth sample puts it on the boundary, where Eq. 6 applies.
        let other = rng.below(n) as u32;
        let t = if i % 4 == 0 {
            (rng.below(2) * (n - 1)) as u32
        } else {
            rng.below(n) as u32
        };
        for (what, (w, x), got, want) in [
            (
                "dAM/dX",
                (other, t),
                grads.wrt_x(other, t),
                grad_wrt_x(mult, hws, other, t),
            ),
            (
                "dAM/dW",
                (t, other),
                grads.wrt_w(t, other),
                grad_wrt_w(mult, hws, t, other),
            ),
        ] {
            if (f64::from(got) - want).abs() > GRAD_RTOL * want.abs().max(1.0) {
                return Err(format!(
                    "{what} of {} at ({w}, {x}): table {got}, reference {want}",
                    mult.name()
                ));
            }
        }
    }
    Ok(())
}

/// For every approximate conv of a model: builds a fresh layer from the
/// model's current weights, runs it in eval mode on a seeded input of the
/// layer's own shape, and compares sampled outputs with the reference.
/// `params` are the model's parameter values in visitation order.
#[allow(clippy::too_many_arguments)]
pub fn check_convs(
    mult: &dyn Multiplier,
    lut: &Arc<MultiplierLut>,
    grads: &Arc<GradientLut>,
    plan: &[PlannedLayer],
    params: &[Tensor],
    seed: u64,
    samples: usize,
) -> Result<(), String> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0xC0_4F);
    let mut index = 0;
    for layer in plan {
        if let Layer::Conv { spec, .. } = layer.layer {
            let (weight, bias) = (&params[index], &params[index + 1]);
            let (c, h, w) = layer.input_chw;
            let input = Tensor::from_vec(
                (0..2 * c * h * w)
                    .map(|_| rng.uniform_f32(-0.5, 2.0))
                    .collect(),
                &[2, c, h, w],
            );
            let mut conv = ApproxConv2d::with_params(
                spec,
                weight.clone(),
                bias.clone(),
                lut.clone(),
                grads.clone(),
                QuantConfig::default(),
            );
            let out = conv.forward(&input, false);
            let (oh, ow) = spec.out_hw(h, w);
            for _ in 0..samples {
                let at = (
                    rng.index(2),
                    rng.index(spec.out_channels),
                    rng.index(oh),
                    rng.index(ow),
                );
                let got = f64::from(out.at(&[at.0, at.1, at.2, at.3]));
                let (want, mag) =
                    conv_output(mult, &spec, weight.as_slice(), bias.as_slice(), &input, at);
                if (got - want).abs() > CONV_RTOL * mag + 1e-6 {
                    return Err(format!(
                        "{} output {at:?}: layer {got}, reference {want}",
                        layer.name
                    ));
                }
            }
        }
        index += layer.param_count();
    }
    Ok(())
}
