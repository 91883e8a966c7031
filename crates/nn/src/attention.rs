//! LayerNorm and single-head self-attention with full backprop —
//! the transformer substrate for the accuracy experiments.
//!
//! The paper's NLP results rest on transformer models whose nonlinear
//! budget is GELU (MLP blocks) plus Softmax (attention). These layers let
//! the Table III fleet include a genuine attention path: softmax runs
//! through the same `exp`-based decomposition the hardware accelerates.

use crate::layers::{Engines, Layer};
use crate::tensor::Tensor;
use flexsfu_core::{Element, PwlEvaluator};
use flexsfu_funcs::softmax::{softmax_with_batch, Float};
use std::sync::{Arc, Mutex};

/// A shared sink that statistic probes append observed values to.
///
/// Installed on [`LayerNorm`] (rsqrt arguments, `var + eps`) and
/// [`SelfAttention`] (shifted softmax logits, the `exp` inputs) by the
/// activation-statistics exporter in [`crate::stats`].
pub type ProbeSink = Arc<Mutex<Vec<f64>>>;

/// Layer normalization over the last dimension, with learnable gain/bias.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    eps: f64,
    // Cached normalized input and per-row inverse std for backward.
    cached_norm: Option<Tensor>,
    cached_inv_std: Vec<f64>,
    /// Observes the per-row rsqrt argument `var + eps` when installed.
    var_probe: Option<ProbeSink>,
}

impl LayerNorm {
    /// Creates a LayerNorm over feature width `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature width must be positive");
        Self {
            gamma: Tensor::from_vec(vec![1.0; dim], vec![dim]),
            beta: Tensor::zeros(vec![dim]),
            grad_gamma: Tensor::zeros(vec![dim]),
            grad_beta: Tensor::zeros(vec![dim]),
            eps: 1e-5,
            cached_norm: None,
            cached_inv_std: Vec::new(),
            var_probe: None,
        }
    }

    /// Installs (or clears) a probe that records the per-row rsqrt
    /// argument `var + eps` on every forward pass — the live input
    /// distribution of the `rsqrt` nonlinearity this layer would hand
    /// the SFU.
    pub fn set_variance_probe(&mut self, sink: Option<ProbeSink>) {
        self.var_probe = sink;
    }
}

impl Layer for LayerNorm {
    fn name(&self) -> &'static str {
        "layernorm"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let d = *x.shape().last().expect("non-empty shape");
        let rows = x.len() / d;
        let mut out = Tensor::zeros(x.shape().to_vec());
        let mut inv_stds = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &x.data()[r * d..(r + 1) * d];
            let mean = row.iter().sum::<f64>() / d as f64;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / d as f64;
            if let Some(probe) = &self.var_probe {
                probe
                    .lock()
                    .expect("probe sink poisoned")
                    .push(var + self.eps);
            }
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds.push(inv_std);
            for c in 0..d {
                let norm = (row[c] - mean) * inv_std;
                out.data_mut()[r * d + c] = self.gamma.data()[c] * norm + self.beta.data()[c];
            }
        }
        if train {
            // Cache the *normalized* values (pre-gain) for backward.
            let mut norm = out.clone();
            for r in 0..rows {
                for c in 0..d {
                    let g = self.gamma.data()[c].max(1e-12);
                    norm.data_mut()[r * d + c] = (out.data()[r * d + c] - self.beta.data()[c]) / g;
                }
            }
            self.cached_norm = Some(norm);
            self.cached_inv_std = inv_stds;
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let norm = self.cached_norm.as_ref().expect("forward(train) first");
        let d = *grad_out.shape().last().expect("non-empty shape");
        let rows = grad_out.len() / d;
        let mut gx = Tensor::zeros(grad_out.shape().to_vec());
        for r in 0..rows {
            let go = &grad_out.data()[r * d..(r + 1) * d];
            let nh = &norm.data()[r * d..(r + 1) * d];
            // dgamma, dbeta.
            for c in 0..d {
                self.grad_gamma.data_mut()[c] += go[c] * nh[c];
                self.grad_beta.data_mut()[c] += go[c];
            }
            // dx via the standard layernorm backward:
            // dx = inv_std/d * (d*dy*γ − Σ(dy*γ) − n̂·Σ(dy*γ·n̂))
            let gyg: Vec<f64> = (0..d).map(|c| go[c] * self.gamma.data()[c]).collect();
            let sum_g: f64 = gyg.iter().sum();
            let sum_gn: f64 = gyg.iter().zip(nh).map(|(g, n)| g * n).sum();
            let inv_std = self.cached_inv_std[r];
            for c in 0..d {
                gx.data_mut()[r * d + c] =
                    inv_std / d as f64 * (d as f64 * gyg[c] - sum_g - nh[c] * sum_gn);
            }
        }
        gx
    }

    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.gamma, &mut self.grad_gamma),
            (&mut self.beta, &mut self.grad_beta),
        ]
    }

    fn as_layernorm_mut(&mut self) -> Option<&mut LayerNorm> {
        Some(self)
    }
}

/// Single-head self-attention over inputs shaped `(batch, seq · dim)`,
/// interpreted as `seq` tokens of width `dim`.
///
/// `softmax` here uses the max-subtraction decomposition
/// ([`flexsfu_funcs::softmax`]), and an optional PWL override for the
/// `exp` stage can be installed with [`SelfAttention::set_exp_substitution`]
/// — the attention-path analogue of activation substitution.
pub struct SelfAttention {
    dim: usize,
    seq: usize,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    grad_wq: Tensor,
    grad_wk: Tensor,
    grad_wv: Tensor,
    exp_pwl: Option<flexsfu_core::PwlFunction>,
    exp_compiled: Option<Engines>,
    cache: Option<AttnCache>,
    /// Observes the shifted softmax logits (the `exp` inputs) when
    /// installed.
    logit_probe: Option<ProbeSink>,
}

struct AttnCache<T: Element = f64> {
    x: Tensor<T>,
    q: Tensor<T>,
    k: Tensor<T>,
    v: Tensor<T>,
    attn: Tensor<T>, // (batch, seq, seq) softmax weights, flattened
}

impl std::fmt::Debug for SelfAttention {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelfAttention")
            .field("dim", &self.dim)
            .field("seq", &self.seq)
            .field("exp_substituted", &self.exp_pwl.is_some())
            .finish()
    }
}

impl SelfAttention {
    /// Creates an attention layer for `seq` tokens of width `dim`.
    pub fn new(seq: usize, dim: usize, rng: &mut impl FnMut() -> f64) -> Self {
        assert!(seq > 0 && dim > 0, "empty attention shape");
        let scale = (1.0 / dim as f64).sqrt();
        let mk = |rng: &mut dyn FnMut() -> f64| {
            Tensor::from_vec(
                (0..dim * dim).map(|_| rng() * scale).collect(),
                vec![dim, dim],
            )
        };
        Self {
            dim,
            seq,
            wq: mk(rng),
            wk: mk(rng),
            wv: mk(rng),
            grad_wq: Tensor::zeros(vec![dim, dim]),
            grad_wk: Tensor::zeros(vec![dim, dim]),
            grad_wv: Tensor::zeros(vec![dim, dim]),
            exp_pwl: None,
            exp_compiled: None,
            cache: None,
            logit_probe: None,
        }
    }

    /// Installs (or clears) a probe that records the shifted softmax
    /// logits `row[i] − max(row)` — exactly the inputs the `exp` stage
    /// (and hence a PWL exp substitution) sees, all in `(-∞, 0]`.
    pub fn set_logit_probe(&mut self, sink: Option<ProbeSink>) {
        self.logit_probe = sink;
    }

    /// Installs a PWL substitution for the softmax `exp` stage (inference
    /// only, like activation substitution), compiled once for the
    /// evaluation engine in both precisions.
    pub fn set_exp_substitution(&mut self, pwl: Option<flexsfu_core::PwlFunction>) {
        self.exp_compiled = pwl.as_ref().map(Engines::new);
        self.exp_pwl = pwl;
    }

    /// Softmax over a row in `T`, honouring the exp substitution at
    /// inference: the max-subtraction decomposition with every
    /// intermediate in `T`, the exponentials from the `T` engine's lane
    /// kernels (then clamped non-negative) or from `T::exp`.
    fn softmax_row<T: Element + Float>(&self, row: &[T], train: bool) -> Vec<T> {
        if let Some(probe) = &self.logit_probe {
            // Record the same shift the softmax decomposition applies
            // internally, so the probe sees the exp inputs verbatim.
            let max = row.iter().fold(f64::NEG_INFINITY, |m, v| m.max(v.to_f64()));
            if max.is_finite() {
                let mut sink = probe.lock().expect("probe sink poisoned");
                sink.extend(row.iter().map(|&v| v.to_f64() - max));
            }
        }
        match (&self.exp_compiled, train) {
            // One `eval_into` sweep through the SIMD lane kernels for the
            // PWL exp, then the clamp — the batch analogue of
            // `softmax_with(row, |t| engine.eval_one(t).max(0.0))`.
            (Some(engines), false) => softmax_with_batch(row, |shifted, out| {
                engines.get::<T>().eval_into(shifted, out);
                for o in out.iter_mut() {
                    *o = Float::max(*o, T::default());
                }
            }),
            _ => softmax_with_batch(row, |shifted, out| {
                for (o, &t) in out.iter_mut().zip(shifted) {
                    *o = t.exp();
                }
            }),
        }
    }

    /// Inference forward in either precision: projections, scores,
    /// softmax (through the exp engine of `T` when a substitution is
    /// installed) and the value mix all run in `T`, so an f32 request
    /// never widens to f64. The trained weights are f64; in f32 they
    /// round once per call, the table-conversion analogue of the
    /// engine's own f64→f32 compile. [`Layer::forward`] with
    /// `train == false` is this call.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not shaped `(batch, seq·dim)`.
    pub fn infer<T: Element + Float>(&self, x: &Tensor<T>) -> Tensor<T> {
        self.attend(x, false).0
    }

    /// The forward pass in `T`, plus the activations backward needs
    /// when `train` (which also selects the exact `exp`).
    fn attend<T: Element + Float>(
        &self,
        x: &Tensor<T>,
        train: bool,
    ) -> (Tensor<T>, Option<AttnCache<T>>) {
        let (s, d) = (self.seq, self.dim);
        assert_eq!(
            x.shape()[1],
            s * d,
            "expected (batch, seq*dim) = (_, {})",
            s * d
        );
        let b = x.shape()[0];
        let scale = T::from_f64(1.0) / T::from_f64((d as f64).sqrt());
        let (wq, wk, wv) = (self.wq.cast(), self.wk.cast(), self.wv.cast());
        let mut out = Tensor::zeros(vec![b, s * d]);
        // What backward needs, collected only when training.
        let mut cache = train.then(|| AttnCache {
            x: x.clone(),
            q: Tensor::zeros(vec![b, s * d]),
            k: Tensor::zeros(vec![b, s * d]),
            v: Tensor::zeros(vec![b, s * d]),
            attn: Tensor::zeros(vec![b, s * s]),
        });

        for n in 0..b {
            let tokens =
                Tensor::from_vec(x.data()[n * s * d..(n + 1) * s * d].to_vec(), vec![s, d]);
            let q = tokens.matmul(&wq);
            let k = tokens.matmul(&wk);
            let v = tokens.matmul(&wv);
            // Scores (s × s) then row softmax.
            let scores = q.matmul(&k.transpose());
            for i in 0..s {
                let row: Vec<T> = (0..s).map(|j| scores.data()[i * s + j] * scale).collect();
                let w = self.softmax_row(&row, train);
                if let Some(cache) = &mut cache {
                    for j in 0..s {
                        cache.attn.data_mut()[n * s * s + i * s + j] = w[j];
                    }
                }
                // out_i = Σ_j w_ij · v_j
                for c in 0..d {
                    let mut acc = T::default();
                    for j in 0..s {
                        acc = acc + w[j] * v.data()[j * d + c];
                    }
                    out.data_mut()[n * s * d + i * d + c] = acc;
                }
            }
            if let Some(cache) = &mut cache {
                cache.q.data_mut()[n * s * d..(n + 1) * s * d].copy_from_slice(q.data());
                cache.k.data_mut()[n * s * d..(n + 1) * s * d].copy_from_slice(k.data());
                cache.v.data_mut()[n * s * d..(n + 1) * s * d].copy_from_slice(v.data());
            }
        }
        (out, cache)
    }
}

impl Layer for SelfAttention {
    fn name(&self) -> &'static str {
        "self_attention"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (out, cache) = self.attend(x, train);
        if train {
            self.cache = cache;
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("forward(train) first");
        let (s, d) = (self.seq, self.dim);
        let b = grad_out.shape()[0];
        let scale = 1.0 / (d as f64).sqrt();
        let mut gx = Tensor::zeros(vec![b, s * d]);

        for n in 0..b {
            let slice = |t: &Tensor| {
                Tensor::from_vec(t.data()[n * s * d..(n + 1) * s * d].to_vec(), vec![s, d])
            };
            let (x, q, k, v) = (
                slice(&cache.x),
                slice(&cache.q),
                slice(&cache.k),
                slice(&cache.v),
            );
            let go = Tensor::from_vec(
                grad_out.data()[n * s * d..(n + 1) * s * d].to_vec(),
                vec![s, d],
            );
            let attn = Tensor::from_vec(
                cache.attn.data()[n * s * s..(n + 1) * s * s].to_vec(),
                vec![s, s],
            );
            // dV = Aᵀ · dOut ; dA = dOut · Vᵀ
            let dv = attn.transpose().matmul(&go);
            let da = go.matmul(&v.transpose());
            // Softmax backward per row: dS_ij = A_ij (dA_ij − Σ_k A_ik dA_ik)
            let mut ds = Tensor::zeros(vec![s, s]);
            for i in 0..s {
                let dot: f64 = (0..s)
                    .map(|j| attn.data()[i * s + j] * da.data()[i * s + j])
                    .sum();
                for j in 0..s {
                    ds.data_mut()[i * s + j] =
                        attn.data()[i * s + j] * (da.data()[i * s + j] - dot) * scale;
                }
            }
            // dQ = dS·K ; dK = dSᵀ·Q
            let dq = ds.matmul(&k);
            let dk = ds.transpose().matmul(&q);
            // Parameter grads and input grad.
            self.grad_wq.axpy(1.0, &x.transpose().matmul(&dq));
            self.grad_wk.axpy(1.0, &x.transpose().matmul(&dk));
            self.grad_wv.axpy(1.0, &x.transpose().matmul(&dv));
            let gxi = dq
                .matmul(&self.wq.transpose())
                .add(&dk.matmul(&self.wk.transpose()))
                .add(&dv.matmul(&self.wv.transpose()));
            gx.data_mut()[n * s * d..(n + 1) * s * d].copy_from_slice(gxi.data());
        }
        gx
    }

    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.wq, &mut self.grad_wq),
            (&mut self.wk, &mut self.grad_wk),
            (&mut self.wv, &mut self.grad_wv),
        ]
    }

    fn as_attention_mut(&mut self) -> Option<&mut SelfAttention> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfu_core::init::uniform_pwl;
    use flexsfu_funcs::Exp;

    fn rng_from(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut ln = LayerNorm::new(4);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0], vec![2, 4]);
        let y = ln.forward(&x, false);
        for r in 0..2 {
            let row = &y.data()[r * 4..(r + 1) * 4];
            let mean: f64 = row.iter().sum::<f64>() / 4.0;
            let var: f64 = row.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_backward_matches_finite_differences() {
        let mut ln = LayerNorm::new(3);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.0, 1.5, -0.5], vec![2, 3]);
        let y = ln.forward(&x, true);
        let gx = ln.backward(&y); // objective ||y||²/2
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fp: f64 = ln
                .forward(&xp, false)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let fm: f64 = ln
                .forward(&xm, false)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - gx.data()[i]).abs() < 1e-4,
                "layernorm grad {i}: fd {fd} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        let mut rng = rng_from(5);
        let mut attn = SelfAttention::new(3, 4, &mut rng);
        let x = Tensor::from_vec(
            (0..12).map(|i| (i as f64 * 0.37).sin()).collect(),
            vec![1, 12],
        );
        let _y = attn.forward(&x, true);
        let cache = attn.cache.as_ref().unwrap();
        for i in 0..3 {
            let row = &cache.attn.data()[i * 3..(i + 1) * 3];
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&w| w >= 0.0));
        }
    }

    #[test]
    fn attention_backward_matches_finite_differences() {
        let mut rng = rng_from(11);
        let mut attn = SelfAttention::new(2, 3, &mut rng);
        let x = Tensor::from_vec(
            (0..12).map(|i| ((i * 7 % 5) as f64 - 2.0) * 0.3).collect(),
            vec![2, 6],
        );
        let y = attn.forward(&x, true);
        let gx = attn.backward(&y);
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fp: f64 = attn
                .forward(&xp, false)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let fm: f64 = attn
                .forward(&xm, false)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - gx.data()[i]).abs() < 2e-4,
                "attention grad {i}: fd {fd} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn forward_f32_tracks_the_f64_forward() {
        let mut rng = rng_from(9);
        let mut attn = SelfAttention::new(3, 4, &mut rng);
        let x64 = Tensor::from_vec(
            (0..24).map(|i| (i as f64 * 0.43).sin()).collect(),
            vec![2, 12],
        );
        let x32: Tensor<f32> = x64.cast();

        // Exact exp in both precisions: the rows stay convex and close.
        let y64 = attn.forward(&x64, false);
        let y32 = attn.infer(&x32);
        assert_eq!(y32.shape(), y64.shape());
        for (a, b) in y32.data().iter().zip(y64.data()) {
            assert!((f64::from(*a) - b).abs() < 1e-4, "{a} vs {b}");
        }

        // With the PWL exp substituted, the f32 softmax runs through the
        // f32 engine and still tracks the f64 substituted path.
        attn.set_exp_substitution(Some(uniform_pwl(&Exp, 32, (-10.0, 0.1))));
        let y64 = attn.forward(&x64, false);
        let y32 = attn.infer(&x32);
        for (a, b) in y32.data().iter().zip(y64.data()) {
            assert!((f64::from(*a) - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn exp_substitution_changes_inference_only() {
        let mut rng = rng_from(3);
        let mut attn = SelfAttention::new(3, 4, &mut rng);
        let x = Tensor::from_vec(
            (0..12).map(|i| (i as f64 * 0.61).cos()).collect(),
            vec![1, 12],
        );
        let exact = attn.forward(&x, false);
        let pwl = uniform_pwl(&Exp, 32, (-10.0, 0.1));
        attn.set_exp_substitution(Some(pwl));
        let approx = attn.forward(&x, false);
        for (a, e) in approx.data().iter().zip(exact.data()) {
            assert!((a - e).abs() < 0.02, "{a} vs {e}");
        }
        // Training path ignores the substitution.
        let train_out = attn.forward(&x, true);
        for (t, e) in train_out.data().iter().zip(exact.data()) {
            assert!((t - e).abs() < 1e-12);
        }
    }
}
