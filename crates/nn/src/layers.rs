//! Layers with forward and backward passes.

use crate::tensor::Tensor;
use flexsfu_core::{CompiledPwl, CompiledPwlF32, Element, PwlEngine, PwlEvaluator, PwlFunction};
use flexsfu_funcs::Activation;
use std::any::Any;

/// A differentiable layer.
///
/// `forward` caches whatever `backward` needs; `backward` consumes the
/// gradient w.r.t. its output and returns the gradient w.r.t. its input,
/// accumulating parameter gradients internally.
pub trait Layer {
    /// Layer kind, for debugging and reports.
    fn name(&self) -> &'static str;

    /// Computes the layer output. With `train = true` intermediate state
    /// is cached for `backward`.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out`, returning the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// `(parameter, gradient)` pairs for the optimizer; empty by default.
    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    /// Downcast hook for activation substitution.
    fn as_activation_mut(&mut self) -> Option<&mut ActivationLayer> {
        None
    }

    /// Downcast hook for softmax-`exp` substitution in attention layers.
    fn as_attention_mut(&mut self) -> Option<&mut crate::attention::SelfAttention> {
        None
    }

    /// Downcast hook for layer-norm statistic probes (the rsqrt-argument
    /// exporter in [`crate::stats`]).
    fn as_layernorm_mut(&mut self) -> Option<&mut crate::attention::LayerNorm> {
        None
    }
}

/// Fully connected layer `y = xW + b`.
#[derive(Debug)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_x: Option<Tensor>,
}

impl Dense {
    /// He-style initialization with a caller-provided RNG stream
    /// (deterministic given the stream).
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl FnMut() -> f64) -> Self {
        let scale = (2.0 / in_dim as f64).sqrt();
        let data: Vec<f64> = (0..in_dim * out_dim).map(|_| rng() * scale).collect();
        Self {
            weight: Tensor::from_vec(data, vec![in_dim, out_dim]),
            bias: Tensor::zeros(vec![out_dim]),
            grad_w: Tensor::zeros(vec![in_dim, out_dim]),
            grad_b: Tensor::zeros(vec![out_dim]),
            cached_x: None,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.weight.shape()[1]
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut y = x.matmul(&self.weight);
        let out = self.out_dim();
        for r in 0..y.shape()[0] {
            for c in 0..out {
                y.data_mut()[r * out + c] += self.bias.data()[c];
            }
        }
        if train {
            self.cached_x = Some(x.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.as_ref().expect("forward(train) first");
        let gw = x.transpose().matmul(grad_out);
        self.grad_w.axpy(1.0, &gw);
        let out = self.out_dim();
        for r in 0..grad_out.shape()[0] {
            for c in 0..out {
                self.grad_b.data_mut()[c] += grad_out.data()[r * out + c];
            }
        }
        grad_out.matmul(&self.weight.transpose())
    }

    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.weight, &mut self.grad_w),
            (&mut self.bias, &mut self.grad_b),
        ]
    }
}

/// A PWL table compiled for inference in both precisions.
pub(crate) struct Engines(CompiledPwl, CompiledPwlF32);

impl Engines {
    pub(crate) fn new(pwl: &PwlFunction) -> Self {
        let f64 = pwl.compile();
        let f32 = CompiledPwlF32::from_compiled(&f64);
        Self(f64, f32)
    }

    /// The engine in precision `T` — one of the two, since [`Element`]
    /// is sealed to `f64` and `f32`.
    pub(crate) fn get<T: Element>(&self) -> &PwlEngine<T> {
        let (f64, f32): (&dyn Any, &dyn Any) = (&self.0, &self.1);
        f64.downcast_ref()
            .or_else(|| f32.downcast_ref())
            .expect("Element is f64 or f32")
    }
}

/// Element-wise activation layer with an optional PWL override.
///
/// Training always uses the exact function and its derivative; at
/// inference the layer evaluates the override [`PwlFunction`] when one is
/// installed — exactly the paper's substitution protocol ("we substitute
/// the layers within the DNN models without any retraining").
///
/// Substitution compiles the function once per precision
/// ([`CompiledPwl`] and [`CompiledPwlF32`]) and the inference pass
/// batch-evaluates the whole tensor through the engine of its
/// precision — bit-identical to scalar `pwl.eval` per element, minus a
/// binary search and a division each.
pub struct ActivationLayer {
    act: Box<dyn Activation>,
    pwl: Option<PwlFunction>,
    compiled: Option<Engines>,
    cached_x: Option<Tensor>,
}

impl std::fmt::Debug for ActivationLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActivationLayer")
            .field("act", &self.act.name())
            .field("substituted", &self.pwl.is_some())
            .finish()
    }
}

impl ActivationLayer {
    /// Wraps an exact activation.
    pub fn new(act: Box<dyn Activation>) -> Self {
        Self {
            act,
            pwl: None,
            compiled: None,
            cached_x: None,
        }
    }

    /// The wrapped activation's name.
    pub fn activation_name(&self) -> &'static str {
        self.act.name()
    }

    /// Installs (or clears) the PWL substitution, compiling it for the
    /// batch engine in both precisions.
    pub fn set_substitution(&mut self, pwl: Option<PwlFunction>) {
        self.compiled = pwl.as_ref().map(Engines::new);
        self.pwl = pwl;
    }

    /// Whether a PWL override is active.
    pub fn is_substituted(&self) -> bool {
        self.pwl.is_some()
    }

    /// Inference forward in either precision. With a substitution
    /// installed the tensor batch-evaluates through the engine of its
    /// precision — in f32 the input, tables and output are all f32 (the
    /// eight-wide kernels), bit-identical to
    /// [`CompiledPwlF32::eval_batch`] on the flat data. Without one the
    /// exact activation runs per element in f64 and rounds once on the
    /// way out. [`Layer::forward`] with `train == false` is this call.
    ///
    /// Nothing is cached, so `&self` suffices.
    pub fn infer<T: Element>(&self, x: &Tensor<T>) -> Tensor<T> {
        match &self.compiled {
            Some(engines) => {
                let mut y = Tensor::zeros(x.shape().to_vec());
                engines.get::<T>().eval_into(x.data(), y.data_mut());
                y
            }
            None => x.map(|v| T::from_f64(self.act.eval(v.to_f64()))),
        }
    }
}

impl Layer for ActivationLayer {
    fn name(&self) -> &'static str {
        "activation"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_x = Some(x.clone());
            // Training never sees the approximation.
            return x.map(|v| self.act.eval(v));
        }
        self.infer(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.as_ref().expect("forward(train) first");
        let mut g = grad_out.clone();
        for (gv, &xv) in g.data_mut().iter_mut().zip(x.data()) {
            *gv *= self.act.derivative(xv);
        }
        g
    }

    fn as_activation_mut(&mut self) -> Option<&mut ActivationLayer> {
        Some(self)
    }
}

/// 2-D convolution, stride 1, valid padding, NCHW layout.
#[derive(Debug)]
pub struct Conv2d {
    weight: Tensor, // (out_c, in_c, k, k)
    bias: Tensor,   // (out_c)
    grad_w: Tensor,
    grad_b: Tensor,
    cached_x: Option<Tensor>,
    k: usize,
}

impl Conv2d {
    /// Creates a `k × k` convolution from `in_c` to `out_c` channels.
    pub fn new(in_c: usize, out_c: usize, k: usize, rng: &mut impl FnMut() -> f64) -> Self {
        let fan_in = in_c * k * k;
        let scale = (2.0 / fan_in as f64).sqrt();
        let data: Vec<f64> = (0..out_c * in_c * k * k).map(|_| rng() * scale).collect();
        Self {
            weight: Tensor::from_vec(data, vec![out_c, in_c, k, k]),
            bias: Tensor::zeros(vec![out_c]),
            grad_w: Tensor::zeros(vec![out_c, in_c, k, k]),
            grad_b: Tensor::zeros(vec![out_c]),
            cached_x: None,
            k,
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let [b, cin, h, w] = x.shape() else {
            panic!("conv2d expects NCHW input, got {:?}", x.shape())
        };
        let (b, cin, h, w) = (*b, *cin, *h, *w);
        let cout = self.weight.shape()[0];
        let k = self.k;
        assert_eq!(cin, self.weight.shape()[1], "channel mismatch");
        assert!(h >= k && w >= k, "input smaller than kernel");
        let (oh, ow) = (h - k + 1, w - k + 1);
        let mut y = Tensor::zeros(vec![b, cout, oh, ow]);
        let xd = x.data();
        let wd = self.weight.data();
        let yd = y.data_mut();
        for n in 0..b {
            for co in 0..cout {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = self.bias.data()[co];
                        for ci in 0..cin {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let xv = xd[((n * cin + ci) * h + oy + ky) * w + ox + kx];
                                    let wv = wd[((co * cin + ci) * k + ky) * k + kx];
                                    acc += xv * wv;
                                }
                            }
                        }
                        yd[((n * cout + co) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        if train {
            self.cached_x = Some(x.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_x.as_ref().expect("forward(train) first");
        let [b, cin, h, w] = x.shape() else {
            unreachable!()
        };
        let (b, cin, h, w) = (*b, *cin, *h, *w);
        let cout = self.weight.shape()[0];
        let k = self.k;
        let (oh, ow) = (h - k + 1, w - k + 1);
        let mut gx = Tensor::zeros(vec![b, cin, h, w]);
        let xd = x.data();
        let god = grad_out.data();
        let wd = self.weight.data();
        {
            let gwd = self.grad_w.data_mut();
            let gbd = self.grad_b.data_mut();
            let gxd = gx.data_mut();
            for n in 0..b {
                for co in 0..cout {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let g = god[((n * cout + co) * oh + oy) * ow + ox];
                            if g == 0.0 {
                                continue;
                            }
                            gbd[co] += g;
                            for ci in 0..cin {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        let xi = ((n * cin + ci) * h + oy + ky) * w + ox + kx;
                                        let wi = ((co * cin + ci) * k + ky) * k + kx;
                                        gwd[wi] += g * xd[xi];
                                        gxd[xi] += g * wd[wi];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        gx
    }

    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.weight, &mut self.grad_w),
            (&mut self.bias, &mut self.grad_b),
        ]
    }
}

/// 2×2 max pooling with stride 2 (NCHW).
#[derive(Debug, Default)]
pub struct MaxPool2 {
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2 {
    /// Creates a pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for MaxPool2 {
    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let [b, c, h, w] = x.shape() else {
            panic!("maxpool expects NCHW input, got {:?}", x.shape())
        };
        let (b, c, h, w) = (*b, *c, *h, *w);
        assert!(h % 2 == 0 && w % 2 == 0, "maxpool needs even spatial dims");
        let (oh, ow) = (h / 2, w / 2);
        let mut y = Tensor::zeros(vec![b, c, oh, ow]);
        let mut argmax = vec![0usize; b * c * oh * ow];
        let xd = x.data();
        let yd = y.data_mut();
        for n in 0..b {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f64::NEG_INFINITY;
                        let mut best_i = 0;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let i = ((n * c + ch) * h + 2 * oy + dy) * w + 2 * ox + dx;
                                if xd[i] > best {
                                    best = xd[i];
                                    best_i = i;
                                }
                            }
                        }
                        let o = ((n * c + ch) * oh + oy) * ow + ox;
                        yd[o] = best;
                        argmax[o] = best_i;
                    }
                }
            }
        }
        if train {
            self.argmax = argmax;
            self.in_shape = vec![b, c, h, w];
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "forward(train) first");
        let mut gx = Tensor::zeros(self.in_shape.clone());
        for (o, &i) in self.argmax.iter().enumerate() {
            gx.data_mut()[i] += grad_out.data()[o];
        }
        gx
    }
}

/// Flattens NCHW to (batch, features).
#[derive(Debug, Default)]
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let b = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        if train {
            self.in_shape = x.shape().to_vec();
        }
        x.clone().reshape(vec![b, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "forward(train) first");
        grad_out.clone().reshape(self.in_shape.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorF32;
    use flexsfu_core::init::uniform_pwl;
    use flexsfu_funcs::{by_name, Relu, Silu};

    fn seeded_rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            // xorshift + Box-Muller-free: uniform in [-1, 1].
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    #[test]
    fn dense_forward_known_values() {
        let mut rng = seeded_rng(1);
        let mut d = Dense::new(2, 2, &mut rng);
        // Overwrite with known weights.
        d.weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        d.bias = Tensor::from_vec(vec![0.5, -0.5], vec![2]);
        let x = Tensor::from_vec(vec![1.0, 1.0], vec![1, 2]);
        let y = d.forward(&x, false);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    /// Numeric gradient check of the whole dense layer.
    #[test]
    fn dense_backward_matches_finite_differences() {
        let mut rng = seeded_rng(7);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7], vec![2, 3]);
        // Scalar objective: sum of outputs squared / 2 → grad_out = y.
        let y = d.forward(&x, true);
        let gx = d.backward(&y);
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fp: f64 = d
                .forward(&xp, false)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let fm: f64 = d
                .forward(&xm, false)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - gx.data()[i]).abs() < 1e-4,
                "input grad {i}: fd {fd} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn activation_layer_substitution_changes_inference_only() {
        let mut layer = ActivationLayer::new(by_name("silu").unwrap());
        let x = Tensor::from_vec(vec![-2.0, 0.0, 2.0], vec![1, 3]);
        let exact = layer.forward(&x, false);
        let pwl = uniform_pwl(&Silu, 33, (-8.0, 8.0));
        layer.set_substitution(Some(pwl.clone()));
        assert!(layer.is_substituted());
        let approx = layer.forward(&x, false);
        for (a, (e, &xv)) in approx.data().iter().zip(exact.data().iter().zip(x.data())) {
            assert!((a - pwl.eval(xv)).abs() < 1e-12);
            assert!((a - e).abs() < 0.05);
        }
        // Training path ignores the substitution.
        let train_out = layer.forward(&x, true);
        assert_eq!(train_out, exact);
    }

    #[test]
    fn forward_f32_is_bit_identical_to_the_f32_engine() {
        let mut layer = ActivationLayer::new(by_name("silu").unwrap());
        let pwl = uniform_pwl(&Silu, 33, (-8.0, 8.0));
        layer.set_substitution(Some(pwl.clone()));
        let engine = CompiledPwlF32::from_compiled(&pwl.compile());
        let x = TensorF32::from_vec(
            (0..257).map(|i| i as f32 * 0.05 - 6.0).collect(),
            vec![1, 257],
        );
        let y = layer.infer(&x);
        assert_eq!(y.shape(), x.shape());
        let want = engine.eval_batch(x.data());
        for (a, b) in y.data().iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And it tracks the f64 substituted path closely.
        let y64 = layer.forward(&x.cast(), false);
        for (a, b) in y.data().iter().zip(y64.data()) {
            assert!((f64::from(*a) - b).abs() < 1e-5);
        }
    }

    #[test]
    fn forward_f32_without_substitution_rounds_the_exact_activation() {
        let layer = ActivationLayer::new(by_name("silu").unwrap());
        let x = TensorF32::from_vec(vec![-2.0, 0.0, 2.0], vec![1, 3]);
        let y = layer.infer(&x);
        for (a, &xv) in y.data().iter().zip(x.data()) {
            assert_eq!(*a, Silu.eval(f64::from(xv)) as f32);
        }
    }

    #[test]
    fn relu_activation_backward_masks_negatives() {
        let mut layer = ActivationLayer::new(Box::new(Relu));
        let x = Tensor::from_vec(vec![-1.0, 2.0], vec![1, 2]);
        let _ = layer.forward(&x, true);
        let g = layer.backward(&Tensor::from_vec(vec![1.0, 1.0], vec![1, 2]));
        assert_eq!(g.data(), &[0.0, 1.0]);
    }

    #[test]
    fn conv_shapes_and_simple_kernel() {
        let mut rng = seeded_rng(3);
        let mut conv = Conv2d::new(1, 1, 3, &mut rng);
        // Identity-ish kernel: only the center weight is 1.
        conv.weight = Tensor::from_vec(
            vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            vec![1, 1, 3, 3],
        );
        conv.bias = Tensor::zeros(vec![1]);
        let x = Tensor::from_vec((0..16).map(|i| i as f64).collect(), vec![1, 1, 4, 4]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // Centers of each 3x3 window of a 4x4 image: elements (1,1)..(2,2).
        assert_eq!(y.data(), &[5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn conv_backward_matches_finite_differences() {
        let mut rng = seeded_rng(5);
        let mut conv = Conv2d::new(1, 2, 2, &mut rng);
        let x = Tensor::from_vec(
            (0..9).map(|i| (i as f64 - 4.0) * 0.3).collect(),
            vec![1, 1, 3, 3],
        );
        let y = conv.forward(&x, true);
        let gx = conv.backward(&y);
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fp: f64 = conv
                .forward(&xp, false)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let fm: f64 = conv
                .forward(&xm, false)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let fd = (fp - fm) / (2.0 * h);
            assert!((fd - gx.data()[i]).abs() < 1e-4, "at {i}");
        }
    }

    #[test]
    fn maxpool_forward_backward() {
        let mut pool = MaxPool2::new();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            vec![1, 1, 4, 4],
        );
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let g = pool.backward(&Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0],
            vec![1, 1, 2, 2],
        ));
        // Gradient lands only on the max positions.
        assert_eq!(g.data()[5], 1.0);
        assert_eq!(g.data()[7], 2.0);
        assert_eq!(g.data()[13], 3.0);
        assert_eq!(g.data()[15], 4.0);
        assert_eq!(g.data().iter().filter(|&&v| v != 0.0).count(), 4);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4, 4]);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), x.shape());
    }
}
