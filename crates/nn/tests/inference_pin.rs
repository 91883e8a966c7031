//! Pins the exact output bits of inference in both precisions.
//!
//! The tolerance tests elsewhere (`forward_f32_tracks_the_f64_forward`
//! and friends) would let an inference body drift by an ULP without
//! noticing. These tests hash `to_bits` of every output element over
//! seeded inputs, for the local activation layer (exact and
//! substituted), self-attention (exact and PWL `exp`) and the serving
//! adapter, so any change to the arithmetic of a forward pass — its
//! operations, their order or their precision — fails here.

use flexsfu_core::init::uniform_pwl;
use flexsfu_funcs::{by_name, Exp, Silu};
use flexsfu_nn::attention::SelfAttention;
use flexsfu_nn::layers::{ActivationLayer, Layer};
use flexsfu_nn::{Tensor, TensorF32};

/// FNV-1a over the shape and the element bit patterns.
fn fnv(shape: &[usize], bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in shape.iter().map(|&d| d as u64).chain(bits) {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn hash64(t: &Tensor) -> u64 {
    fnv(t.shape(), t.data().iter().map(|v| v.to_bits()))
}

fn hash32(t: &TensorF32) -> u64 {
    fnv(t.shape(), t.data().iter().map(|v| u64::from(v.to_bits())))
}

/// Seeded xorshift values in `[-scale, scale)`.
fn seeded(seed: u64, n: usize, scale: f64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
        })
        .collect()
}

/// The same input in both precisions: f64 as drawn, f32 rounded once.
fn inputs(seed: u64, rows: usize, cols: usize, scale: f64) -> (Tensor, TensorF32) {
    let xs = seeded(seed, rows * cols, scale);
    let x32 = xs.iter().map(|&v| v as f32).collect();
    (
        Tensor::from_vec(xs, vec![rows, cols]),
        TensorF32::from_vec(x32, vec![rows, cols]),
    )
}

/// Activation inputs: seeded values over and past the table range,
/// plus both zeros.
fn activation_inputs() -> (Tensor, TensorF32) {
    let mut xs = seeded(41, 254, 10.0);
    xs.extend([0.0, -0.0]);
    let x32 = xs.iter().map(|&v| v as f32).collect();
    (
        Tensor::from_vec(xs, vec![2, 128]),
        TensorF32::from_vec(x32, vec![2, 128]),
    )
}

#[test]
fn activation_layer_inference_bits_are_pinned() {
    let (x, x32) = activation_inputs();
    let mut layer = ActivationLayer::new(by_name("silu").unwrap());
    let exact = (
        hash64(&layer.forward(&x, false)),
        hash32(&layer.infer(&x32)),
    );
    layer.set_substitution(Some(uniform_pwl(&Silu, 33, (-8.0, 8.0))));
    let pwl = (
        hash64(&layer.forward(&x, false)),
        hash32(&layer.infer(&x32)),
    );
    assert_eq!(
        [exact, pwl],
        [
            (0x50d1_8baf_1864_6b12, 0x6417_4d1d_728d_53f3),
            (0x4eaa_852f_87d4_fac1, 0x7538_4724_ec76_ce61),
        ]
    );
}

#[test]
fn self_attention_inference_bits_are_pinned() {
    let mut w = seeded(7, 3 * 6 * 6, 1.0).into_iter();
    let mut rng = move || w.next().expect("enough weights");
    let mut attn = SelfAttention::new(4, 6, &mut rng);
    let (x, x32) = inputs(19, 3, 24, 2.0);
    let exact = (hash64(&attn.forward(&x, false)), hash32(&attn.infer(&x32)));
    attn.set_exp_substitution(Some(uniform_pwl(&Exp, 32, (-10.0, 0.1))));
    let pwl = (hash64(&attn.forward(&x, false)), hash32(&attn.infer(&x32)));
    assert_eq!(
        [exact, pwl],
        [
            (0xa6ef_af00_cb9e_40e8, 0x9e68_4801_1cb2_a0fa),
            (0x1cf2_39da_0436_21db, 0x9075_da49_a629_54b0),
        ]
    );
}

#[cfg(feature = "serving")]
#[test]
fn serving_adapter_inference_bits_are_pinned() {
    use flexsfu_nn::serving::AsyncActivationLayer;
    use flexsfu_serve::testkit::with_watchdog;
    use flexsfu_serve::{FunctionRegistry, PwlServer, ServeConfig};
    use std::sync::Arc;

    with_watchdog(60, "serving_adapter_inference_bits_are_pinned", || {
        let registry = Arc::new(FunctionRegistry::new());
        let id = registry.register("silu", &uniform_pwl(&Silu, 33, (-8.0, 8.0)));
        let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
        let mut layer = AsyncActivationLayer::new(by_name("silu").unwrap(), server.handle(), id);
        let (x, x32) = activation_inputs();
        let got = (
            hash64(&layer.forward(&x, false)),
            hash32(&layer.infer(&x32)),
        );
        server.shutdown();
        assert_eq!(got, (0x4eaa_852f_87d4_fac1, 0x7538_4724_ec76_ce61));
    });
}
