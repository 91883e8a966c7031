//! # flexsfu-nn
//!
//! A minimal-but-real DNN substrate for the paper's end-to-end accuracy
//! experiment (Table III).
//!
//! The paper replaces every activation in 600+ pretrained TIMM models with
//! its Flex-SFU PWL approximation and measures the ImageNet top-1 drop.
//! We do not have those models or ImageNet, so — per the substitution rule
//! — we train small networks from scratch on synthetic classification
//! tasks and run the *same* substitution protocol: train with exact
//! activations, swap in a [`PwlFunction`](flexsfu_core::PwlFunction) at
//! inference, compare top-1 accuracies. Every forward pass goes through
//! the real PWL evaluation code.
//!
//! Provided pieces:
//!
//! * [`Tensor`] — a flat-storage n-d array with the few ops DNNs need,
//!   generic over the engine precision; [`TensorF32`] (`Tensor<f32>`)
//!   is the inference fast path's container. Each inference layer
//!   (activation, attention, serving) has one `infer` body for both
//!   precisions, which its f64 `forward(x, false)` runs too, so a
//!   request born f32 stays f32 end to end,
//! * [`layers`] — `Dense`, `Conv2d`, `MaxPool2`, `Flatten` and
//!   [`layers::ActivationLayer`] with full backprop,
//! * [`serving`] — [`serving::AsyncActivationLayer`], the same
//!   substitution protocol but with inference routed through a shared
//!   `flexsfu-serve` batching server instead of a layer-owned engine
//!   (cargo feature `serving`, on by default),
//! * [`Sequential`] — model container with forward/backward and
//!   activation substitution,
//! * [`stats`] — activation-input statistics: probe-instrumented
//!   forward passes that measure what each nonlinearity (GELU
//!   pre-activations, softmax `exp` logits, layer-norm `rsqrt`
//!   arguments) actually sees, as fixed-bucket histograms the traffic
//!   simulator's empirical samplers invert,
//! * [`train`] — SGD-with-momentum training on softmax cross-entropy,
//! * [`data`] — seeded synthetic datasets (Gaussian blobs, spirals,
//!   pattern images),
//! * [`zoo`] — small model builders (MLPs, a CNN, a mixer-style block)
//!   covering the activation functions in the paper's Table III.
//!
//! # Examples
//!
//! ```no_run
//! use flexsfu_nn::{data, train, zoo};
//!
//! let ds = data::gaussian_blobs(4, 16, 200, 42);
//! let mut model = zoo::mlp(16, &[32, 32], 4, "silu", 7);
//! let cfg = train::TrainConfig::default();
//! train::train(&mut model, &ds, &cfg);
//! let acc = train::accuracy(&mut model, &ds);
//! assert!(acc > 0.5);
//! ```

pub mod attention;
pub mod data;
pub mod layers;
pub mod model;
#[cfg(feature = "serving")]
pub mod serving;
pub mod stats;
pub mod tensor;
pub mod train;
pub mod zoo;

pub use model::Sequential;
pub use stats::{collect_activation_stats, ActivationStats, ModelActivationStats};
pub use tensor::{Tensor, TensorF32};
