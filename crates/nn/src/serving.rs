//! The serving adapter: an activation layer whose inference-time
//! evaluation goes through a shared [`ServeHandle`] instead of a
//! layer-owned engine.
//!
//! [`crate::layers::ActivationLayer`] compiles its substituted PWL
//! privately — fine for one model, wasteful for a fleet: every replica
//! holds its own tables and evaluates its own (small) tensors alone.
//! [`AsyncActivationLayer`] instead submits the whole pre-activation
//! tensor as one job to a `flexsfu-serve` server, which coalesces jobs
//! across models/requests into engine-scale batches and hot-swaps
//! recompiled tables centrally. Results are bit-identical to the local
//! engine path, so swapping a model between the two adapters never
//! changes its outputs.
//!
//! Training is untouched: like the local layer, the exact activation is
//! used for `train = true` forwards and for backprop — the paper's
//! substitution protocol (approximate at inference only).
//!
//! Because the layer only holds a [`FunctionId`], it inherits whatever
//! **backend** the registry bound to that function: register the PWL
//! with [`flexsfu_serve::FunctionRegistry::register_with_backend`] and
//! inference transparently routes through e.g. the bit-faithful SFU
//! emulator — the model code does not change.

use crate::layers::Layer;
use crate::tensor::Tensor;
use flexsfu_funcs::Activation;
use flexsfu_serve::{FunctionId, Precision, ServeHandle};

/// An activation layer that evaluates through a serving front-end at
/// inference and through the exact function during training.
pub struct AsyncActivationLayer {
    act: Box<dyn Activation>,
    handle: ServeHandle,
    func: FunctionId,
    cached_x: Option<Tensor>,
}

impl std::fmt::Debug for AsyncActivationLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncActivationLayer")
            .field("act", &self.act.name())
            .field("func", &self.func)
            .finish()
    }
}

impl AsyncActivationLayer {
    /// Wraps `act` for training and routes inference through `handle`'s
    /// server as jobs against `func` (which should approximate `act` —
    /// typically its optimized PWL, registered by the caller).
    pub fn new(act: Box<dyn Activation>, handle: ServeHandle, func: FunctionId) -> Self {
        Self {
            act,
            handle,
            func,
            cached_x: None,
        }
    }

    /// The function id inference jobs are submitted against.
    pub fn function_id(&self) -> FunctionId {
        self.func
    }

    /// The wrapped exact activation's name.
    pub fn activation_name(&self) -> &'static str {
        self.act.name()
    }

    /// Inference forward in either precision: the whole tensor goes to
    /// the server as one job in its precision ([`ServeHandle::submit`]),
    /// flows through that precision's flush lane and backend program,
    /// and comes back in it — in f32 bit-identical to evaluating the
    /// flat data directly with the registry's
    /// [`flexsfu_serve::FunctionRegistry::engine_f32`], with no f64
    /// anywhere in the request path. [`Layer::forward`] with
    /// `train == false` is this call.
    ///
    /// Nothing is cached, so `&self` suffices.
    ///
    /// # Panics
    ///
    /// If the server rejects or drops the job (shutdown mid-forward, or
    /// a worker panic) — the layer API has no error channel, and
    /// serving a model through a server being torn down is a deployment
    /// bug worth failing loudly on — or if the function's backend lacks
    /// a lane in `T` ([`flexsfu_serve::ServeError::PrecisionUnsupported`]),
    /// a deployment mismatch.
    pub fn infer<T: Precision>(&self, x: &Tensor<T>) -> Tensor<T> {
        let ticket = self
            .handle
            .submit(self.func, x.data().to_vec())
            .expect("serving submit failed");
        let ys = ticket.wait().expect("serving result dropped");
        Tensor::from_vec(ys, x.shape().to_vec())
    }
}

impl Layer for AsyncActivationLayer {
    fn name(&self) -> &'static str {
        "async_activation"
    }

    /// # Panics
    ///
    /// Inference-mode forwards panic as [`AsyncActivationLayer::infer`].
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorF32;
    use flexsfu_core::init::uniform_pwl;
    use flexsfu_core::{CompiledPwl, PwlEvaluator};
    use flexsfu_funcs::{by_name, Silu};
    use flexsfu_serve::testkit::with_watchdog;
    use flexsfu_serve::{FunctionRegistry, PwlServer, ServeConfig};
    use std::sync::Arc;

    // Server-backed tests run under the shared watchdog so a serving
    // deadlock fails this suite with a diagnostic instead of hanging it.

    #[test]
    fn inference_matches_direct_engine_bit_for_bit() {
        with_watchdog(30, "inference_matches_direct_engine_bit_for_bit", || {
            inference_matches_direct_engine_bit_for_bit_body()
        });
    }

    fn inference_matches_direct_engine_bit_for_bit_body() {
        let pwl = uniform_pwl(&Silu, 33, (-8.0, 8.0));
        let engine = CompiledPwl::from_pwl(&pwl);
        let registry = Arc::new(FunctionRegistry::new());
        let id = registry.register("silu", &pwl);
        let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
        let mut layer = AsyncActivationLayer::new(by_name("silu").unwrap(), server.handle(), id);

        let x = Tensor::from_vec(
            (0..257).map(|i| i as f64 * 0.05 - 6.0).collect(),
            vec![1, 257],
        );
        let y = layer.forward(&x, false);
        assert_eq!(y.shape(), x.shape());
        let want = engine.eval_batch(x.data());
        for (a, b) in y.data().iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        server.shutdown();
    }

    #[test]
    fn inference_routes_through_the_functions_bound_backend() {
        with_watchdog(
            30,
            "inference_routes_through_the_functions_bound_backend",
            inference_routes_through_the_functions_bound_backend_body,
        );
    }

    fn inference_routes_through_the_functions_bound_backend_body() {
        use flexsfu_backend::{BackendProgram, SfuBackend};

        // Bind silu's table to the SFU emulator: the layer's inference
        // outputs must be the emulated datapath's bits, not the native
        // kernels'.
        let pwl = uniform_pwl(&Silu, 15, (-8.0, 8.0));
        let backend = SfuBackend::fp16(16);
        let reference = backend.lower_program(&pwl.compile()).unwrap();
        let registry = Arc::new(FunctionRegistry::new());
        let id = registry
            .register_with_backend("silu", &pwl, Arc::new(backend))
            .unwrap();
        let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
        let mut layer = AsyncActivationLayer::new(by_name("silu").unwrap(), server.handle(), id);

        let x = Tensor::from_vec(
            (0..200).map(|i| i as f64 * 0.06 - 6.0).collect(),
            vec![1, 200],
        );
        let y = layer.forward(&x, false);
        let (want, _) = reference.eval_batch(x.data());
        for (a, b) in y.data().iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And the emulated flushes were accounted.
        let stats = registry.backend_stats(id).unwrap();
        assert!(stats.flushes > 0 && stats.cycles > 0);
        server.shutdown();
    }

    #[test]
    fn f32_inference_matches_the_registrys_f32_engine_bit_for_bit() {
        with_watchdog(
            30,
            "f32_inference_matches_the_registrys_f32_engine_bit_for_bit",
            f32_inference_matches_the_registrys_f32_engine_bit_for_bit_body,
        );
    }

    fn f32_inference_matches_the_registrys_f32_engine_bit_for_bit_body() {
        let pwl = uniform_pwl(&Silu, 33, (-8.0, 8.0));
        let registry = Arc::new(FunctionRegistry::new());
        let id = registry.register("silu", &pwl);
        let engine32 = registry.engine_f32(id).unwrap();
        let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
        let layer = AsyncActivationLayer::new(by_name("silu").unwrap(), server.handle(), id);

        let x = TensorF32::from_vec(
            (0..257).map(|i| i as f32 * 0.05 - 6.0).collect(),
            vec![1, 257],
        );
        let y = layer.infer(&x);
        assert_eq!(y.shape(), x.shape());
        let want = engine32.eval_batch(x.data());
        for (a, b) in y.data().iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        server.shutdown();
    }

    #[test]
    fn training_path_uses_the_exact_activation() {
        with_watchdog(30, "training_path_uses_the_exact_activation", || {
            training_path_uses_the_exact_activation_body()
        });
    }

    fn training_path_uses_the_exact_activation_body() {
        let pwl = uniform_pwl(&Silu, 9, (-8.0, 8.0));
        let registry = Arc::new(FunctionRegistry::new());
        let id = registry.register("silu", &pwl);
        let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
        let mut layer = AsyncActivationLayer::new(by_name("silu").unwrap(), server.handle(), id);

        let x = Tensor::from_vec(vec![-2.0, 0.0, 2.0], vec![1, 3]);
        let train_out = layer.forward(&x, true);
        for (o, &xv) in train_out.data().iter().zip(x.data()) {
            assert_eq!(*o, Silu.eval(xv), "training must be exact");
        }
        // Backward works off the cached training input.
        let g = layer.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], vec![1, 3]));
        for (gv, &xv) in g.data().iter().zip(x.data()) {
            assert!((gv - Silu.derivative(xv)).abs() < 1e-12);
        }
        server.shutdown();
    }
}
