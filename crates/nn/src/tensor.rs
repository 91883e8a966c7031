//! A small flat-storage tensor with the operations the substrate needs.

use flexsfu_core::Element;

/// An n-dimensional array stored row-major in a flat `Vec<T>`, in either
/// engine precision: `f64` (the default, and the only precision
/// training runs in) or `f32` ([`TensorF32`]), the inference fast
/// path's container — a tensor born f32 flows through every layer's
/// `infer` (and the serving adapter's f32 lane) without ever widening
/// to f64.
///
/// # Examples
///
/// ```
/// use flexsfu_nn::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), a.data());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T: Element = f64> {
    shape: Vec<usize>,
    data: Vec<T>,
}

/// The single-precision [`Tensor`].
///
/// # Examples
///
/// ```
/// use flexsfu_nn::{Tensor, TensorF32};
///
/// let a = TensorF32::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
/// assert_eq!(a.transpose().at2(0, 1), 3.0);
/// // Widening to f64 is exact; rounding back recovers the tensor.
/// let wide: Tensor = a.cast();
/// assert_eq!(wide.cast::<f32>(), a);
/// ```
pub type TensorF32 = Tensor<f32>;

impl<T: Element> Tensor<T> {
    /// A zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: Vec<usize>) -> Self {
        assert!(!shape.is_empty(), "shape must have at least one dimension");
        assert!(shape.iter().all(|&d| d > 0), "zero-sized dimension");
        let n = shape.iter().product();
        Self {
            shape,
            data: vec![T::default(); n],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_vec(data: Vec<T>, shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "data length does not match shape");
        Self { shape, data }
    }

    /// The same tensor in precision `U`: each element rounds once to
    /// the nearest `U` (widening to f64 is exact) — the boundary
    /// crossing between an f64 caller and an f32 pipeline, and back.
    pub fn cast<U: Element>(&self) -> Tensor<U> {
        self.map(|v| U::from_f64(v.to_f64()))
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat data.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the flat data.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Reshapes in place (volume must match).
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different volume.
    pub fn reshape(mut self, shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape changes volume");
        self.shape = shape;
        self
    }

    /// 2-D element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or indices are out of range.
    pub fn at2(&self, r: usize, c: usize) -> T {
        assert_eq!(self.shape.len(), 2, "at2 needs a 2-D tensor");
        assert!(r < self.shape[0] && c < self.shape[1], "index out of range");
        self.data[r * self.shape[1] + c]
    }

    /// Matrix multiplication of two 2-D tensors, accumulated in `T`.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `(m, k)` and `rhs` is `(k, n)`.
    pub fn matmul(&self, rhs: &Self) -> Self {
        assert_eq!(self.shape.len(), 2, "lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "inner dimensions must agree ({k} vs {k2})");
        let mut out = Self::zeros(vec![m, n]);
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == T::default() {
                    continue;
                }
                let row = &rhs.data[p * n..(p + 1) * n];
                let dst = &mut out.data[i * n..(i + 1) * n];
                for (d, &b) in dst.iter_mut().zip(row) {
                    *d = *d + a * b;
                }
            }
        }
        out
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Self {
        assert_eq!(self.shape.len(), 2, "transpose needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Self::zeros(vec![n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Element-wise map into a new tensor (of any precision).
    pub fn map<U: Element>(&self, f: impl Fn(T) -> U) -> Tensor<U> {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

impl Tensor {
    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "shape mismatch in add");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// In-place scaled accumulation `self += alpha * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], vec![3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec((0..12).map(|i| i as f64).collect(), vec![3, 4]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at2(2, 1), a.at2(1, 2));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], vec![2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn map_add_axpy() {
        let a = Tensor::from_vec(vec![1.0, 2.0], vec![2]);
        let b = a.map(|x| x * x);
        assert_eq!(b.data(), &[1.0, 4.0]);
        let mut c = a.add(&b);
        assert_eq!(c.data(), &[2.0, 6.0]);
        c.axpy(-1.0, &b);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|i| i as f64).collect(), vec![2, 3]);
        let b = a.clone().reshape(vec![3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a: Tensor = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn bad_from_vec_panics() {
        Tensor::from_vec(vec![0.0; 5], vec![2, 3]);
    }

    #[test]
    fn f32_matmul_and_transpose_match_f64_for_exact_values() {
        // Small integer values are exact in both precisions, so the two
        // tensor types must agree bit-for-bit after widening.
        let a64 = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let b64 = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], vec![3, 2]);
        let a32: TensorF32 = a64.cast();
        let b32: TensorF32 = b64.cast();
        let c32 = a32.matmul(&b32);
        assert_eq!(c32.cast::<f64>(), a64.matmul(&b64));
        assert_eq!(a32.transpose().cast::<f64>(), a64.transpose());
        assert_eq!(a32.transpose().at2(2, 1), 6.0);
    }

    #[test]
    fn f32_roundtrip_and_map() {
        let t = TensorF32::from_vec(vec![1.5, -2.25], vec![2]);
        assert_eq!(t.cast::<f64>().cast::<f32>(), t);
        assert_eq!(t.map(|x| x * 2.0).data(), &[3.0, -4.5]);
        let r = t.clone().reshape(vec![1, 2]);
        assert_eq!(r.shape(), &[1, 2]);
        assert_eq!(r.data(), t.data());
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn f32_mismatched_matmul_panics() {
        TensorF32::zeros(vec![2, 3]).matmul(&TensorF32::zeros(vec![2, 3]));
    }
}
