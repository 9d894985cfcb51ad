//! Scalar activations and small vector helpers.

/// Non-linearity applied after a fully-connected layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Identity (no activation) — used on final CTR logits before the
    /// sigmoid head.
    #[default]
    None,
    /// Rectified linear unit, the default for hidden FC layers.
    Relu,
    /// Logistic sigmoid — CTR output heads and GRU gates.
    Sigmoid,
    /// Hyperbolic tangent — GRU candidate state.
    Tanh,
}

impl Activation {
    /// Applies the activation to one scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Applies the activation to a slice in place.
    pub fn apply_slice(self, xs: &mut [f32]) {
        if self == Activation::None {
            return;
        }
        for x in xs {
            *x = self.apply(*x);
        }
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
///
/// # Examples
///
/// ```
/// assert_eq!(drs_tensor::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `acc += scale * src`, the axpy primitive behind attention-weighted
/// sums.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn add_scaled(acc: &mut [f32], src: &[f32], scale: f32) {
    assert_eq!(acc.len(), src.len(), "add_scaled length mismatch");
    for (a, s) in acc.iter_mut().zip(src) {
        *a += scale * s;
    }
}

/// Numerically-stable in-place softmax (subtracts the max before
/// exponentiation). Used to normalize attention scores.
///
/// An empty slice is left untouched.
///
/// # Examples
///
/// ```
/// let mut v = [1.0f32, 1.0, 1.0];
/// drs_tensor::softmax_in_place(&mut v);
/// assert!((v[0] - 1.0 / 3.0).abs() < 1e-6);
/// ```
pub fn softmax_in_place(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activations_pointwise() {
        assert_eq!(Activation::None.apply(-2.0), -2.0);
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-7);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-7);
    }

    #[test]
    fn sigmoid_bounded() {
        for x in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            let y = Activation::Sigmoid.apply(x);
            assert!((0.0..=1.0).contains(&y), "sigmoid({x}) = {y}");
        }
    }

    #[test]
    fn apply_slice_none_is_noop() {
        let mut v = [1.0, -2.0];
        Activation::None.apply_slice(&mut v);
        assert_eq!(v, [1.0, -2.0]);
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0, 3.0], &[4.0, 5.0]), 23.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut acc = vec![1.0, 1.0];
        add_scaled(&mut acc, &[2.0, 3.0], 0.5);
        assert_eq!(acc, vec![2.0, 2.5]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut v = [3.0f32, 1.0, 0.2];
        softmax_in_place(&mut v);
        let s: f32 = v.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(v[0] > v[1] && v[1] > v[2]);
    }

    #[test]
    fn softmax_handles_extremes() {
        let mut v = [1000.0f32, -1000.0];
        softmax_in_place(&mut v);
        assert!((v[0] - 1.0).abs() < 1e-6);
        assert!(v[1].abs() < 1e-6);
        let mut empty: [f32; 0] = [];
        softmax_in_place(&mut empty); // must not panic
    }
}
