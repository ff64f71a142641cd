//! Adam over flat parameter vectors.
//!
//! Both the pixel-level engines (latent mask pixels) and the circle-level
//! optimizer (the `(xᵢ, yᵢ, rᵢ, qᵢ)` tuples) descend hand-computed
//! gradients with Adam (Kingma & Ba, bias-corrected) at the standard
//! moment decays `β₁ = 0.9`, `β₂ = 0.999` and `ε = 1e-8`. The update's
//! arithmetic is [`AdamStep::update`] in `cfaopc-fft`, next to the fused
//! pixel-ILT pass that runs it four pixels at a time.

use cfaopc_fft::simd::AdamStep;

/// Adam's state over a parameter vector of fixed length.
#[derive(Debug, Clone)]
pub struct Optimizer {
    lr: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: i32,
}

impl Optimizer {
    /// Adam at learning rate `lr` for `len` parameters.
    pub fn new(lr: f64, len: usize) -> Self {
        Optimizer {
            lr,
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    /// Number of parameters this optimizer was built for.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// `true` when built for zero parameters.
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }

    /// Applies one Adam step in place: [`AdamStep::update`] on every
    /// parameter.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`, or differs from the
    /// length given at construction.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        assert_eq!(params.len(), self.len(), "Adam state length mismatch");
        let mut adam = self.descent();
        for (i, (p, &g)) in params.iter_mut().zip(grads).enumerate() {
            *p = adam.update(i, *p, g);
        }
    }

    /// Counts one step and hands out its [`AdamStep`]: the learning rate,
    /// the bias corrections for this step and the moment state, for a
    /// caller that applies the update itself (the fused pixel-ILT pass,
    /// `cfaopc_fft::simd::pixel_ilt_step`). [`Optimizer::step`] is this
    /// plus the update of every parameter.
    pub fn descent(&mut self) -> AdamStep<'_> {
        self.t += 1;
        AdamStep::new(self.lr, self.t, &mut self.m, &mut self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &[f64]) -> Vec<f64> {
        // f(p) = Σ (p_i - i)², minimum at p_i = i.
        p.iter()
            .enumerate()
            .map(|(i, &v)| 2.0 * (v - i as f64))
            .collect()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = vec![-5.0; 4];
        let mut opt = Optimizer::new(0.3, p.len());
        for _ in 0..400 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        for (i, v) in p.iter().enumerate() {
            assert!((v - i as f64).abs() < 1e-2, "p[{i}] = {v}");
        }
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, the very first Adam step is ±lr.
        let mut p = vec![0.0];
        let mut opt = Optimizer::new(0.1, 1);
        opt.step(&mut p, &[123.0]);
        assert!((p[0] + 0.1).abs() < 1e-6, "step was {}", p[0]);
    }

    #[test]
    fn zero_gradient_is_a_fixed_point() {
        let mut p = vec![1.0, 2.0];
        let mut opt = Optimizer::new(0.5, 2);
        opt.step(&mut p, &[0.0, 0.0]);
        assert_eq!(p, vec![1.0, 2.0]);
    }

    #[test]
    fn len_is_the_construction_length() {
        let opt = Optimizer::new(0.1, 7);
        assert_eq!(opt.len(), 7);
        assert!(!opt.is_empty());
        let empty = Optimizer::new(0.1, 0);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn step_is_the_descent_update_in_order() {
        // `step` counts Adam's steps: its second step's bias corrections
        // are those of t = 2.
        let g = [0.3, -1.2, 0.0];
        let mut p = vec![1.0, -2.0, 0.5];
        let mut opt = Optimizer::new(0.2, 3);
        opt.step(&mut p, &g);
        opt.step(&mut p, &g);
        let mut q = vec![1.0, -2.0, 0.5];
        let (mut m, mut v) = (vec![0.0; 3], vec![0.0; 3]);
        for t in 1..=2 {
            let mut d = AdamStep {
                lr: 0.2,
                bc1: 1.0 - 0.9f64.powi(t),
                bc2: 1.0 - 0.999f64.powi(t),
                m: &mut m,
                v: &mut v,
            };
            for (i, q) in q.iter_mut().enumerate() {
                *q = d.update(i, *q, g[i]);
            }
        }
        assert_eq!(p, q);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut p = vec![0.0; 3];
        let mut opt = Optimizer::new(0.1, 3);
        opt.step(&mut p, &[1.0]);
    }
}
