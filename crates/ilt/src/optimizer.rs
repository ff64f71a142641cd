//! First-order optimizers over flat parameter vectors.
//!
//! Both the pixel-level engines (latent mask pixels) and the circle-level
//! optimizer (the `(xᵢ, yᵢ, rᵢ, qᵢ)` tuples) descend hand-computed
//! gradients; this module supplies plain SGD and Adam. The update's
//! arithmetic is [`Descent::update`] in `cfaopc-fft`, next to the fused
//! pixel-ILT pass that runs it four pixels at a time.

use cfaopc_fft::simd::{AdamStep, Descent};

/// Optimizer choice and hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Vanilla gradient descent `p ← p − lr · g`.
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// Adam (Kingma & Ba) with bias correction.
    Adam {
        /// Learning rate.
        lr: f64,
        /// First-moment decay (default 0.9).
        beta1: f64,
        /// Second-moment decay (default 0.999).
        beta2: f64,
        /// Denominator fuzz (default 1e-8).
        eps: f64,
    },
}

impl OptimizerKind {
    /// Adam with the standard moment decays at learning rate `lr`.
    pub fn adam(lr: f64) -> Self {
        OptimizerKind::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Plain SGD at learning rate `lr`.
    pub fn sgd(lr: f64) -> Self {
        OptimizerKind::Sgd { lr }
    }
}

/// Stateful optimizer over a parameter vector of fixed length.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimizerKind,
    len: usize,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Optimizer {
    /// Creates an optimizer for `len` parameters.
    pub fn new(kind: OptimizerKind, len: usize) -> Self {
        let state = matches!(kind, OptimizerKind::Adam { .. });
        Optimizer {
            kind,
            len,
            m: if state { vec![0.0; len] } else { Vec::new() },
            v: if state { vec![0.0; len] } else { Vec::new() },
            t: 0,
        }
    }

    /// Number of parameters this optimizer was built for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when built for zero parameters.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Applies one descent step in place: [`Descent::update`] on every
    /// parameter.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`, or (for Adam) differs from
    /// the length given at construction.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if matches!(self.kind, OptimizerKind::Adam { .. }) {
            assert_eq!(params.len(), self.len, "Adam state length mismatch");
        }
        let mut descent = self.descent();
        for (i, (p, &g)) in params.iter_mut().zip(grads).enumerate() {
            *p = descent.update(i, *p, g);
        }
    }

    /// Counts one step and hands out its [`Descent`]: the coefficients,
    /// Adam's bias corrections for this step and its moment state, for a
    /// caller that applies the update itself (the fused pixel-ILT pass,
    /// `cfaopc_fft::simd::pixel_ilt_step`). [`Optimizer::step`] is this
    /// plus the update of every parameter.
    pub fn descent(&mut self) -> Descent<'_> {
        match self.kind {
            OptimizerKind::Sgd { lr } => Descent::Sgd { lr },
            OptimizerKind::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                self.t += 1;
                Descent::Adam(AdamStep {
                    lr,
                    beta1,
                    beta2,
                    eps,
                    bc1: 1.0 - beta1.powi(self.t as i32),
                    bc2: 1.0 - beta2.powi(self.t as i32),
                    m: &mut self.m,
                    v: &mut self.v,
                })
            }
        }
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
    fn sgd_converges_on_quadratic() {
        let mut p = vec![10.0; 4];
        let mut opt = Optimizer::new(OptimizerKind::sgd(0.25), p.len());
        for _ in 0..100 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        for (i, v) in p.iter().enumerate() {
            assert!((v - i as f64).abs() < 1e-6, "p[{i}] = {v}");
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = vec![-5.0; 4];
        let mut opt = Optimizer::new(OptimizerKind::adam(0.3), p.len());
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
        let mut opt = Optimizer::new(OptimizerKind::adam(0.1), 1);
        opt.step(&mut p, &[123.0]);
        assert!((p[0] + 0.1).abs() < 1e-6, "step was {}", p[0]);
    }

    #[test]
    fn zero_gradient_is_a_fixed_point() {
        let mut p = vec![1.0, 2.0];
        let mut opt = Optimizer::new(OptimizerKind::adam(0.5), 2);
        opt.step(&mut p, &[0.0, 0.0]);
        assert_eq!(p, vec![1.0, 2.0]);
    }

    #[test]
    fn len_is_the_construction_length_for_both_kinds() {
        for kind in [OptimizerKind::sgd(0.1), OptimizerKind::adam(0.1)] {
            let opt = Optimizer::new(kind, 7);
            assert_eq!(opt.len(), 7, "{kind:?}");
            assert!(!opt.is_empty(), "{kind:?}");
            let empty = Optimizer::new(kind, 0);
            assert_eq!(empty.len(), 0, "{kind:?}");
            assert!(empty.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn step_is_the_descent_update_in_order() {
        // `step` counts Adam's steps: its second step's bias corrections
        // are those of t = 2.
        let g = [0.3, -1.2, 0.0];
        let mut p = vec![1.0, -2.0, 0.5];
        let mut opt = Optimizer::new(OptimizerKind::adam(0.2), 3);
        opt.step(&mut p, &g);
        opt.step(&mut p, &g);
        let mut q = vec![1.0, -2.0, 0.5];
        let (mut m, mut v) = (vec![0.0; 3], vec![0.0; 3]);
        for t in 1..=2 {
            let mut d = Descent::Adam(AdamStep {
                lr: 0.2,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                bc1: 1.0 - 0.9f64.powi(t),
                bc2: 1.0 - 0.999f64.powi(t),
                m: &mut m,
                v: &mut v,
            });
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
        let mut opt = Optimizer::new(OptimizerKind::sgd(0.1), 3);
        opt.step(&mut p, &[1.0]);
    }
}
