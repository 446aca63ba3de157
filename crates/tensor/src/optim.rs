//! First-order optimisers: plain SGD and Adam.
//!
//! Optimisers address parameters by a caller-chosen `slot` index, so a
//! model registers each weight matrix once and then calls
//! [`Optimizer::step`] with the same slot every iteration; per-slot state
//! (Adam moments) is allocated lazily.

use std::collections::HashMap;

/// A first-order optimiser over flat parameter slices.
pub trait Optimizer {
    /// Applies one update of `grad` to `param` under slot `slot`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `param.len() != grad.len()`; [`Adam`] also
    /// panics if a slot is reused with a different length.
    fn step(&mut self, slot: usize, param: &mut [f32], grad: &[f32]);
}

/// Plain stochastic gradient descent: `param -= lr · grad`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, _slot: usize, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        for (p, &g) in param.iter_mut().zip(grad) {
            *p -= self.lr * g;
        }
    }
}

/// The Adam optimiser (Kingma & Ba), the optimiser the paper's training
/// runs use via PyTorch.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    moments: HashMap<usize, (Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Adam with the standard betas (0.9, 0.999) and `eps = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: HashMap::new(),
        }
    }

    /// Advances the shared timestep; call once per training iteration
    /// *before* the slot updates of that iteration.
    pub fn next_iteration(&mut self) {
        self.t += 1;
    }

    /// Snapshots the optimiser's full state (timestep and per-slot
    /// moments) in a canonical slot order, for checkpointing.
    pub fn state(&self) -> AdamState {
        let mut slots: Vec<AdamSlotState> = self
            .moments
            .iter()
            .map(|(&slot, (m, v))| AdamSlotState {
                slot: slot as u64,
                m: m.clone(),
                v: v.clone(),
            })
            .collect();
        slots.sort_by_key(|s| s.slot);
        AdamState {
            lr: self.lr,
            t: self.t,
            slots,
        }
    }

    /// Restores a snapshot taken by [`state`](Self::state), replacing the
    /// timestep, learning rate, and every slot's moment buffers — the
    /// restored optimiser continues bit-identically to the original.
    pub fn restore(&mut self, state: &AdamState) {
        self.lr = state.lr;
        self.t = state.t;
        self.moments = state
            .slots
            .iter()
            .map(|s| (s.slot as usize, (s.m.clone(), s.v.clone())))
            .collect();
    }
}

/// The checkpointable state of one [`Adam`] parameter slot.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamSlotState {
    /// The slot index the model registered the parameter under.
    pub slot: u64,
    /// First-moment (mean) buffer.
    pub m: Vec<f32>,
    /// Second-moment (uncentred variance) buffer.
    pub v: Vec<f32>,
}

/// A snapshot of an [`Adam`] optimiser, slot state in ascending slot
/// order; produced by [`Adam::state`] and consumed by [`Adam::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Learning rate at snapshot time.
    pub lr: f32,
    /// Shared timestep.
    pub t: u64,
    /// Per-slot moment buffers, sorted by slot.
    pub slots: Vec<AdamSlotState>,
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        if self.t == 0 {
            self.t = 1;
        }
        let (m, v) = self
            .moments
            .entry(slot)
            .or_insert_with(|| (vec![0.0; param.len()], vec![0.0; param.len()]));
        assert_eq!(m.len(), param.len(), "slot {slot} reused with new length");
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..param.len() {
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let m_hat = m[i] / b1t;
            let v_hat = v[i] / b2t;
            param[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimises f(x) = (x - 3)^2 whose gradient is 2(x - 3).
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut x = [0.0f32];
        for _ in 0..steps {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(0, &mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let x = run_quadratic(&mut opt, 100);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let mut x = [0.0f32];
        for _ in 0..500 {
            opt.next_iteration();
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Sgd::new(0.1);
        let mut p = [0.0f32; 2];
        opt.step(0, &mut p, &[1.0]);
    }

    #[test]
    fn adam_state_round_trip_is_bit_identical() {
        let mut a = Adam::new(0.01);
        let mut x = [1.0f32, -2.0];
        let mut y = [0.5f32];
        for i in 0..7 {
            a.next_iteration();
            a.step(0, &mut x, &[0.1 * i as f32, -0.2]);
            a.step(3, &mut y, &[0.05]);
        }
        let snap = a.state();
        assert_eq!(snap.t, 7);
        assert_eq!(snap.slots.len(), 2);
        assert_eq!(snap.slots[0].slot, 0, "slots sorted");
        // A fresh optimiser restored from the snapshot must continue
        // exactly like the original.
        let mut b = Adam::new(0.999); // wrong lr, will be overwritten
        b.restore(&snap);
        assert_eq!(b.state().t, 7);
        let (mut xa, mut xb) = (x, x);
        for _ in 0..5 {
            a.next_iteration();
            b.next_iteration();
            a.step(0, &mut xa, &[0.3, 0.3]);
            b.step(0, &mut xb, &[0.3, 0.3]);
        }
        assert_eq!(xa, xb);
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn adam_without_explicit_iteration_still_works() {
        let mut opt = Adam::new(0.1);
        let mut x = [1.0f32];
        opt.step(0, &mut x, &[1.0]);
        assert!(x[0] < 1.0);
    }
}
