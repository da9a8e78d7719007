//! Negative fixture: commutative / integer parallel accumulation is
//! deterministic — HL013 must stay silent on every line here.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn int_fold(xs: &[u64]) -> u64 {
    hep_par::par_reduce(xs, || 0, |acc, x| acc + x)
}

pub fn count(total: &AtomicU64, xs: &[u64]) {
    hep_par::par_for_each(xs, |_x| {
        total.fetch_add(1, Ordering::Relaxed);
    });
}

pub fn float_map_is_fine(xs: &[f64]) -> Vec<f64> {
    hep_par::par_map(xs, |x: f64| x * 2.0)
}
