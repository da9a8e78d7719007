//! HL013 fixture: determinism hazards in closures handed to hep_par entry
//! points — non-associative float folds, captured hash-keyed mutation, and
//! non-commutative atomic RMW.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

pub fn float_fold(xs: &[f64]) -> f64 {
    hep_par::par_reduce(xs, || 0.0, |acc: f64, x: f64| acc + x) //~ HL013
}

pub fn int_fold(xs: &[u64]) -> u64 {
    hep_par::par_reduce(xs, || 0, |acc, x| acc + x)
}

pub fn tally(xs: &[u64], counts: &mut HashMap<u64, u32>) {
    hep_par::par_for_each(xs, |x| {
        counts.insert(*x, 1); //~ HL013
    });
}

pub fn tally_local(xs: &[u64]) {
    hep_par::par_for_each(xs, |x| {
        let mut local = HashMap::new();
        local.insert(*x, 1);
    });
}

pub fn atomic_last_writer(flags: &AtomicU64, xs: &[u64]) {
    hep_par::par_for_each(xs, |x| {
        flags.swap(*x, Ordering::Relaxed); //~ HL013
    });
}

pub fn atomic_count(total: &AtomicU64, xs: &[u64]) {
    hep_par::par_for_each(xs, |_x| {
        total.fetch_add(1, Ordering::Relaxed);
    });
}
