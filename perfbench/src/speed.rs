//! The host-speed probe: a fixed CPU kernel of the benchmark's own,
//! timed between the measured operations, so that every timing can also
//! be read at one nominal host speed.
//!
//! The shared host this benchmark runs on changes speed with its other
//! tenants' load, by 20% and more within seconds and between minutes.
//! Raw wall times of the same program then spread between runs by about
//! as much as any useful bound. A timing divided by the probe's speed
//! factor over the same stretch of time (the mean of the probes just
//! before and just after it) cancels most of that drift, while a change
//! to the programs moves it as much as it moves the raw time: the probe
//! is compiled from this crate only and never calls the programs' code.
//!
//! The kernel mixes what the replay engine spends its time on: a binary
//! heap of pending times, a hash map over a working set of about 1 MB,
//! and floating-point arithmetic. It runs on as many threads at once as
//! the workload computes on, so a workload that keeps both vCPUs busy is
//! rescaled by the speed of both.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations of one probe: about 60 ms on the host the bounds
/// were proven on.
const PROBE_ITERS: u64 = 600_000;
/// The probe's time at the nominal host speed: its median on that host
/// (2 vCPUs, 2.1 GHz). A rescaled timing is the raw one times this over
/// the probe's time next to it.
pub const NOMINAL_PROBE_S: f64 = 0.06;
/// Entries the heap holds before every push also pops.
const HEAP_DEPTH: usize = 4096;
/// Keys of the hash map (2^16, about 1 MB with the table's overhead).
const KEY_MASK: u64 = 0xFFFF;

/// Runs the kernel once on each of `threads` threads at once and
/// returns the wall seconds until the last one is done.
pub fn probe(threads: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| black_box(kernel(black_box(PROBE_ITERS))));
        }
        black_box(kernel(black_box(PROBE_ITERS)));
    });
    started.elapsed().as_secs_f64()
}

/// The probe's work; returns a value that depends on all of it.
fn kernel(iters: u64) -> f64 {
    let mut heap = BinaryHeap::with_capacity(HEAP_DEPTH + 1);
    let mut map: HashMap<u64, f64> = HashMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse(x >> 20));
        if heap.len() > HEAP_DEPTH {
            acc += heap.pop().map_or(0, |r| r.0) as f64 * 1e-9;
        }
        let e = map.entry(x & KEY_MASK).or_insert(0.0);
        *e = (*e + acc).sqrt() + i as f64 * 1e-12;
    }
    acc + map.len() as f64
}

/// Probes between measured stretches of a run and yields each
/// stretch's speed factor.
pub struct Pacer {
    threads: usize,
    last: f64,
    probes: Vec<f64>,
}

impl Pacer {
    /// Starts with one probe on `threads` threads, the near end of the
    /// first stretch.
    pub fn new(threads: usize) -> Pacer {
        let last = probe(threads);
        Pacer {
            threads,
            last,
            probes: vec![last],
        }
    }

    /// Ends a stretch with a probe and returns its speed factor: the
    /// mean of the probes at its two ends over [`NOMINAL_PROBE_S`]. A
    /// raw timing from the stretch divided by it is the rescaled one;
    /// above 1 the host ran slower than nominal.
    pub fn factor(&mut self) -> f64 {
        let p = probe(self.threads);
        let f = (self.last + p) / 2.0 / NOMINAL_PROBE_S;
        self.last = p;
        self.probes.push(p);
        f
    }

    /// Probes again, so the next stretch starts now: for a stretch that
    /// does not follow the last one directly.
    pub fn restart(&mut self) {
        self.last = probe(self.threads);
        self.probes.push(self.last);
    }

    /// Every probe time of the run, for the report.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}

/// Samples of one timing, raw and rescaled.
#[derive(Default)]
pub struct Rescaled {
    /// As measured; new samples wait here until their stretch ends.
    pub raw: Vec<f64>,
    /// Each divided by its stretch's speed factor.
    pub rescaled: Vec<f64>,
}

impl Rescaled {
    /// Rescales the samples added since the last call by `factor`.
    pub fn end_stretch(&mut self, factor: f64) {
        let from = self.rescaled.len();
        self.rescaled
            .extend(self.raw[from..].iter().map(|v| v / factor));
    }

    /// Adds `other`'s samples, none of them rescaled yet, to the current
    /// stretch.
    pub fn merge(&mut self, other: Rescaled) {
        debug_assert!(other.rescaled.is_empty());
        self.raw.extend(other.raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_probe_is_positive() {
        assert_eq!(kernel(10_000).to_bits(), kernel(10_000).to_bits());
        assert!(probe(1) > 0.0);
        assert!(probe(2) > 0.0);
    }

    #[test]
    fn samples_are_rescaled_by_their_own_stretch() {
        let mut r = Rescaled::default();
        r.raw.extend([2.0, 4.0]);
        r.end_stretch(2.0);
        r.raw.push(3.0);
        r.end_stretch(0.5);
        assert_eq!(r.raw, vec![2.0, 4.0, 3.0]);
        assert_eq!(r.rescaled, vec![1.0, 2.0, 6.0]);
        // Nothing new since the last stretch: no change.
        r.end_stretch(10.0);
        assert_eq!(r.rescaled.len(), 3);
    }
}
