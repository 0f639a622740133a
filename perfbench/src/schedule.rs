//! The seeded question schedule of the `whatif-mix` workload.
//!
//! It follows the one service client in the repository,
//! `examples/capacity_planning_service.rs`: a planner sweeps nine
//! candidate clusters, three CPU speeds times three NIC bandwidths, with
//! the quoted CPU speed doubling as the replay rate, and then asks the
//! same nine again, which the memo answers. Each planner here walks a
//! chain of such sweeps, so half its questions are new (misses) and half
//! are repeats (memo hits), as in the example.
//!
//! What the example does not fix is chosen here (README.md, "The
//! what-if mix", says why and what it moves):
//!
//! * each sweep asks about one of [`TRACES`] small LU traces with one
//!   engine (`smpi|msg`), both drawn from the seed;
//! * every sweep's CPU quotes carry a small offset of their own, so the
//!   first pass of each sweep is new to the server, as the example's is;
//! * every [`SHARED_EVERY`]-th sweep both planners sweep the same
//!   candidates at once, meeting at a barrier before each new question,
//!   which drives the server's in-flight dedup (`joined`) path.
//!
//! Every step is a pure function of `(seed, client, step)`, never of
//! timing, so a seed fixes the whole schedule.

/// Number of traces the questions range over.
pub const TRACES: u8 = 3;
/// The example's CPU options, instructions/s.
pub const RATES: [f64; 3] = [2.0e9, 3.0e9, 4.0e9];
/// The example's NIC options (link bandwidth), bytes/s.
pub const BANDWIDTHS: [f64; 3] = [1.25e8, 2.5e8, 1.25e9];
/// Candidates of one sweep: every CPU option with every NIC option.
pub const CANDIDATES: u64 = (RATES.len() * BANDWIDTHS.len()) as u64;
/// Steps of one sweep: the candidates, then the same candidates again.
pub const SWEEP_STEPS: u64 = 2 * CANDIDATES;
/// Period of the shared sweeps.
pub const SHARED_EVERY: u64 = 4;

/// Offset of one sweep's CPU quotes from the next, instructions/s.
const RATE_STRIDE: f64 = 1.0e4;

/// One what-if question, by its coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Question {
    /// Trace index, `0..TRACES`.
    pub trace: u8,
    /// `false` = SMPI engine, `true` = MSG engine.
    pub msg: bool,
    /// Index into [`RATES`].
    pub cpu: u8,
    /// Index into [`BANDWIDTHS`].
    pub bandwidth: u8,
    /// The sweep that asks it; 0 is asked by no planner.
    pub sweep: u64,
}

impl Question {
    /// A question at the example's own CPU quotes, which no planner's
    /// sweep asks.
    pub fn unswept(trace: u8, msg: bool, bandwidth: u8) -> Question {
        Question {
            trace,
            msg,
            cpu: 0,
            bandwidth,
            sweep: 0,
        }
    }

    /// Calibrated instruction rate of this question, instructions/s.
    pub fn rate(&self) -> f64 {
        RATES[self.cpu as usize] + self.sweep as f64 * RATE_STRIDE
    }
}

/// What a client does at one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A question nobody asked before.
    New(Question),
    /// A new question both clients ask at the same step.
    Shared(Question),
    /// A question this client already had answered.
    Repeat(Question),
}

impl Step {
    /// The question asked.
    pub fn question(&self) -> Question {
        match *self {
            Step::New(q) | Step::Shared(q) | Step::Repeat(q) => q,
        }
    }
}

/// SplitMix64 finaliser over a combined key: a cheap, well-mixed,
/// dependency-free hash.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One planner's deterministic walk through the schedule.
pub struct Client {
    seed: u64,
    id: u64,
    step: u64,
}

impl Client {
    /// Client `id` (0 or 1) of the schedule for `seed`.
    pub fn new(seed: u64, id: u64) -> Client {
        Client { seed, id, step: 0 }
    }

    /// Index of the next step.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Whether the next step asks a shared question (both clients meet
    /// there).
    pub fn next_is_shared(&self) -> bool {
        shared_sweep(self.step / SWEEP_STEPS) && self.step % SWEEP_STEPS < CANDIDATES
    }

    /// Advances one step.
    pub fn next_step(&mut self) -> Step {
        let step = self.step;
        self.step += 1;
        let k = step / SWEEP_STEPS;
        let pos = step % SWEEP_STEPS;
        let shared = shared_sweep(k);
        // Sweeps 3k + 1 are shared, 3k + 2 and 3k + 3 private to client
        // 0 and 1: no two sweeps ever share their CPU quotes.
        let lane = if shared { 0 } else { 1 + self.id };
        let bits = mix(self.seed, if shared { u64::MAX } else { self.id }, k);
        let candidate = pos % CANDIDATES;
        let q = Question {
            trace: (bits % u64::from(TRACES)) as u8,
            msg: (bits >> 8) & 1 == 1,
            cpu: (candidate / BANDWIDTHS.len() as u64) as u8,
            bandwidth: (candidate % BANDWIDTHS.len() as u64) as u8,
            sweep: 1 + 3 * k + lane,
        };
        if pos >= CANDIDATES {
            Step::Repeat(q)
        } else if shared {
            Step::Shared(q)
        } else {
            Step::New(q)
        }
    }
}

fn shared_sweep(k: u64) -> bool {
    k % SHARED_EVERY == SHARED_EVERY - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn walk(seed: u64, id: u64, steps: u64) -> Vec<Step> {
        let mut c = Client::new(seed, id);
        (0..steps).map(|_| c.next_step()).collect()
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        for id in 0..2 {
            assert_eq!(walk(7, id, 500), walk(7, id, 500));
        }
        assert_ne!(walk(7, 0, 500), walk(8, 0, 500));
        assert_ne!(walk(7, 0, 500), walk(7, 1, 500));
    }

    #[test]
    fn shared_steps_coincide_and_new_questions_are_unique() {
        let (mut a, mut b) = (Client::new(3, 0), Client::new(3, 1));
        let mut new = HashSet::new();
        for _ in 0..800 {
            assert_eq!(a.next_is_shared(), b.next_is_shared());
            let shared = a.next_is_shared();
            match (a.next_step(), b.next_step()) {
                (Step::Shared(x), Step::Shared(y)) => {
                    assert!(shared);
                    assert_eq!(x, y);
                    assert!(new.insert(x), "shared question asked twice");
                }
                (Step::Shared(_), _) | (_, Step::Shared(_)) => panic!("shared steps out of step"),
                (sa, sb) => {
                    assert!(!shared);
                    for s in [sa, sb] {
                        if let Step::New(q) = s {
                            assert!(new.insert(q), "new question asked twice");
                        }
                    }
                }
            }
        }
        let asked: HashSet<(u64, u8)> = new
            .iter()
            .map(|q| (q.rate().to_bits(), q.bandwidth))
            .collect();
        assert_eq!(
            asked.len(),
            new.len(),
            "every new question has its own rate and NIC"
        );
        assert!(new.iter().all(|q| q.sweep > 0));
    }

    #[test]
    fn every_sweep_asks_its_candidates_twice_so_half_are_hits() {
        for id in 0..2 {
            let steps = walk(11, id, 200 * SWEEP_STEPS);
            let mut seen = HashSet::new();
            let mut repeats = 0;
            for sweep in steps.chunks(SWEEP_STEPS as usize) {
                let (first, second) = sweep.split_at(CANDIDATES as usize);
                let asked: Vec<Question> = first.iter().map(Step::question).collect();
                let again: Vec<Question> = second.iter().map(Step::question).collect();
                assert_eq!(asked, again);
                let grid: HashSet<(u8, u8)> = asked.iter().map(|q| (q.cpu, q.bandwidth)).collect();
                assert_eq!(grid.len(), CANDIDATES as usize);
                for s in first {
                    assert!(!matches!(s, Step::Repeat(_)));
                    seen.insert(s.question());
                }
                for s in second {
                    assert!(matches!(s, Step::Repeat(q) if seen.contains(q)));
                    repeats += 1;
                }
            }
            assert_eq!(repeats * 2, steps.len());
            let engines: HashSet<bool> = seen.iter().map(|q| q.msg).collect();
            let traces: HashSet<u8> = seen.iter().map(|q| q.trace).collect();
            assert_eq!((engines.len(), traces.len()), (2, TRACES as usize));
        }
    }
}
