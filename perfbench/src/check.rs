//! Correctness gate: what every `titreplay` run and every `/predict`
//! answer must print, computed in-process with the program's library.

use std::collections::HashMap;

use tit_replay::replay;
use titserved::query::{self, ResolvedTrace};
use titserved::{TraceStore, WhatIfQuery};

use crate::proc::Finished;
use crate::workload::{Ask, Kind};

/// `simulated_time_s` bits and message count of each replay workload
/// at the default seed. Every execution strategy must reproduce them
/// exactly; a change that moves them changes what the replay predicts.
const PINNED: [(Kind, u64, u64); 3] = [
    (Kind::Lu, 0x3fec_0ecd_477c_8698, 183_775),
    (Kind::Allreduce, 0x3f90_46d0_1730_d367, 32_512),
    (Kind::Halo, 0x3fdc_7b7b_a161_0c67, 512_000),
];

/// What a `titreplay` run of one question must print.
#[derive(Debug, Clone, PartialEq)]
pub struct CliExpect {
    /// Exact standard output.
    pub stdout: String,
    /// Message count (reported on standard error).
    pub messages: u64,
    /// Simulated time, bit pattern.
    pub time_bits: u64,
}

/// Replays `ask` in-process with `replay::replay_input` on the same
/// trace file and derives the CLI's expected output.
pub fn cli_expect(ask: &Ask) -> Result<CliExpect, String> {
    let platform = ask.spec.build();
    let r = replay::replay_input(&platform, &ask.input()?, ask.ranks, &ask.config())?;
    Ok(CliExpect {
        stdout: format!("simulated_time_s {:.9}\n", r.time),
        messages: r.messages,
        time_bits: r.time.to_bits(),
    })
}

/// Checks a reference against the pin; `Err` names the difference.
pub fn check_pin(kind: Kind, e: &CliExpect) -> Result<(), String> {
    let pin = PINNED.iter().find(|(k, _, _)| *k == kind);
    match pin {
        Some(&(_, bits, messages)) if (bits, messages) != (e.time_bits, e.messages) => Err(format!(
            "default-seed result moved: simulated_time_s {} ({:#x}), {} messages; pinned {} ({bits:#x}), {messages} messages",
            f64::from_bits(e.time_bits),
            e.time_bits,
            e.messages,
            f64::from_bits(bits)
        )),
        _ => Ok(()),
    }
}

/// True when a `titreplay` run exited 0 with exactly the expected
/// standard output and message count.
pub fn cli_ok(run: &Finished, e: &CliExpect) -> bool {
    run.ok() && run.stdout == e.stdout && run.stderr.contains(&format!("({} messages,", e.messages))
}

/// A manifest body without its wall-time line, the one field that may
/// differ between two executions of one question.
pub fn without_wall_time(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len());
    for line in body.split_inclusive(|&b| b == b'\n') {
        if !line.trim_ascii_start().starts_with(b"\"wall_time_s\":") {
            out.extend_from_slice(line);
        }
    }
    out
}

/// Executes queries in-process exactly as the server does, sharing one
/// trace store (never writing side-cars).
#[derive(Default)]
pub struct Executor {
    store: TraceStore,
}

impl Executor {
    /// The body `/predict` must return for `ask`, wall time removed.
    pub fn expected_body(&self, ask: &Ask) -> Result<Vec<u8>, String> {
        let q = WhatIfQuery::parse(&ask.query_json())?;
        let resolved: ResolvedTrace = self.store.resolve(&q.trace, q.ranks, false)?;
        Ok(without_wall_time(query::execute(&q, &resolved)?.as_bytes()))
    }
}

/// Every answer a run received, by question: the first body seen and
/// how many answers there were, plus how many differed from the first.
pub struct Answers<K> {
    /// Per question: (first body, answers, answers differing from it).
    pub by_key: HashMap<K, (Vec<u8>, u64, u64)>,
}

impl<K> Default for Answers<K> {
    fn default() -> Self {
        Answers {
            by_key: HashMap::new(),
        }
    }
}

impl<K: std::hash::Hash + Eq> Answers<K> {
    /// Records one `200` answer; returns whether it repeats the bytes of
    /// the first answer to the same question.
    pub fn record(&mut self, key: K, body: Vec<u8>) -> bool {
        let entry = self
            .by_key
            .entry(key)
            .or_insert_with(|| (body.clone(), 0, 0));
        entry.1 += 1;
        let same = entry.0 == body;
        if !same {
            entry.2 += 1;
        }
        same
    }

    /// Merges another client's answers in; answers whose first body
    /// differs from ours count as mismatches.
    pub fn merge(&mut self, other: Answers<K>) {
        for (key, (body, n, bad)) in other.by_key {
            match self.by_key.get_mut(&key) {
                Some(entry) => {
                    entry.1 += n;
                    entry.2 += if entry.0 == body { bad } else { n };
                }
                None => {
                    self.by_key.insert(key, (body, n, bad));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_time_line_is_the_only_line_dropped() {
        let body = b"{\n  \"simulated_time_s\": 1.5,\n  \"wall_time_s\": 0.25,\n  \"x\": 1\n}";
        assert_eq!(
            without_wall_time(body),
            b"{\n  \"simulated_time_s\": 1.5,\n  \"x\": 1\n}".to_vec()
        );
    }

    #[test]
    fn answers_count_mismatches_across_clients() {
        let mut a = Answers::default();
        assert!(a.record(1, b"x".to_vec()));
        assert!(!a.record(1, b"y".to_vec()));
        let mut b = Answers::default();
        b.record(1, b"z".to_vec());
        b.record(2, b"w".to_vec());
        a.merge(b);
        assert_eq!(a.by_key[&1], (b"x".to_vec(), 3, 2));
        assert_eq!(a.by_key[&2], (b"w".to_vec(), 1, 0));
    }
}
