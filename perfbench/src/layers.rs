//! The in-process layer pass of the traced run.
//!
//! Each layer is timed by a span around calls into its module's public
//! functions, on the workload's own questions:
//!
//! * `titrace.decode`: `stream::open_sources` plus draining every cursor;
//! * `replay.translate`: `replay::action_to_op` over every action;
//! * `smpi.prepare` / `smpi.advance` / `smpi.finalize`: the SMPI runner,
//!   fed by [`TimedSource`]s that decode and translate in timed batches
//!   as the engine pulls, so decode and translation are child pieces of
//!   these spans and the engine's self time excludes them;
//! * `replay.scan`: `partition::scan_sources` plus `partition_ranks`;
//! * `replay.threads1` / `replay.threads2`: `replay_input_profiled` with
//!   profiling on, for the worker breakdown and the thread speed-up;
//! * `titserved.parse` / `titserved.resolve` / `titserved.execute`: the
//!   service's query parser, trace store and executor.
//!
//! The pass runs in the benchmark's plain build, like the release
//! programs. The FEL and match-queue counters exist only in a build with
//! the `profile` feature, so [`counters`] replays the same questions in
//! that build (a separate process) and prints them as `metric` lines.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use tit_replay::platform::HostId;
use tit_replay::prelude::*;
use tit_replay::replay::{self, partition, profile::ReplayProfile};
use tit_replay::simkernel::{self, Time};
use tit_replay::smpi::{self, FixedRateHooks, SmpiConfig};
use tit_replay::titrace::stream::{self, ActionSource};
use tit_replay::workloads::{MpiOp, OpSource};
use titserved::{query, TraceStore, WhatIfQuery};

use crate::schedule;
use crate::spans::{Pieces, Tracer};
use crate::stats::median;
use crate::workload::{Ask, Inputs, Kind};

/// Sums and maxima of the engine counters over the layer questions.
#[derive(Default)]
struct Counts {
    actions: u64,
    messages: u64,
    eager: u64,
    events: u64,
    compactions: u64,
    flows: u64,
    resolves: u64,
    rate_updates: u64,
    flushes: u64,
    live_flow_hwm: u64,
}

/// What the layer pass measured.
pub struct Layers {
    /// Per-layer metrics by name (times are per question).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per layer question: simulated-time bits and message count.
    pub checks: Vec<(u64, u64)>,
    /// Decode + translate + SMPI prepare/advance/finalize, per question.
    pub sequential_s: f64,
    /// Profiled `replay_input` at one thread, per question.
    pub threads1_s: f64,
    /// Profiled `replay_input` at two threads, per question.
    pub threads2_s: f64,
}

impl Layers {
    /// Per-metric medians over several passes (the counts are equal in
    /// every pass; the checks are the first pass's).
    pub fn median(passes: &[Layers]) -> Layers {
        let med = |f: &dyn Fn(&Layers) -> f64| {
            median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        Layers {
            metrics: passes[0]
                .metrics
                .keys()
                .map(|&k| (k, med(&|p: &Layers| p.metrics[k])))
                .collect(),
            checks: passes[0].checks.clone(),
            sequential_s: med(&|p| p.sequential_s),
            threads1_s: med(&|p| p.threads1_s),
            threads2_s: med(&|p| p.threads2_s),
        }
    }

    /// The layer time `titreplay`'s wall time is set against: the
    /// sequential split, or the profiled parallel replay section when
    /// the workload replays on two threads.
    pub fn replay_layers_s(&self, kind: Kind) -> f64 {
        if kind.replay_threads() >= 2 {
            self.threads2_s
        } else {
            self.sequential_s
        }
    }
}

/// Runs one layer pass, recording its spans in `t`.
pub fn run(kind: Kind, inputs: &Inputs, t: &mut Tracer) -> Result<Layers, String> {
    let first_span = t.spans().len();
    let asks = inputs.layer_asks();
    let nq = asks.len() as f64;
    let mut c = Counts::default();
    let mut checks = Vec::new();
    let (mut wall1, mut wall2) = (0.0, 0.0);
    let (mut work, mut barrier, mut imbalance, mut islands) = (0.0, 0.0, 0.0, 0.0);
    for ask in &asks {
        let platform = ask.spec.build();
        let input = ask.input()?;
        let config = ask.config();
        let hosts: Vec<HostId> = config.placement.assign(&platform, ask.ranks)?;

        let feed = Rc::new(Feed::default());
        let cursors = t.span("titrace.decode", |_| {
            stream::open_sources(&input, ask.ranks).map_err(|e| e.to_string())
        })?;
        let mut run = t.span("smpi.prepare", |t| {
            let mut cfg = SmpiConfig::smpi_replay();
            cfg.copy = config.copy_model;
            cfg.sharing = config.sharing;
            cfg.fel = config.fel;
            cfg.collective_agg = config.collective_agg;
            let sources: Vec<Box<dyn OpSource>> = cursors
                .into_iter()
                .map(|cursor| Box::new(TimedSource::new(cursor, &feed)) as Box<dyn OpSource>)
                .collect();
            let hooks = Box::new(FixedRateHooks::uniform(config.rate, ask.ranks));
            let run = smpi::prepare_smpi(&platform, &hosts, sources, cfg, hooks, None);
            feed.record(t);
            run
        });
        t.span("smpi.advance", |t| {
            run.advance(Time::NEVER);
            feed.record(t);
        });
        let finished = t.span("smpi.finalize", |t| {
            let r = run.finalize();
            feed.record(t);
            r
        });
        if let Some(e) = feed.fault.take() {
            return Err(format!("trace stream failed in the layer pass: {e}"));
        }
        let (result, obs) = finished?;
        c.actions += feed.actions.get();
        checks.push((result.total_time.to_bits(), result.stats.messages));
        let m = &obs.metrics;
        c.messages += m.messages;
        c.eager += m.eager_messages;
        c.events += m.events_processed;
        c.compactions += m.queue_compactions;
        c.flows += m.flows_created;
        c.resolves += m.sharing_resolves;
        c.rate_updates += m.sharing_rate_updates;
        c.flushes += m.sharing_flushes;
        c.live_flow_hwm = c.live_flow_hwm.max(m.live_flow_hwm);

        islands += t.span("replay.scan", |_| -> Result<f64, String> {
            let sources = stream::open_sources(&input, ask.ranks).map_err(|e| e.to_string())?;
            let scan = partition::scan_sources(sources)?;
            Ok(partition::partition_ranks(&scan, &platform, &hosts)
                .islands
                .len() as f64)
        })?;
        let p1 = t.span("replay.threads1", |_| profiled(&platform, &input, ask, 1))?;
        let p2 = t.span("replay.threads2", |_| profiled(&platform, &input, ask, 2))?;
        wall1 += p1.wall_s;
        wall2 += p2.wall_s;
        let own = if ask.threads >= 2 { &p2 } else { &p1 };
        work += own.workers.iter().map(|w| w.work_s).sum::<f64>();
        barrier += own.workers.iter().map(|w| w.barrier_s).sum::<f64>();
        imbalance += own.imbalance();
    }

    let layer_s = |name: &str| t.self_s(first_span, name) / nq;
    let sequential_s = [
        "titrace.decode",
        "replay.translate",
        "smpi.prepare",
        "smpi.advance",
        "smpi.finalize",
    ]
    .iter()
    .map(|n| layer_s(n))
    .sum::<f64>();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("titrace.decode_s", layer_s("titrace.decode"));
    m.insert("titrace.actions", c.actions as f64);
    m.insert("replay.translate_s", layer_s("replay.translate"));
    m.insert("smpi.prepare_s", layer_s("smpi.prepare"));
    m.insert("smpi.advance_s", layer_s("smpi.advance"));
    m.insert("smpi.finalize_s", layer_s("smpi.finalize"));
    m.insert("smpi.messages", c.messages as f64);
    m.insert("smpi.eager_ratio", ratio(c.eager, c.messages));
    m.insert("simkernel.events", c.events as f64);
    m.insert("simkernel.compactions", c.compactions as f64);
    m.insert("netmodel.flows", c.flows as f64);
    m.insert("netmodel.resolves", c.resolves as f64);
    m.insert(
        "netmodel.rate_updates_per_flow",
        ratio(c.rate_updates, c.flows),
    );
    m.insert("netmodel.flushes", c.flushes as f64);
    m.insert("netmodel.live_flow_hwm", c.live_flow_hwm as f64);
    m.insert("replay.scan_s", layer_s("replay.scan"));
    m.insert("replay.islands", islands / nq);
    m.insert("replay.worker_work_s", work / nq);
    m.insert("replay.barrier_wait_s", barrier / nq);
    m.insert("replay.imbalance", imbalance / nq);
    m.insert("replay.thread_speedup", wall1 / wall2);
    m.insert("trace.overhead_ratio", sequential_s / (wall1 / nq) - 1.0);
    let (parse_ms, resolve_ms, execute_ms) = service_layers(kind, inputs, t)?;
    m.insert("titserved.parse_ms", parse_ms);
    m.insert("titserved.resolve_cold_ms", resolve_ms);
    m.insert("titserved.execute_ms", execute_ms);
    Ok(Layers {
        metrics: m,
        checks,
        sequential_s,
        threads1_s: wall1 / nq,
        threads2_s: wall2 / nq,
    })
}

/// The counters only a `profile` build has, over the layer questions,
/// printed as `metric <name> <value|null>` lines (null when the build
/// has them compiled out), plus `profile_counters 0|1`.
pub fn counters(inputs: &Inputs) -> Result<(), String> {
    let (mut scheduled, mut superseded, mut depth) = (0u64, 0u64, 0u64);
    for ask in inputs.layer_asks() {
        let platform = ask.spec.build();
        let config = ReplayConfig {
            threads: 1,
            ..ask.config()
        };
        let r = replay::replay_input_observed(&platform, &ask.input()?, ask.ranks, &config, false)?;
        scheduled += r.metrics.fel.scheduled;
        superseded += r.metrics.fel.superseded;
        depth = depth.max(r.metrics.max_unexpected_depth);
    }
    let on = simkernel::profile_enabled();
    let show = |v: f64| if on { v.to_string() } else { "null".into() };
    println!("profile_counters {}", u8::from(on));
    println!("metric simkernel.fel_scheduled {}", show(scheduled as f64));
    println!(
        "metric simkernel.superseded_ratio {}",
        show(if scheduled == 0 {
            0.0
        } else {
            superseded as f64 / scheduled as f64
        })
    );
    println!("metric smpi.max_unexpected_depth {}", show(depth as f64));
    Ok(())
}

/// Actions a [`TimedSource`] decodes and translates per batch: enough to
/// make the clock reads negligible, few enough that the 64 to 128 ranks'
/// buffers stay in cache, as the one-action-at-a-time feed of `titreplay`
/// does (a pre-decoded feed slowed the engine by 8 to 20% on `lu-c64`).
const BATCH: usize = 256;

/// What the [`TimedSource`]s of one question share: the decode and
/// translate pieces not yet recorded, the action count, and the first
/// cursor fault (which ends that rank's stream).
#[derive(Default)]
struct Feed {
    decode: Cell<Pieces>,
    translate: Cell<Pieces>,
    actions: Cell<u64>,
    fault: RefCell<Option<String>>,
}

impl Feed {
    /// Records the pieces collected so far as children of the open span.
    fn record(&self, t: &mut Tracer) {
        t.pieces("titrace.decode", self.decode.take());
        t.pieces("replay.translate", self.translate.take());
    }
}

/// Feeds the SMPI runner from one rank's trace cursor, decoding and
/// then translating [`BATCH`] actions at a time, each step timed.
struct TimedSource {
    cursor: Box<dyn ActionSource>,
    actions: Vec<Action>,
    /// The translated batch, reversed so that `pop` serves it in order.
    ops: Vec<MpiOp>,
    feed: Rc<Feed>,
}

impl TimedSource {
    fn new(cursor: Box<dyn ActionSource>, feed: &Rc<Feed>) -> TimedSource {
        TimedSource {
            cursor,
            actions: Vec::with_capacity(BATCH),
            ops: Vec::with_capacity(BATCH),
            feed: Rc::clone(feed),
        }
    }

    fn refill(&mut self) {
        let started = Instant::now();
        self.actions.clear();
        while self.actions.len() < BATCH {
            match self.cursor.next_action() {
                Ok(Some(a)) => self.actions.push(a),
                Ok(None) => break,
                Err(e) => {
                    self.feed
                        .fault
                        .borrow_mut()
                        .get_or_insert_with(|| e.to_string());
                    break;
                }
            }
        }
        let decoded = Instant::now();
        self.ops
            .extend(self.actions.iter().rev().map(replay::action_to_op));
        let translated = Instant::now();
        Pieces::add(&self.feed.decode, started, decoded);
        Pieces::add(&self.feed.translate, decoded, translated);
        let n = self.feed.actions.get() + self.actions.len() as u64;
        self.feed.actions.set(n);
    }
}

impl OpSource for TimedSource {
    fn next_op(&mut self) -> Option<MpiOp> {
        if self.ops.is_empty() {
            self.refill();
        }
        self.ops.pop()
    }
}

fn profiled(
    platform: &Platform,
    input: &TraceInput,
    ask: &Ask,
    threads: usize,
) -> Result<ReplayProfile, String> {
    let config = ReplayConfig {
        threads,
        ..ask.config()
    };
    let report = replay::replay_input_profiled(platform, input, ask.ranks, &config, false, true)?;
    report
        .profile
        .ok_or_else(|| "profiled replay returned no profile".to_string())
}

/// Median per-call milliseconds of the service's parse, cold resolve and
/// execute steps on the workload's own queries.
fn service_layers(kind: Kind, inputs: &Inputs, t: &mut Tracer) -> Result<(f64, f64, f64), String> {
    let asks: Vec<Ask> = if kind == Kind::Whatif {
        let mut v = Vec::new();
        for trace in 0..schedule::TRACES {
            for bandwidth in 0..schedule::BANDWIDTHS.len() as u8 {
                for msg in [false, true] {
                    v.push(inputs.whatif_ask(schedule::Question::unswept(trace, msg, bandwidth)));
                }
            }
        }
        v
    } else {
        vec![inputs.base().clone()]
    };
    let bodies: Vec<String> = asks.iter().map(Ask::query_json).collect();
    let mut parse = Vec::new();
    let queries: Vec<WhatIfQuery> = t.span("titserved.parse", |_| {
        bodies
            .iter()
            .map(|b| {
                let started = Instant::now();
                let q = WhatIfQuery::parse(b);
                parse.push(started.elapsed().as_secs_f64() * 1e3);
                q
            })
            .collect::<Result<_, _>>()
    })?;
    let mut resolve = Vec::new();
    let mut resolved = BTreeMap::new();
    t.span("titserved.resolve", |_| -> Result<(), String> {
        for q in &queries {
            if resolved.contains_key(&q.trace) {
                continue;
            }
            let store = TraceStore::new();
            let started = Instant::now();
            let r = store.resolve(&q.trace, q.ranks, false)?;
            resolve.push(started.elapsed().as_secs_f64() * 1e3);
            resolved.insert(q.trace.clone(), Arc::new(r));
        }
        Ok(())
    })?;
    let mut execute = Vec::new();
    t.span("titserved.execute", |_| -> Result<(), String> {
        for q in &queries {
            let started = Instant::now();
            query::execute(q, &resolved[&q.trace])?;
            execute.push(started.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    })?;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    Ok((med(&parse), med(&resolve), med(&execute)))
}
