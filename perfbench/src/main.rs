//! `perfbench` — the end-to-end and per-layer benchmark of `titreplay`
//! and `titserved`. See `perfbench/README.md` for the workloads and
//! metrics; `perfbench/run.py` builds the programs and calls this.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1 \
//!           --bin-dir <release dir> --layers-bin <profiled perfbench> --work-dir <dir>
//! perfbench counters --workload <name> --inputs <set-up dir>
//! perfbench exec-measured <report> <program> [args...]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod layers;
mod proc;
mod schedule;
mod spans;
mod speed;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use check::{Answers, CliExpect, Executor};
use proc::Server;
use spans::Tracer;
use speed::{Pacer, Rescaled};
use workload::{Ask, Bins, Inputs, Kind};

/// Set-ups per untraced run: the one whose inputs the run measures,
/// then more spread over the window, one after a step of the
/// measurement loop while they have taken under [`SETUP_SHARE`] of the
/// window so far, and at least [`MIN_SETUPS`] in all. `setup_s` is the
/// median of their rescaled times. Spread over the window, host drift
/// hits set-up as it hits the other metrics, instead of only the first
/// second of a run.
const MIN_SETUPS: usize = 3;
const SETUP_SHARE: f64 = 0.08;
/// Memo hits asked after each cold question on a replay workload: one,
/// as `examples/capacity_planning_service.rs` asks every candidate
/// twice.
const HITS_PER_COLD: usize = 1;
/// Cold questions (each on a fresh server) per `titreplay` run on a
/// replay workload: one, so the two gated timings get as many samples.
const COLDS_PER_CLI_RUN: usize = 1;
/// Steps per planner of one `whatif-mix` planning session: one server
/// lifetime, so memo size and peak RSS do not grow with host speed, and
/// every session's first touch of a trace decodes it. One period of the
/// shared sweeps, so every session has the same mix and both planners
/// end it together. The traced run replays exactly one session.
const SESSION_STEPS: u64 = schedule::SHARED_EVERY * schedule::SWEEP_STEPS;
/// Layer passes of the traced run: at least this many, and more while
/// the window lasts.
const MIN_LAYER_PASSES: usize = 3;
const MAX_LAYER_PASSES: usize = 9;
/// Untraced `titreplay` runs of each layer question after each pass.
const CLI_RUNS_PER_PASS: usize = 2;
/// Failed operations printed in full before going quiet.
const REPORTED_FAILURES: u64 = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    layers_bin: PathBuf,
    work_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace 0|1 \
         --bin-dir <dir> --layers-bin <path> --work-dir <dir>\n\
         \x20      perfbench counters --workload <name> --inputs <dir>\n\
         \x20      perfbench exec-measured <report> <program> [args...]",
        Kind::NAMES.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("counters") => counters_main(&argv[1..]),
        Some("exec-measured") => exec_measured_main(&argv[1..]),
        _ => {}
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut layers_bin = None;
    let mut work_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage()).clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--layers-bin" => layers_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let (
        Some(workload),
        Some(seed),
        Some(seconds),
        Some(trace),
        Some(bin_dir),
        Some(layers_bin),
        Some(work_dir),
    ) = (
        workload, seed, seconds, trace, bin_dir, layers_bin, work_dir,
    )
    else {
        usage()
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        bin_dir,
        layers_bin,
        work_dir,
    };
    match bench(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Attempted and failed operations of a run.
#[derive(Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // One budget for the whole run, shared by the client threads.
            static PRINTED: AtomicU64 = AtomicU64::new(0);
            if PRINTED.fetch_add(1, Ordering::Relaxed) < REPORTED_FAILURES {
                println!("FAILED {}", what());
            }
        }
    }

    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    note: String,
    /// Listed in `BENCHMARK.json` and the JSON result; otherwise only
    /// printed.
    gated: bool,
}

/// Prints the metric lines and the closing JSON line.
fn report(metrics: &[Metric], tally: Tally) {
    for m in metrics {
        let v = m.value.map_or("null".to_string(), |v| format!("{v:.6}"));
        let kind = if m.gated { "metric" } else { "report" };
        println!("{kind} {:<30} {v:>16} {:<6} {}", m.name, m.unit, m.note);
    }
    let ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "failed_ratio {ratio} ({} of {} operations)",
        tally.failed, tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.gated)
        .map(|m| {
            let v = m.value.map_or("null".to_string(), |v| format!("{v}"));
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

fn bench(a: &Args) -> Result<i32, String> {
    let kind =
        Kind::parse(&a.workload).ok_or_else(|| format!("unknown workload {}", a.workload))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host nproc={nproc} workload={} seed={} seconds={} trace={} cpu_demand={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        kind.cpu_demand()
    );
    if kind.cpu_demand() > nproc {
        println!(
            "skipped workload={} reason=oversubscribed cpu_demand={} nproc={nproc}",
            a.workload,
            kind.cpu_demand()
        );
        println!(
            "{{\"skipped\": true, \"reason\": \"oversubscribed\", \"cpu_demand\": {}, \"nproc\": {nproc}}}",
            kind.cpu_demand()
        );
        return Ok(3);
    }
    let run_dir = a.work_dir.join(format!(
        "{}-seed{}-{}",
        a.workload,
        a.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let run_dir = run_dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let outcome = Bins::in_dir(&a.bin_dir, &run_dir).and_then(|bins| {
        if a.trace {
            traced(a, kind, &bins, &run_dir, nproc)
        } else {
            untraced(a, kind, &bins, &run_dir)
        }
    });
    let _ = std::fs::remove_dir_all(&run_dir);
    outcome.map(|()| 0)
}

/// Generates the inputs into `dir` and starts a server on them; the
/// timed unit of set-up.
fn set_up(kind: Kind, seed: u64, dir: &Path, bins: &Bins) -> Result<(Inputs, Server), String> {
    let inputs = workload::generate(kind, seed, dir, bins)?;
    let server = Server::start(
        &bins.launcher,
        &bins.titserved,
        &inputs.dir,
        &inputs.dir.join("titserved.log"),
    )?;
    Ok((inputs, server))
}

/// The CLI references of a set-up, plus the pin check at the default
/// seed (a moved pin is one failed operation).
fn cli_references(
    kind: Kind,
    seed: u64,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<Vec<CliExpect>, String> {
    let expects: Vec<CliExpect> = inputs
        .cli
        .iter()
        .map(check::cli_expect)
        .collect::<Result<_, _>>()?;
    if seed == workload::DEFAULT_SEED && kind != Kind::Whatif {
        let pin = check::check_pin(kind, &expects[0]);
        tally.op(pin.is_ok(), || pin.clone().unwrap_err());
    }
    Ok(expects)
}

/// Runs `ask` through `titreplay` once and checks its output.
fn cli_run(
    bins: &Bins,
    ask: &Ask,
    expect: &CliExpect,
    tally: &mut Tally,
) -> Result<Option<proc::Finished>, String> {
    let f = proc::run_measured(&bins.launcher, &ask.command(&bins.titreplay))
        .map_err(|e| format!("cannot run titreplay: {e}"))?;
    let ok = check::cli_ok(&f, expect);
    tally.op(ok, || {
        format!(
            "titreplay {}: exit {:?}, stdout {:?} (want {:?}), stderr {:?}",
            ask.trace.display(),
            f.code,
            f.stdout,
            expect.stdout,
            f.stderr.trim()
        )
    });
    Ok(ok.then_some(f))
}

/// `titreplay` runs cycling through a workload's questions. `replay_s`
/// is the median over complete rotations of the mean wall time per
/// question: the 18 questions of `whatif-mix` differ in size, and a
/// plain median over their runs jumps between size classes with small
/// changes in host speed. With one question, as on the replay
/// workloads, it is the plain median of the runs.
struct CliRotation<'a> {
    asks: &'a [Ask],
    expects: Vec<&'a CliExpect>,
    next: usize,
    sum_s: f64,
    all_ok: bool,
    means: Rescaled,
    rss_mb: Vec<f64>,
}

impl<'a> CliRotation<'a> {
    fn new(asks: &'a [Ask], expects: Vec<&'a CliExpect>) -> Self {
        CliRotation {
            asks,
            expects,
            next: 0,
            sum_s: 0.0,
            all_ok: true,
            means: Rescaled::default(),
            rss_mb: Vec::new(),
        }
    }

    /// Runs and checks the next question; a rotation with a failed run
    /// yields no sample.
    fn step(&mut self, bins: &Bins, tally: &mut Tally) -> Result<(), String> {
        let i = self.next % self.asks.len();
        self.next += 1;
        if i == 0 {
            self.sum_s = 0.0;
            self.all_ok = true;
        }
        match cli_run(bins, &self.asks[i], self.expects[i], tally)? {
            Some(f) => {
                self.sum_s += f.wall_s;
                self.rss_mb.push(f.maxrss_kb as f64 / 1024.0);
            }
            None => self.all_ok = false,
        }
        if i + 1 == self.asks.len() && self.all_ok {
            self.means.raw.push(self.sum_s / self.asks.len() as f64);
        }
        Ok(())
    }
}

/// Latencies and counts of a service phase.
#[derive(Default)]
struct Service {
    cold_ms: Rescaled,
    memo_ms: Vec<f64>,
    requests: u64,
    busy_s: f64,
    /// Queries per second of each server lifetime: a service round on a
    /// replay workload, a planning session on `whatif-mix`.
    rates: Vec<f64>,
    tally: Tally,
}

impl Service {
    fn merge(&mut self, other: Service) {
        self.cold_ms.merge(other.cold_ms);
        self.memo_ms.extend(other.memo_ms);
        self.requests += other.requests;
        self.busy_s += other.busy_s;
        self.rates.extend(other.rates);
        self.tally.add(other.tally);
    }

    /// Ends a server lifetime that answered `requests` queries in
    /// `busy_s` seconds.
    fn lifetime(&mut self, requests: u64, busy_s: f64) {
        self.busy_s += busy_s;
        self.rates.push(requests as f64 / busy_s);
    }
}

/// One timed `/predict`. The latency counts as a memo sample when the
/// server says `hit`, else as a cold one. Returns (cache, body) on a 200.
fn predict(addr: &str, body: &str, svc: &mut Service) -> Option<(String, Vec<u8>)> {
    let started = Instant::now();
    let reply = proc::http(addr, "POST", "/predict", body.as_bytes());
    let ms = started.elapsed().as_secs_f64() * 1e3;
    svc.requests += 1;
    match reply {
        Ok(r) if r.status == 200 => {
            if r.cache == "hit" {
                svc.memo_ms.push(ms);
            } else {
                svc.cold_ms.raw.push(ms);
            }
            Some((r.cache, r.body))
        }
        other => {
            svc.tally
                .op(false, || format!("/predict answered {other:?}"));
            None
        }
    }
}

/// A replay workload's service step on a freshly started server: one
/// cold question, then [`HITS_PER_COLD`] repeats, every answer checked.
fn service_round(server: &Server, body: &str, expected: &[u8], svc: &mut Service) {
    let started = Instant::now();
    let requests = svc.requests;
    if let Some((cache, cold)) = predict(&server.addr, body, svc) {
        let ok = check::without_wall_time(&cold) == expected;
        svc.tally.op(ok && cache == "miss", || {
            format!("cold answer ({cache}) differs from the in-process execute body")
        });
        for _ in 0..HITS_PER_COLD {
            if let Some((cache, hit)) = predict(&server.addr, body, svc) {
                svc.tally.op(hit == cold && cache == "hit", || {
                    format!("repeat answer ({cache}) differs from the first answer")
                });
            }
        }
    }
    svc.lifetime(svc.requests - requests, started.elapsed().as_secs_f64());
}

/// Answers of `whatif-mix`, by planning session and question.
type SessionAnswers = Answers<(u64, schedule::Question)>;

/// One planning session of `whatif-mix`: both planners against `addr`
/// for [`SESSION_STEPS`] steps each. Returns the service figures and
/// every answer.
fn whatif_session(
    inputs: &Inputs,
    addr: &str,
    seed: u64,
    session: u64,
) -> (Service, SessionAnswers) {
    let seed = schedule::mix(seed, 3, session);
    let barrier = Barrier::new(2);
    let started = Instant::now();
    let results: Vec<(Service, SessionAnswers)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|id| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client = schedule::Client::new(seed, id);
                    let mut svc = Service::default();
                    let mut answers = Answers::default();
                    while client.step() < SESSION_STEPS {
                        if client.next_is_shared() {
                            barrier.wait();
                        }
                        let q = client.next_step().question();
                        let body = inputs.whatif_ask(q).query_json();
                        if let Some((_, reply)) = predict(addr, &body, &mut svc) {
                            let same = answers.record((session, q), reply);
                            svc.tally
                                .op(same, || format!("answer to {q:?} changed on repeat"));
                        }
                    }
                    (svc, answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Service::default();
    let mut answers = Answers::default();
    for (svc, a) in results {
        total.merge(svc);
        answers.merge(a);
    }
    total.lifetime(total.requests, started.elapsed().as_secs_f64());
    (total, answers)
}

/// Checks every distinct `whatif-mix` answer against an in-process
/// execute of the same question (two threads); a wrong answer fails
/// every request that received it. Adds one operation per question.
fn verify_whatif(inputs: &Inputs, answers: &SessionAnswers, tally: &mut Tally) {
    let keys: Vec<_> = answers.by_key.iter().collect();
    let exec = Executor::default();
    let chunks: Vec<Vec<bool>> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(keys.len().div_ceil(2).max(1))
            .map(|chunk| {
                let exec = &exec;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|((_, q), (body, _, _))| {
                            exec.expected_body(&inputs.whatif_ask(*q))
                                .is_ok_and(|e| e == check::without_wall_time(body))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread panicked"))
            .collect()
    });
    for ((q, (_, n, _)), ok) in keys.iter().zip(chunks.into_iter().flatten()) {
        tally.op(ok, || {
            format!("answer to {q:?} differs from the in-process execute")
        });
        if !ok {
            tally.attempted += n - 1;
            tally.failed += n - 1;
        }
    }
}

/// The median and the tail of raw `samples`, printed but not gated: on
/// the 2-vCPU host the benchmark was proven on, raw times moved between
/// runs of the same code by about as much as any useful bound (see
/// README.md, "Host spread"). The gated timings are rescaled medians.
fn ms_metrics(p50: &'static str, tail_name: &'static str, samples: &[f64], out: &mut Vec<Metric>) {
    let med = stats::median(samples);
    let tail = stats::tail(samples);
    out.push(Metric {
        name: p50,
        value: med,
        unit: "ms",
        note: format!("(median, n={})", samples.len()),
        gated: false,
    });
    out.push(Metric {
        name: tail_name,
        value: tail.map(|t| t.value),
        unit: "ms",
        note: tail.map_or("(no samples)".into(), |t| t.label()),
        gated: false,
    });
}

/// The timed set-ups of an untraced run (see [`MIN_SETUPS`]).
struct SetUps<'a> {
    kind: Kind,
    seed: u64,
    run_dir: &'a Path,
    bins: &'a Bins,
    times: Rescaled,
}

impl SetUps<'_> {
    /// Times one set-up into a fresh directory, as a stretch of `pacer`
    /// of its own: the caller probed just before.
    fn run(&mut self, pacer: &mut Pacer) -> Result<(Inputs, Server), String> {
        let dir = self.run_dir.join(format!("setup-{}", self.times.raw.len()));
        let started = Instant::now();
        let fresh = set_up(self.kind, self.seed, &dir, self.bins)?;
        self.times.raw.push(started.elapsed().as_secs_f64());
        self.times.end_stretch(pacer.factor());
        Ok(fresh)
    }

    /// Times one more set-up, then stops its server and deletes it, if
    /// set-ups have taken under [`SETUP_SHARE`] of the `elapsed` window.
    fn spread(&mut self, elapsed: Duration, pacer: &mut Pacer) -> Result<(), String> {
        if self.times.raw.iter().sum::<f64>() >= SETUP_SHARE * elapsed.as_secs_f64() {
            return Ok(());
        }
        self.extra(pacer)
    }

    /// Times one more set-up, then stops its server and deletes it.
    fn extra(&mut self, pacer: &mut Pacer) -> Result<(), String> {
        let (inputs, server) = self.run(pacer)?;
        server.shutdown()?;
        let _ = std::fs::remove_dir_all(&inputs.dir);
        Ok(())
    }
}

/// The untraced run: every end-to-end metric.
fn untraced(a: &Args, kind: Kind, bins: &Bins, run_dir: &Path) -> Result<(), String> {
    let mut tally = Tally::default();
    let mut setups = SetUps {
        kind,
        seed: a.seed,
        run_dir,
        bins,
        times: Rescaled::default(),
    };
    let mut pacer = Pacer::new(kind.cpu_demand());
    let (inputs, mut server) = setups.run(&mut pacer)?;
    let expects = cli_references(kind, a.seed, &inputs, &mut tally)?;
    let window = Duration::from_secs(a.seconds);
    let mut svc = Service::default();
    let mut cli = CliRotation::new(&inputs.cli, expects.iter().collect());
    let peak_rss_mb;
    if kind == Kind::Whatif {
        // Planning sessions, each on a fresh server, alternate with
        // rotations through the CLI questions until the window is used,
        // so a slow spell of the host hits both alike. A session and the
        // rotation after it are one stretch of the host-speed probe.
        pacer.restart();
        let started = Instant::now();
        let mut answers = SessionAnswers::default();
        let mut session_rss = Vec::new();
        let mut session = 0;
        loop {
            let (s, answered) = whatif_session(&inputs, &server.addr, a.seed, session);
            svc.merge(s);
            answers.merge(answered);
            session_rss.push(server.shutdown()?.maxrss_kb as f64 / 1024.0);
            session += 1;
            for _ in 0..inputs.cli.len() {
                cli.step(bins, &mut tally)?;
            }
            let f = pacer.factor();
            svc.cold_ms.end_stretch(f);
            cli.means.end_stretch(f);
            setups.spread(started.elapsed(), &mut pacer)?;
            if started.elapsed() >= window {
                break;
            }
            // Each session starts as cold as the first: no side-cars the
            // last server wrote.
            inputs.drop_sidecars()?;
            server = Server::start(
                &bins.launcher,
                &bins.titserved,
                &inputs.dir,
                &inputs.dir.join("titserved.log"),
            )?;
        }
        let verify = Instant::now();
        verify_whatif(&inputs, &answers, &mut tally);
        println!(
            "verified {} distinct answers in-process in {:.2} s",
            answers.by_key.len(),
            verify.elapsed().as_secs_f64()
        );
        peak_rss_mb = (
            stats::median(&session_rss),
            format!("(median over {} titserved sessions)", session_rss.len()),
        );
    } else {
        // CLI runs and service rounds alternate, so host noise hits
        // both alike; every service round gets a fresh server, which
        // makes its first question a cold one. Each CLI run and each
        // service round is one stretch of the host-speed probe.
        let ask = Ask {
            threads: kind.replay_threads(),
            ..inputs.base().clone()
        };
        let body = ask.query_json();
        let expected = Executor::default().expected_body(&ask)?;
        pacer.restart();
        let started = Instant::now();
        loop {
            cli.step(bins, &mut tally)?;
            cli.means.end_stretch(pacer.factor());
            for _ in 0..COLDS_PER_CLI_RUN {
                service_round(&server, &body, &expected, &mut svc);
                svc.cold_ms.end_stretch(pacer.factor());
                server.shutdown()?;
                server = Server::start(
                    &bins.launcher,
                    &bins.titserved,
                    &inputs.dir,
                    &inputs.dir.join("titserved.log"),
                )?;
            }
            setups.spread(started.elapsed(), &mut pacer)?;
            if started.elapsed() >= window {
                break;
            }
        }
        server.shutdown()?;
        peak_rss_mb = (
            stats::median(&cli.rss_mb),
            format!("(median over {} titreplay runs)", cli.rss_mb.len()),
        );
    }
    while setups.times.raw.len() < MIN_SETUPS {
        pacer.restart();
        setups.extra(&mut pacer)?;
    }
    tally.add(svc.tally);
    let mut out = Vec::new();
    let rotations = format!("checked rotations over {} questions", inputs.cli.len());
    let (q1, q3) = stats::quartiles(&cli.means.raw).unwrap_or((0.0, 0.0));
    out.push(Metric {
        name: "replay_s",
        value: stats::median(&cli.means.raw),
        unit: "s",
        note: format!(
            "(median of {} {rotations}; q1 {q1:.4} q3 {q3:.4})",
            cli.means.raw.len()
        ),
        gated: false,
    });
    out.push(Metric {
        name: "replay_nominal_s",
        value: stats::median(&cli.means.rescaled),
        unit: "s",
        note: format!(
            "(median of {} {rotations}, each rescaled to the nominal host speed)",
            cli.means.rescaled.len()
        ),
        gated: true,
    });
    ms_metrics(
        "cold_query_p50_ms",
        "cold_query_tail_ms",
        &svc.cold_ms.raw,
        &mut out,
    );
    out.push(Metric {
        name: "cold_query_p50_nominal_ms",
        value: stats::median(&svc.cold_ms.rescaled),
        unit: "ms",
        note: format!(
            "(median, n={}, each rescaled to the nominal host speed)",
            svc.cold_ms.rescaled.len()
        ),
        gated: true,
    });
    ms_metrics(
        "memo_query_p50_ms",
        "memo_query_tail_ms",
        &svc.memo_ms,
        &mut out,
    );
    out.push(Metric {
        name: "queries_per_s",
        value: stats::median(&svc.rates),
        unit: "1/s",
        note: format!(
            "(median over {} server lifetimes; {} queries in {:.2} s of service)",
            svc.rates.len(),
            svc.requests,
            svc.busy_s
        ),
        // Not gated: on `whatif-mix` it moved between runs of the same
        // code by more than any allowed bound (README.md, "Host spread").
        gated: false,
    });
    out.push(Metric {
        name: "peak_rss_mb",
        value: peak_rss_mb.0,
        unit: "MB",
        note: peak_rss_mb.1,
        gated: true,
    });
    out.push(Metric {
        name: "setup_wall_s",
        value: stats::median(&setups.times.raw),
        unit: "s",
        note: format!("(median of {} set-ups)", setups.times.raw.len()),
        gated: false,
    });
    out.push(Metric {
        name: "setup_s",
        value: stats::median(&setups.times.rescaled),
        unit: "s",
        note: format!(
            "(median of {} set-ups, each rescaled to the nominal host speed)",
            setups.times.rescaled.len()
        ),
        gated: true,
    });
    let probes = pacer.probes();
    let (q1, q3) = stats::quartiles(probes).unwrap_or((0.0, 0.0));
    println!(
        "host speed: probe median {:.6} s (q1 {q1:.6} q3 {q3:.6}) over {} probes; nominal {} s",
        stats::median(probes).unwrap_or(0.0),
        probes.len(),
        speed::NOMINAL_PROBE_S
    );
    report(&out, tally);
    Ok(())
}

/// Reads a number field from the server's flat `/stats` JSON.
fn stats_field(body: &str, key: &str) -> Option<f64> {
    let rest = &body[body.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parses the `counters` child's output: the per-layer metrics only a
/// `profile` build has (`None` = compiled out), and whether it had them.
fn parse_counters(stdout: &str) -> Result<(BTreeMap<String, Option<f64>>, bool), String> {
    let mut metrics = BTreeMap::new();
    let mut compiled_in = false;
    for line in stdout.lines() {
        let bad = || format!("bad counters line {line:?}");
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["profile_counters", on] => compiled_in = *on == "1",
            ["metric", name, "null"] => {
                metrics.insert(name.to_string(), None);
            }
            ["metric", name, v] => {
                metrics.insert(name.to_string(), Some(v.parse().map_err(|_| bad())?));
            }
            _ => return Err(bad()),
        }
    }
    Ok((metrics, compiled_in))
}

/// Per-layer metric names, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 35] = [
    ("titrace.decode_s", "s"),
    ("titrace.actions", "count"),
    ("replay.translate_s", "s"),
    ("smpi.prepare_s", "s"),
    ("smpi.advance_s", "s"),
    ("smpi.finalize_s", "s"),
    ("smpi.messages", "count"),
    ("smpi.eager_ratio", "ratio"),
    ("smpi.max_unexpected_depth", "count"),
    ("simkernel.events", "count"),
    ("simkernel.fel_scheduled", "count"),
    ("simkernel.superseded_ratio", "ratio"),
    ("simkernel.compactions", "count"),
    ("netmodel.flows", "count"),
    ("netmodel.resolves", "count"),
    ("netmodel.rate_updates_per_flow", "ratio"),
    ("netmodel.flushes", "count"),
    ("netmodel.live_flow_hwm", "count"),
    ("replay.scan_s", "s"),
    ("replay.islands", "count"),
    ("replay.worker_work_s", "s"),
    ("replay.barrier_wait_s", "s"),
    ("replay.imbalance", "ratio"),
    ("replay.thread_speedup", "ratio"),
    ("titserved.parse_ms", "ms"),
    ("titserved.resolve_cold_ms", "ms"),
    ("titserved.execute_ms", "ms"),
    ("titserved.hit_ratio", "ratio"),
    ("titserved.joined", "count"),
    ("titserved.executions", "count"),
    ("titserved.cache_bytes", "bytes"),
    ("core.other_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_s", "s"),
    ("trace.untraced_replay_s", "s"),
];

/// The traced run: every per-layer metric, the spans artefact and its
/// self-time table.
fn traced(a: &Args, kind: Kind, bins: &Bins, run_dir: &Path, nproc: usize) -> Result<(), String> {
    let mut t = Tracer::new(&a.workload);
    let mut tally = Tally::default();
    let window = Duration::from_secs(a.seconds);
    let (inputs, server) = t.span("setup", |_| {
        set_up(kind, a.seed, &run_dir.join("setup"), bins)
    })?;
    let expects = t.span("reference", |_| {
        cli_references(kind, a.seed, &inputs, &mut tally)
    })?;

    let layer_expects: Vec<&CliExpect> = inputs
        .cli
        .iter()
        .zip(&expects)
        .filter(|(ask, _)| !ask.msg)
        .map(|(_, e)| e)
        .collect();
    // Layer passes alternate with untraced `titreplay` runs of the same
    // questions, so host drift hits both alike; each reported time is
    // the median over the passes.
    let layer_asks = inputs.layer_asks();
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut cli = CliRotation::new(&layer_asks, layer_expects.clone());
    while passes.len() < MIN_LAYER_PASSES
        || (passes.len() < MAX_LAYER_PASSES && started.elapsed() < window.mul_f64(0.7))
    {
        let pass = t.span("layers", |t| layers::run(kind, &inputs, t))?;
        for (i, &(bits, messages)) in pass.checks.iter().enumerate() {
            let e = layer_expects[i];
            tally.op((e.time_bits, e.messages) == (bits, messages), || {
                format!("layer pass question {i}: simulated time {bits:#x}, {messages} messages differ from the reference")
            });
        }
        passes.push(pass);
        t.span("cli", |_| -> Result<(), String> {
            for _ in 0..CLI_RUNS_PER_PASS * layer_asks.len() {
                cli.step(bins, &mut tally)?;
            }
            Ok(())
        })?;
    }
    let layers = layers::Layers::median(&passes);
    // The profile-only counters, from the profiled build.
    let (counters, profiled) = t.span("counters", |_| {
        let f = proc::run_ok(
            Command::new(&a.layers_bin)
                .args(["counters", "--workload", &a.workload, "--inputs"])
                .arg(&inputs.dir),
        )?;
        parse_counters(&f.stdout)
    })?;
    let replay_s = stats::median(&cli.means.raw).unwrap_or(0.0);

    // A fixed schedule against the live server, then its /stats.
    let (svc, stats_body) = t.span("service", |_| -> Result<(Service, String), String> {
        let svc = if kind == Kind::Whatif {
            let (svc, answers) = whatif_session(&inputs, &server.addr, a.seed, 0);
            verify_whatif(&inputs, &answers, &mut tally);
            svc
        } else {
            let ask = Ask {
                threads: kind.replay_threads(),
                ..inputs.base().clone()
            };
            let expected = Executor::default().expected_body(&ask)?;
            let mut svc = Service::default();
            service_round(&server, &ask.query_json(), &expected, &mut svc);
            svc
        };
        let stats = proc::http(&server.addr, "GET", "/stats", b"")
            .map_err(|e| format!("GET /stats: {e}"))?;
        Ok((svc, String::from_utf8_lossy(&stats.body).into_owned()))
    })?;
    tally.add(svc.tally);
    server.shutdown()?;

    let field = |k: &str| stats_field(&stats_body, k);
    let mut values: BTreeMap<String, Option<f64>> = layers
        .metrics
        .iter()
        .map(|(k, v)| (k.to_string(), Some(*v)))
        .collect();
    values.extend(counters);
    values.insert("titserved.hit_ratio".into(), field("hit_rate"));
    values.insert("titserved.joined".into(), field("joined"));
    values.insert("titserved.executions".into(), field("executions"));
    values.insert(
        "titserved.cache_bytes".into(),
        field("memo_bytes")
            .zip(field("trace_cache_bytes"))
            .map(|(m, t)| m + t),
    );
    let layers_s = layers.replay_layers_s(kind);
    let traced_s = layers.sequential_s;
    values.insert("core.other_s".into(), Some(replay_s - layers_s));
    values.insert("trace.traced_s".into(), Some(traced_s));
    values.insert("trace.untraced_replay_s".into(), Some(replay_s));

    let rows = spans::self_times(t.spans(), 0);
    print!("{}", spans::render_table(&rows));
    println!(
        "profile_counters compiled_in={profiled} (FEL and match-queue counters; null when compiled out)"
    );
    println!(
        "replay.thread_speedup base: threads 1 {:.6} s over threads 2 {:.6} s (in-process, per question)",
        layers.threads1_s, layers.threads2_s
    );
    println!(
        "tracing overhead: split sequential replay {traced_s:.6} s vs unsplit in-process {:.6} s \
         (medians of {} passes); untraced titreplay median {replay_s:.6} s over {} rotations; \
         layers {layers_s:.6} s + core.other_s {:.6} s",
        layers.threads1_s,
        passes.len(),
        cli.means.raw.len(),
        replay_s - layers_s
    );
    let artefact_dir = a.work_dir.join("traces");
    std::fs::create_dir_all(&artefact_dir)
        .map_err(|e| format!("{}: {e}", artefact_dir.display()))?;
    let artefact = artefact_dir.join(format!("{}-seed{}.json", a.workload, a.seed));
    let header = [
        ("workload", format!("\"{}\"", a.workload)),
        ("seed", a.seed.to_string()),
        ("nproc", nproc.to_string()),
        (
            "profile_counters",
            if profiled { "true" } else { "null" }.to_string(),
        ),
        ("untraced_replay_s", format!("{replay_s}")),
        ("traced_s", format!("{traced_s}")),
    ];
    std::fs::write(&artefact, spans::to_json(t.spans(), &rows, &header))
        .map_err(|e| format!("{}: {e}", artefact.display()))?;
    println!("spans written to {}", artefact.display());

    let out: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().flatten(),
            unit,
            note: String::new(),
            gated: true,
        })
        .collect();
    report(&out, tally);
    Ok(())
}

/// The `counters` subcommand, run in the profiled build: the counters
/// of the layer questions that only that build has.
fn counters_main(argv: &[String]) -> ! {
    let mut kind = None;
    let mut inputs = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => kind = Kind::parse(value),
            "--inputs" => inputs = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let (Some(kind), Some(dir)) = (kind, inputs) else {
        usage()
    };
    match workload::describe(kind, &dir).and_then(|inputs| layers::counters(&inputs)) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("perfbench counters: {e}");
            std::process::exit(1);
        }
    }
}

/// The `exec-measured` subcommand (see [`proc::Launcher`]).
fn exec_measured_main(argv: &[String]) -> ! {
    let [report, program, args @ ..] = argv else {
        usage()
    };
    match proc::exec_measured(Path::new(report), program, args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench exec-measured: {program}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fields_are_read_from_the_flat_document() {
        let body =
            "{\n  \"queries\": 12,\n  \"hit_rate\": 0.750000,\n  \"trace_cache_bytes\": 99\n}";
        assert_eq!(stats_field(body, "queries"), Some(12.0));
        assert_eq!(stats_field(body, "hit_rate"), Some(0.75));
        assert_eq!(stats_field(body, "trace_cache_bytes"), Some(99.0));
        assert_eq!(stats_field(body, "missing"), None);
    }
}
