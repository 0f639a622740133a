//! The four workloads: how their inputs are generated from a seed, and
//! the replay questions a run asks of `titreplay` and `titserved`.

use std::path::{Path, PathBuf};
use std::process::Command;

use tit_replay::platform::spec::SpecKind;
use tit_replay::prelude::*;
use tit_replay::titrace::stream;

use crate::proc::{self, Launcher};
use crate::schedule::{self, mix};

/// Seed whose replay results are pinned bit for bit.
pub const DEFAULT_SEED: u64 = 1;

/// Rate every replay workload is asked at, instructions/s.
const REPLAY_RATE: f64 = 2.0e9;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// LU class C, 64 ranks, `.titb`: the paper's workload.
    Lu,
    /// Collective-dense allreduce loop, 128 ranks.
    Allreduce,
    /// Per-cabinet halo exchange, 128 ranks in 16 islands, 2 threads.
    Halo,
    /// `titserved` under two closed-loop planners.
    Whatif,
}

impl Kind {
    /// Every workload name, in `BENCHMARK.json` order.
    pub const NAMES: [&'static str; 4] = ["lu-c64", "allreduce-p128", "halo-p128", "whatif-mix"];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "lu-c64" => Some(Kind::Lu),
            "allreduce-p128" => Some(Kind::Allreduce),
            "halo-p128" => Some(Kind::Halo),
            "whatif-mix" => Some(Kind::Whatif),
            _ => None,
        }
    }

    /// Replay threads of one replay (`--threads` / query `threads`).
    pub fn replay_threads(self) -> usize {
        match self {
            Kind::Halo => 2,
            _ => 1,
        }
    }

    /// Threads that compute at the same time during the measurement:
    /// the replay threads of the one replay in flight, or on
    /// `whatif-mix` one per closed-loop client (each client either
    /// waits for its answer or is served by one replay thread, never
    /// both). The benchmark's own thread only waits.
    pub fn cpu_demand(self) -> usize {
        match self {
            Kind::Whatif => 2,
            other => other.replay_threads(),
        }
    }
}

/// One replay question: the inputs of a `titreplay` run, which are also
/// the inputs of a `/predict` query.
#[derive(Debug, Clone)]
pub struct Ask {
    /// Absolute trace path.
    pub trace: PathBuf,
    /// Ranks of the trace.
    pub ranks: u32,
    /// Platform spec (inlined into queries).
    pub spec: PlatformSpec,
    /// The same spec as a file (for the CLI).
    pub spec_path: PathBuf,
    /// MSG engine instead of SMPI.
    pub msg: bool,
    /// Instruction rate, instructions/s.
    pub rate: f64,
    /// Replay threads.
    pub threads: usize,
}

impl Ask {
    /// The replay configuration `titreplay` builds from these flags
    /// (CLI defaults for everything not given).
    pub fn config(&self) -> ReplayConfig {
        ReplayConfig {
            engine: if self.msg {
                ReplayEngine::Msg
            } else {
                ReplayEngine::Smpi
            },
            rate: self.rate,
            placement: Placement::OnePerNode,
            copy_model: None,
            sharing: tit_replay::netmodel::SharingPolicy::Bottleneck,
            fel: tit_replay::simkernel::FelImpl::default(),
            threads: self.threads,
            window_s: None,
            collective_agg: false,
        }
    }

    /// The `titreplay` invocation of this question.
    pub fn command(&self, titreplay: &Path) -> Command {
        let mut cmd = Command::new(titreplay);
        cmd.arg("--platform")
            .arg(&self.spec_path)
            .arg("--trace")
            .arg(&self.trace)
            .args(["--ranks", &self.ranks.to_string()])
            .args(["--rate", &format!("{}", self.rate)])
            .args(["--engine", if self.msg { "msg" } else { "smpi" }])
            .args(["--threads", &self.threads.to_string()]);
        cmd
    }

    /// The `/predict` body of this question.
    pub fn query_json(&self) -> String {
        format!(
            "{{\"trace\": \"{}\", \"ranks\": {}, \"platform\": {}, \
             \"config\": {{\"rate\": {}, \"engine\": \"{}\", \"threads\": {}}}}}",
            self.trace.display(),
            self.ranks,
            self.spec.to_json(),
            self.rate,
            if self.msg { "msg" } else { "smpi" },
            self.threads
        )
    }

    /// The trace as a replay input.
    pub fn input(&self) -> Result<TraceInput, String> {
        TraceInput::detect(&self.trace).map_err(|e| e.to_string())
    }
}

/// Paths of the programs under test.
pub struct Bins {
    /// `titrace-gen`.
    pub gen: PathBuf,
    /// `titreplay`.
    pub titreplay: PathBuf,
    /// `titserved`.
    pub titserved: PathBuf,
    /// Starts `titreplay` and `titserved` so that their peak RSS is
    /// their own.
    pub launcher: Launcher,
}

impl Bins {
    /// The release binaries in `dir`, with a launcher writing its
    /// reports into `reports`; fails when a program is missing.
    pub fn in_dir(dir: &Path, reports: &Path) -> Result<Bins, String> {
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let bins = Bins {
            gen: dir.join("titrace-gen"),
            titreplay: dir.join("titreplay"),
            titserved: dir.join("titserved"),
            launcher: Launcher::new(reports).map_err(|e| format!("perfbench executable: {e}"))?,
        };
        for b in [&bins.gen, &bins.titreplay, &bins.titserved] {
            if !b.is_file() {
                return Err(format!("missing program {}", b.display()));
            }
        }
        Ok(bins)
    }
}

/// The small merged-text LU traces `whatif-mix` asks about:
/// (class, ranks, steps).
const WHATIF_TRACES: [(&str, u32, u32); schedule::TRACES as usize] =
    [("S", 4, 4), ("S", 8, 4), ("W", 8, 2)];

/// Generated inputs of one set-up.
pub struct Inputs {
    /// The set-up's directory (absolute).
    pub dir: PathBuf,
    /// Questions of the CLI phase, asked in rotation.
    pub cli: Vec<Ask>,
    /// `whatif-mix` only: per trace, the copy the server reads (path,
    /// ranks).
    pub served: Vec<(PathBuf, u32)>,
    /// `whatif-mix` only: the platform spec for each bandwidth.
    pub specs: Vec<PlatformSpec>,
}

impl Inputs {
    /// The question `q` of the `whatif-mix` schedule, on the served
    /// trace copies.
    pub fn whatif_ask(&self, q: schedule::Question) -> Ask {
        let (trace, ranks) = self.served[q.trace as usize].clone();
        Ask {
            trace,
            ranks,
            spec: self.specs[q.bandwidth as usize].clone(),
            // Served questions inline their platform; only the CLI reads
            // spec files.
            spec_path: PathBuf::new(),
            msg: q.msg,
            rate: q.rate(),
            threads: 1,
        }
    }

    /// Deletes the `.titb` side-cars the server wrote next to the served
    /// merged-text traces, so that the next server's first touch of each
    /// trace decodes the text again.
    pub fn drop_sidecars(&self) -> Result<(), String> {
        for (trace, _) in &self.served {
            let sidecar = stream::sidecar_path(trace);
            match std::fs::remove_file(&sidecar) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("{}: {e}", sidecar.display()))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The replay workloads' one question (the `--trace 1` layer pass
    /// and the service phase ask it too).
    pub fn base(&self) -> &Ask {
        &self.cli[0]
    }

    /// The SMPI questions the layer pass decomposes: the one question of
    /// a replay workload; on `whatif-mix` the SMPI questions of the CLI
    /// rotation (one per trace and bandwidth).
    pub fn layer_asks(&self) -> Vec<Ask> {
        self.cli.iter().filter(|a| !a.msg).cloned().collect()
    }
}

/// Bytes per message of the allreduce and halo traces, 64 to 92 KiB, so
/// the protocols do not change with the seed: halo messages stay on
/// rendezvous, and allreduce stays on the ring algorithm, whose chunks
/// (bytes / 128 ranks) are eager.
fn message_bytes(seed: u64) -> u64 {
    65536 + 4096 * (mix(seed, 1, 0) % 8)
}

/// Generates the workload's inputs into `dir` (created fresh). This is
/// the timed part of set-up, apart from starting the server.
pub fn generate(kind: Kind, seed: u64, dir: &Path, bins: &Bins) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    if kind == Kind::Whatif {
        return generate_whatif(seed, &dir, bins);
    }
    let (gen_args, ranks): (Vec<String>, u32) = match kind {
        Kind::Lu => (
            vec![
                "--class".into(),
                "C".into(),
                "--procs".into(),
                "64".into(),
                "--steps".into(),
                "5".into(),
                "--seed".into(),
                seed.to_string(),
            ],
            64,
        ),
        Kind::Allreduce | Kind::Halo => {
            let (workload, steps) = if kind == Kind::Halo {
                ("halo", "2000")
            } else {
                ("allreduce", "1")
            };
            (
                vec![
                    "--workload".into(),
                    workload.into(),
                    "--procs".into(),
                    "128".into(),
                    "--steps".into(),
                    steps.into(),
                    "--bytes".into(),
                    message_bytes(seed).to_string(),
                ],
                128,
            )
        }
        Kind::Whatif => unreachable!("handled above"),
    };
    let text = dir.join("trace.txt");
    let titb = dir.join("trace.titb");
    proc::run_ok(
        Command::new(&bins.gen)
            .args(&gen_args)
            .arg("--out")
            .arg(&text),
    )?;
    proc::run_ok(
        Command::new(&bins.titreplay)
            .args(["trace", "pack"])
            .arg(&text)
            .arg(&titb)
            .args(["--ranks", &ranks.to_string()]),
    )?;
    // The text form is only an intermediate of set-up.
    std::fs::remove_file(&text).map_err(|e| format!("{}: {e}", text.display()))?;
    describe(kind, &dir)
}

/// Rebuilds the questions of a set-up that [`generate`] wrote to `dir`.
pub fn describe(kind: Kind, dir: &Path) -> Result<Inputs, String> {
    if kind == Kind::Whatif {
        return describe_whatif(dir);
    }
    let spec_path = dir.join("trace.txt.platform.json");
    let ask = Ask {
        trace: dir.join("trace.titb"),
        ranks: if kind == Kind::Lu { 64 } else { 128 },
        spec: read_spec(&spec_path)?,
        spec_path,
        msg: false,
        rate: REPLAY_RATE,
        threads: kind.replay_threads(),
    };
    Ok(Inputs {
        dir: dir.to_path_buf(),
        cli: vec![ask],
        served: Vec::new(),
        specs: Vec::new(),
    })
}

fn read_spec(path: &Path) -> Result<PlatformSpec, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    PlatformSpec::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
}

fn generate_whatif(seed: u64, dir: &Path, bins: &Bins) -> Result<Inputs, String> {
    let served_dir = dir.join("served");
    let cli_dir = dir.join("cli");
    for d in [&served_dir, &cli_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let mut base_spec = None;
    for (i, (class, ranks, steps)) in WHATIF_TRACES.iter().enumerate() {
        let name = format!("lu-{class}-{ranks}.txt");
        let path = served_dir.join(&name);
        proc::run_ok(
            Command::new(&bins.gen)
                .args(["--class", class, "--procs", &ranks.to_string()])
                .args(["--steps", &steps.to_string()])
                .args(["--seed", &mix(seed, 2, i as u64).to_string()])
                .arg("--out")
                .arg(&path),
        )?;
        // The CLI phase gets its own copy, so its `.titb` side-cars never
        // warm the server's first touch of a trace.
        let copy = cli_dir.join(&name);
        std::fs::copy(&path, &copy).map_err(|e| format!("{}: {e}", copy.display()))?;
        if base_spec.is_none() {
            base_spec = Some(read_spec(
                &served_dir.join(format!("{name}.platform.json")),
            )?);
        }
    }
    let base_spec = base_spec.expect("at least one trace");
    for (k, bw) in schedule::BANDWIDTHS.iter().enumerate() {
        let mut spec = base_spec.clone();
        if let SpecKind::Flat { link_bandwidth, .. } = &mut spec.kind {
            *link_bandwidth = *bw;
        }
        spec.name = format!("bordereau-bw{k}");
        let path = cli_dir.join(format!("bw{k}.platform.json"));
        std::fs::write(&path, spec.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    describe_whatif(dir)
}

fn describe_whatif(dir: &Path) -> Result<Inputs, String> {
    let mut specs = Vec::new();
    let mut spec_paths = Vec::new();
    for k in 0..schedule::BANDWIDTHS.len() {
        let path = dir.join("cli").join(format!("bw{k}.platform.json"));
        specs.push(read_spec(&path)?);
        spec_paths.push(path);
    }
    let traces: Vec<(String, u32)> = WHATIF_TRACES
        .iter()
        .map(|(class, ranks, _)| (format!("lu-{class}-{ranks}.txt"), *ranks))
        .collect();
    let served = traces
        .iter()
        .map(|(name, ranks)| (dir.join("served").join(name), *ranks))
        .collect();
    // The CLI rotation: every trace x bandwidth x engine at one rate
    // that no schedule question uses.
    let mut cli = Vec::new();
    for (t, (name, ranks)) in traces.iter().enumerate() {
        for (b, (spec, spec_path)) in specs.iter().zip(&spec_paths).enumerate() {
            for msg in [false, true] {
                cli.push(Ask {
                    trace: dir.join("cli").join(name),
                    ranks: *ranks,
                    spec: spec.clone(),
                    spec_path: spec_path.clone(),
                    msg,
                    rate: schedule::Question::unswept(t as u8, msg, b as u8).rate(),
                    threads: 1,
                });
            }
        }
    }
    Ok(Inputs {
        dir: dir.to_path_buf(),
        cli,
        served,
        specs,
    })
}
