//! Child processes (timed, with their peak resident memory), the
//! `titserved` server process, and a minimal HTTP/1.1 client.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    /// Exit code; `None` when killed by a signal.
    pub code: Option<i32>,
    /// Peak resident set size, KiB.
    pub maxrss_kb: u64,
}

/// Waits for `child` and returns its exit code and peak RSS. The child
/// must not have been waited for through `std` before.
pub fn reap(child: &Child) -> io::Result<Reaped> {
    wait(child, false).map(|r| r.expect("blocking wait4 returns the child"))
}

/// Like [`reap`], but gives up after `timeout` and returns `None`.
fn reap_within(child: &Child, timeout: Duration) -> io::Result<Option<Reaped>> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(r) = wait(child, true)? {
            return Ok(Some(r));
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One `wait4` on `child`; with `nohang`, `None` while it still runs.
fn wait(child: &Child, nohang: bool) -> io::Result<Option<Reaped>> {
    const WNOHANG: i32 = 1;
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child; `status` and `usage`
        // are live, properly aligned locals of the layout `wait4`
        // writes (`int` and the 64-bit Linux `struct rusage`).
        let r = unsafe {
            wait4(
                pid,
                &mut status,
                if nohang { WNOHANG } else { 0 },
                &mut usage,
            )
        };
        if r == 0 && nohang {
            return Ok(None);
        }
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Some(Reaped {
        code,
        maxrss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
    }))
}

/// A finished, timed child process.
#[derive(Debug)]
pub struct Finished {
    /// Exit code; `None` when killed by a signal.
    pub code: Option<i32>,
    /// Seconds from spawn to reaped exit.
    pub wall_s: f64,
    /// Peak resident set size, KiB.
    pub maxrss_kb: u64,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
}

impl Finished {
    /// True on exit code 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Runs `cmd` to completion, timing it from spawn to exit and capturing
/// both output streams (the programs timed here print a few lines, far
/// below a pipe's capacity, so reading one stream after the other
/// cannot stall the child).
pub fn run(cmd: &mut Command) -> io::Result<Finished> {
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stdout = String::new();
    let mut stderr = String::new();
    let out = child.stdout.take().expect("stdout is piped");
    let err = child.stderr.take().expect("stderr is piped");
    let read = BufReader::new(out)
        .read_to_string(&mut stdout)
        .and_then(|_| BufReader::new(err).read_to_string(&mut stderr));
    let reaped = reap(&child)?;
    let wall_s = started.elapsed().as_secs_f64();
    read?;
    Ok(Finished {
        code: reaped.code,
        wall_s,
        maxrss_kb: reaped.maxrss_kb,
        stdout,
        stderr,
    })
}

/// Like [`run`], but through the [`Launcher`], so the peak RSS and the
/// wall time are the program's own.
pub fn run_measured(launcher: &Launcher, cmd: &Command) -> io::Result<Finished> {
    let (mut wrapped, report) = launcher.wrap(cmd);
    let f = run(&mut wrapped)?;
    let (r, wall_s) = read_report(&report)?;
    Ok(Finished {
        code: r.code,
        wall_s,
        maxrss_kb: r.maxrss_kb,
        ..f
    })
}

/// Starts programs whose peak RSS is measured through a copy of this
/// program (`perfbench exec-measured`), which runs the program as its
/// own child and writes its exit code, wall time and peak RSS to a
/// report file. Linux seeds a new process's peak RSS (`ru_maxrss`) with
/// that of the process it was spawned from, so a program spawned from
/// here directly would report at least this process's own peak (the
/// in-process references reach tens of MB); the launcher's own peak,
/// about 1 MB, is the floor instead.
pub struct Launcher {
    exe: PathBuf,
    dir: PathBuf,
    next: AtomicU64,
}

impl Launcher {
    /// A launcher running this executable, writing reports into `dir`.
    pub fn new(dir: &Path) -> io::Result<Launcher> {
        Ok(Launcher {
            exe: std::env::current_exe()?,
            dir: dir.to_path_buf(),
            next: AtomicU64::new(0),
        })
    }

    /// `cmd` (program, arguments and directory) run through the
    /// launcher, and the path of its report.
    fn wrap(&self, cmd: &Command) -> (Command, PathBuf) {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let report = self.dir.join(format!("exec-{n}.report"));
        let mut wrapped = Command::new(&self.exe);
        wrapped
            .arg("exec-measured")
            .arg(&report)
            .arg(cmd.get_program())
            .args(cmd.get_args());
        if let Some(dir) = cmd.get_current_dir() {
            wrapped.current_dir(dir);
        }
        (wrapped, report)
    }
}

/// The body of `perfbench exec-measured <report> <program> [args...]`:
/// runs the program with this process's standard streams, writes
/// `<exit code|signal> <wall s> <peak RSS KiB>` to `report` and exits
/// with the program's code. The program is killed if this process dies.
pub fn exec_measured(report: &Path, program: &str, args: &[String]) -> io::Result<i32> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    // SAFETY: `prctl(PR_SET_PDEATHSIG)` only sets a flag of the calling
    // (forked, not yet exec'd) process; it allocates nothing.
    unsafe {
        cmd.pre_exec(|| {
            const PR_SET_PDEATHSIG: i32 = 1;
            const SIGKILL: std::ffi::c_ulong = 9;
            if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        });
    }
    let started = Instant::now();
    let child = cmd.spawn()?;
    let reaped = reap(&child)?;
    let wall_s = started.elapsed().as_secs_f64();
    let code = reaped.code.map_or("signal".to_string(), |c| c.to_string());
    std::fs::write(report, format!("{code} {wall_s} {}\n", reaped.maxrss_kb))?;
    Ok(reaped.code.unwrap_or(1))
}

/// Reads and removes a report of [`exec_measured`]: how the program
/// ended, and its wall time.
fn read_report(path: &Path) -> io::Result<(Reaped, f64)> {
    let text = std::fs::read_to_string(path)?;
    let _ = std::fs::remove_file(path);
    let bad = || io::Error::other(format!("malformed launcher report {text:?}"));
    let fields: Vec<&str> = text.split_whitespace().collect();
    let [code, wall_s, maxrss_kb] = fields.as_slice() else {
        return Err(bad());
    };
    let reaped = Reaped {
        code: code.parse().ok(),
        maxrss_kb: maxrss_kb.parse().map_err(|_| bad())?,
    };
    Ok((reaped, wall_s.parse().map_err(|_| bad())?))
}

/// Runs `cmd` and fails unless it exits with 0.
pub fn run_ok(cmd: &mut Command) -> Result<Finished, String> {
    let f = run(cmd).map_err(|e| format!("cannot run {cmd:?}: {e}"))?;
    if !f.ok() {
        return Err(format!(
            "{cmd:?} exited with {:?}: {}",
            f.code,
            f.stderr.trim()
        ));
    }
    Ok(f)
}

/// One HTTP response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Value of `x-titserved-cache` (`miss`, `joined`, `hit`), or empty.
    pub cache: String,
    /// Response body.
    pub body: Vec<u8>,
}

/// Sends one request on a fresh connection and reads the response to
/// the end (the server closes every connection after one response).
pub fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    stream.write_all(&req)?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw).ok_or_else(|| io::Error::other("malformed HTTP response"))
}

fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let mut cache = String::new();
    let mut len = None;
    for line in lines {
        let (name, value) = line.split_once(':')?;
        match name.trim().to_ascii_lowercase().as_str() {
            "x-titserved-cache" => cache = value.trim().to_string(),
            "content-length" => len = value.trim().parse::<usize>().ok(),
            _ => {}
        }
    }
    let body = raw[split + 4..].to_vec();
    (len == Some(body.len())).then_some(Reply {
        status,
        cache,
        body,
    })
}

/// A running `titserved serve` process, started through the
/// [`Launcher`].
pub struct Server {
    /// The launcher process, whose child is the server.
    child: Child,
    report: PathBuf,
    _stdout: BufReader<ChildStdout>,
    /// `host:port` it listens on.
    pub addr: String,
    reaped: bool,
}

impl Server {
    /// Starts `titserved serve` on an ephemeral loopback port with its
    /// default workers, sends its access log to `log`, and waits until
    /// `/healthz` answers 200.
    pub fn start(
        launcher: &Launcher,
        bin: &Path,
        cwd: &Path,
        log: &Path,
    ) -> Result<Server, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut serve = Command::new(bin);
        serve.args(["serve", "--port", "0"]).current_dir(cwd);
        let (mut cmd, report) = launcher.wrap(&serve);
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening http://")
            .map(str::to_string);
        let mut server = Server {
            child,
            report,
            _stdout: stdout,
            addr: addr.unwrap_or_default(),
            reaped: false,
        };
        if read.is_err() || server.addr.is_empty() {
            return Err(format!("titserved did not report its address: {line:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match http(&server.addr, "GET", "/healthz", b"") {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                _ => {
                    server.kill();
                    return Err("titserved never answered /healthz".into());
                }
            }
        }
    }

    /// Asks the server to shut down and waits for it to exit; returns
    /// how it ended (its peak RSS included). The server may exit before
    /// its answer to `/shutdown` is written, so only the exit counts.
    pub fn shutdown(mut self) -> Result<Reaped, String> {
        let _ = http(&self.addr, "POST", "/shutdown", b"");
        match reap_within(&self.child, Duration::from_secs(30)) {
            Ok(Some(_)) => {
                self.reaped = true;
                read_report(&self.report)
                    .map(|(r, _)| r)
                    .map_err(|e| format!("titserved report: {e}"))
            }
            Ok(None) => {
                self.kill();
                Err("titserved did not exit after /shutdown".into())
            }
            Err(e) => Err(format!("waiting for titserved: {e}")),
        }
    }

    fn kill(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = reap(&self.child);
            self.reaped = true;
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_parsed_and_length_checked() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nX-Titserved-Cache: hit\r\n\r\nok";
        let r = parse_reply(raw).unwrap();
        assert_eq!(
            (r.status, r.cache.as_str(), r.body.as_slice()),
            (200, "hit", &b"ok"[..])
        );
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nok").is_none());
    }

    #[test]
    fn exec_measured_reports_exit_code_wall_time_and_rss() {
        let report =
            std::env::temp_dir().join(format!("perfbench-test-{}.report", std::process::id()));
        let code = exec_measured(&report, "sh", &["-c".into(), "exit 3".into()]).unwrap();
        assert_eq!(code, 3);
        let (r, wall_s) = read_report(&report).unwrap();
        assert_eq!(r.code, Some(3));
        assert!(wall_s > 0.0 && r.maxrss_kb > 0);
        assert!(!report.exists(), "a report is removed once read");
    }

    #[test]
    fn run_times_and_reaps_a_child() {
        let f = run(Command::new("sh").args(["-c", "echo out; echo err >&2; exit 3"])).unwrap();
        assert_eq!(f.code, Some(3));
        assert_eq!((f.stdout.as_str(), f.stderr.as_str()), ("out\n", "err\n"));
        assert!(f.wall_s > 0.0 && f.maxrss_kb > 0);
    }
}
