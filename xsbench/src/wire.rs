//! The wire side: the `xsd-serve` process, the closed-loop client, and
//! the oracle that checks every answer.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use xsserver::client::{Client, ClientError};

use crate::gen::{Expect, Kind, Request};

/// A running `xsd-serve` on a data directory of its own, with the
/// daemon's default `fsync` durability.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub dir: PathBuf,
}

impl ServerProc {
    pub fn spawn(bin: &Path, dir: &Path) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        die_with_parent(&mut cmd);
        let mut child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("xsd-serve listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("xsd-serve did not report its address (got {line:?})"));
            }
        };
        Ok(ServerProc { child, _stdout: stdout, addr, dir: dir.to_path_buf() })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_timeout(&self.addr, Some(Duration::from_secs(60)))
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// SIGKILL the server and wait until it has exited.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Have the kernel SIGKILL the server if this process dies first, so a
/// benchmark killed from outside leaves no server behind.
#[cfg(target_os = "linux")]
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    // SAFETY: the closure runs in the forked child before exec and only
    // makes one async-signal-safe system call; it touches no memory of
    // the parent and allocates nothing.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_cmd: &mut Command) {}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Check one answer against the generator's expectation.
pub fn check(expect: &Expect, got: &Result<Vec<String>, ClientError>) -> Result<(), String> {
    match (expect, got) {
        (Expect::Fields(want), Ok(fields)) if fields == want => Ok(()),
        (Expect::Fields(want), Ok(fields)) => Err(format!(
            "expected {} field(s) starting {:?}, got {} starting {:?}",
            want.len(),
            want.first(),
            fields.len(),
            fields.first()
        )),
        (Expect::Updated { nodes }, Ok(fields)) => {
            let verdict_ok =
                matches!(fields.first().map(String::as_str), Some("accept" | "recheck"));
            if fields.len() == 3 && verdict_ok && fields[1] == nodes.to_string() {
                Ok(())
            } else {
                Err(format!("expected an accepted update of {nodes} node(s), got {fields:?}"))
            }
        }
        (Expect::Refused(want), Err(ClientError::Status { status, .. })) if status == want => {
            Ok(())
        }
        (Expect::Violates(rule), Ok(fields)) if fields.iter().any(|f| f.contains(rule)) => Ok(()),
        (Expect::Violates(rule), Ok(fields)) => {
            Err(format!("expected a violation of {rule}, got {fields:?}"))
        }
        (want, Err(e)) => Err(format!("expected {want:?}, got error {e}")),
        (want, Ok(fields)) => Err(format!("expected {want:?}, got OK {fields:?}")),
    }
}

/// One request as the wire saw it. Times are offsets from the start of
/// the warm-up.
#[derive(Debug, Clone)]
pub struct Sample {
    pub client: usize,
    pub kind: Kind,
    pub sent: Duration,
    pub done: Duration,
    pub ok: bool,
    pub probe: bool,
}

impl Sample {
    /// Latency as the user sees it: from send to answer.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// What one client thread did: its requests in order, each with its
/// sample, and the first few mismatches for the report.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub requests: Vec<Request>,
    pub samples: Vec<Sample>,
    pub errors: Vec<String>,
    /// Time spent recording spans, when tracing.
    pub trace_cost: Duration,
}

impl ClientLog {
    fn note_error(&mut self, kind: Kind, msg: String) {
        if self.errors.len() < 5 {
            self.errors.push(format!("{}: {msg}", kind.name()));
        }
    }
}

/// Send one request and check the answer.
pub fn send_checked(client: &mut Client, req: &Request) -> Result<(), String> {
    let got = client.request(req.op, &req.field_refs());
    check(&req.expect, &got)
}

/// Records each request into the log; with `trace` it also keeps the
/// request itself for the replay, and charges the bookkeeping to
/// `trace_cost`.
fn record(log: &mut ClientLog, trace: bool, req: Request, sample: Sample, err: Option<String>) {
    if let Some(e) = err {
        log.note_error(req.kind, e);
    }
    if trace {
        let t = Instant::now();
        log.requests.push(req);
        log.samples.push(sample);
        log.trace_cost += t.elapsed();
    } else {
        log.samples.push(sample);
    }
}

/// A closed loop: send the next request when the previous reply lands,
/// until `end`.
pub fn closed_loop(
    client_id: usize,
    mut send: impl FnMut(&Request) -> Result<(), String>,
    mut next: impl FnMut() -> Request,
    start: Instant,
    end: Instant,
    trace: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let req = next();
        let sent = now - start;
        let res = send(&req);
        let done = start.elapsed();
        let sample = Sample {
            client: client_id,
            kind: req.kind,
            sent,
            done,
            ok: res.is_ok(),
            probe: req.probe,
        };
        record(&mut log, trace, req, sample, res.err());
    }
    log
}
