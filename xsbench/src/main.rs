//! `xsbench` — the repository's benchmark: `xsd-serve` driven over the
//! wire by seeded workloads, with a traced per-layer replay.
//!
//! ```text
//! xsbench --server PATH --workload NAME --seed N --seconds S --trace 0|1 [--data DIR]
//! ```
//!
//! Run it through `xsbench/run.sh`, which builds the server and this
//! benchmark first. The last line of standard output is one JSON object:
//! the end-to-end metrics without `--trace`, the per-layer metrics with
//! it. The exit code is non-zero when any answer, the restart check or
//! the revalidation after it fails. See `xsbench/NOTES.md`.

mod gen;
mod metrics;
mod replay;
#[cfg(test)]
mod tests;
mod wire;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use gen::{Class, Probe, QueryWide, Request, Rng, UpdateDurable, Workload, CLIENTS};
use metrics::{median, Metrics};
use wire::{closed_loop, send_checked, ClientLog, Sample, ServerProc};

struct Args {
    server: PathBuf,
    data: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: xsbench --server PATH --workload query_wide|update_durable \
                     --seed N --seconds S --trace 0|1 [--data DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut server = None;
    let mut data = PathBuf::from(".bench_data");
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} needs a number\n{USAGE}"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--data" => data = PathBuf::from(value),
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        server: server.ok_or_else(|| format!("--server is required\n{USAGE}"))?,
        data,
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds: seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?,
        trace,
    })
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Reopenings of the killed server's directory; `recovery_s` is their median.
const RECOVERIES: usize = 9;
/// Pause before each reopening. The same reopening ran at about 0.22 s
/// or about 0.33 s on a shared 2-vCPU VM, the level switching every few
/// seconds with the host; spread over some 13 s instead of 3 s, the
/// median of nine moved between runs by 0.10 of itself instead of 0.43.
const RECOVERY_PAUSE: Duration = Duration::from_millis(1200);
/// Untimed seconds of the workload before the timed phase.
const WARMUP: Duration = Duration::from_secs(5);
/// Longest replay of the clients' requests in a traced run.
const REPLAY_BUDGET: Duration = Duration::from_secs(20);
/// Writes sent after the last SAVE and before the SIGKILL.
const TAIL_WRITES: usize = 8;
/// PING round trips measured on the idle server in a traced run.
const PINGS: usize = 1000;

/// The clients of one workload, each with its model of what it wrote.
enum Clients {
    Query(Vec<QueryWide>),
    Update(Vec<UpdateDurable>),
}

/// Everything a run sends, and the model of what the server holds.
struct Corpus {
    setup: Vec<Request>,
    clients: Clients,
    probes: Vec<Probe>,
    workload: Workload,
}

impl Corpus {
    fn new(w: Workload, seed: u64) -> Corpus {
        let rng = Rng::new(seed);
        let probes: Vec<Probe> = (0..CLIENTS).map(|c| Probe::new(c, &rng)).collect();
        let mut setup = vec![gen::schema()];
        setup.extend(probes.iter().map(|p| p.client.setup()));
        let clients = match w {
            Workload::QueryWide => {
                let c: Vec<_> = (0..CLIENTS).map(|i| QueryWide::new(i, &rng)).collect();
                setup.extend(c.iter().map(|q| q.client.setup()));
                Clients::Query(c)
            }
            Workload::UpdateDurable => {
                let c: Vec<_> = (0..CLIENTS).map(|i| UpdateDurable::new(i, &rng)).collect();
                setup.extend(c.iter().map(|u| u.client.setup()));
                Clients::Update(c)
            }
        };
        Corpus { setup, clients, probes, workload: w }
    }

    /// Every live document as (name, expected text).
    fn live_docs(&self) -> Vec<(String, String)> {
        let mut docs: Vec<(String, String)> =
            self.probes.iter().map(|p| (p.client.doc.clone(), p.client.store.to_xml())).collect();
        match &self.clients {
            Clients::Query(c) => {
                docs.extend(c.iter().map(|q| (q.client.doc.clone(), q.client.store.to_xml())))
            }
            Clients::Update(c) => {
                docs.extend(c.iter().map(|u| (u.client.doc.clone(), u.client.store.to_xml())))
            }
        }
        docs.sort();
        docs
    }

    /// The seeded writes sent after the last SAVE: the restart check
    /// requires every one of them after the SIGKILL.
    fn tail(&mut self) -> Vec<Request> {
        let mut out: Vec<Request> = self
            .probes
            .iter_mut()
            .flat_map(|p| (0..TAIL_WRITES).map(|_| p.next(Class::Write)).collect::<Vec<_>>())
            .collect();
        match &mut self.clients {
            Clients::Query(c) => {
                for q in c {
                    out.extend((0..TAIL_WRITES).map(|_| q.client.replace_value(false).0));
                }
            }
            Clients::Update(c) => {
                for u in c {
                    out.extend((0..TAIL_WRITES).map(|_| u.client.replace_value(true).0));
                }
            }
        }
        out
    }
}

/// Sizes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map(|m| m.len()).unwrap_or(0),
        })
        .sum()
}

/// Windows the timed phase is cut into for `throughput_ops_s`.
const WINDOWS: u32 = 5;

/// Successful requests of the workload's own mix per second: the median
/// over equal windows of the timed phase, so that a burst of noise from
/// outside the benchmark moves one window, not the result. A window's
/// rate is its completions over the time between its first and last.
fn windowed_throughput(samples: &[&Sample], seconds: u64) -> f64 {
    let window = seconds as f64 / WINDOWS as f64;
    let mut spans: Vec<(usize, f64, f64)> = vec![(0, f64::MAX, 0.0); WINDOWS as usize];
    for s in samples.iter().filter(|s| s.ok && !s.probe) {
        let t = (s.done - WARMUP).as_secs_f64();
        if let Some((n, first, last)) = spans.get_mut((t / window) as usize) {
            *n += 1;
            *first = first.min(t);
            *last = last.max(t);
        }
    }
    let rates: Vec<f64> = spans
        .iter()
        .filter(|(n, first, last)| *n > 1 && last > first)
        .map(|(n, first, last)| (n - 1) as f64 / (last - first))
        .collect();
    median(&rates)
}

/// A closed-loop client's requests: its own mix, each request followed
/// by the probe `cycle` names for it.
fn interleave<'a>(
    mut mix: impl FnMut() -> Request + 'a,
    probe: &'a mut Probe,
    cycle: &'static [Option<Class>],
) -> impl FnMut() -> Request + 'a {
    let mut sent = 0;
    let mut pending = None;
    move || match pending.take() {
        Some(class) => probe.next(class),
        None => {
            pending = cycle[sent % cycle.len()];
            sent += 1;
            mix()
        }
    }
}

/// The warm-up and the timed phase after it, as one closed loop per
/// client, each on its own connection and thread. Sample times count
/// from the start of the warm-up.
fn run_clients(
    server: &ServerProc,
    corpus: &mut Corpus,
    seconds: u64,
    trace: bool,
) -> Result<Vec<ClientLog>, String> {
    let mut conns = (0..CLIENTS).map(|_| server.connect()).collect::<Result<Vec<_>, _>>()?;
    let cycle = gen::probe_cycle(corpus.workload);
    let start = Instant::now();
    let end = start + WARMUP + Duration::from_secs(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = match &mut corpus.clients {
            Clients::Query(c) => c
                .iter_mut()
                .zip(conns.iter_mut().zip(corpus.probes.iter_mut()))
                .enumerate()
                .map(|(i, (g, (conn, probe)))| {
                    s.spawn(move || {
                        let next = interleave(move || g.next(), probe, cycle);
                        closed_loop(i, |r| send_checked(conn, r), next, start, end, trace)
                    })
                })
                .collect(),
            Clients::Update(c) => c
                .iter_mut()
                .zip(conns.iter_mut().zip(corpus.probes.iter_mut()))
                .enumerate()
                .map(|(i, (g, (conn, probe)))| {
                    s.spawn(move || {
                        let next = interleave(move || g.next(), probe, cycle);
                        closed_loop(i, |r| send_checked(conn, r), next, start, end, trace)
                    })
                })
                .collect(),
        };
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    Ok(logs)
}

/// Outcome of one run: metrics, counts and the oracle's verdict.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let root =
        args.data.join(format!("{}-{}-{}", args.workload.name(), args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let result = run_in(args, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(args: &Args, root: &Path) -> Result<Outcome, String> {
    let mut corpus = Corpus::new(args.workload, args.seed);
    let mut problems = Vec::new();

    // Set-up, several times: spawn on a fresh directory, register the
    // schema, load the corpus over the wire. The last set-up's requests
    // are kept for the traced replay.
    let mut setup_times = Vec::new();
    let mut setup_samples = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let dir = root.join(format!("db{i}"));
        let t = Instant::now();
        let s = ServerProc::spawn(&args.server, &dir)?;
        let mut c = s.connect()?;
        setup_samples.clear();
        for req in &corpus.setup {
            let sent = t.elapsed();
            send_checked(&mut c, req).map_err(|e| format!("set-up {}: {e}", req.kind.name()))?;
            setup_samples.push(Sample {
                client: 0,
                kind: req.kind,
                sent,
                done: t.elapsed(),
                ok: true,
                probe: false,
            });
        }
        setup_times.push(t.elapsed().as_secs_f64());
        drop(c);
        if i + 1 < SETUPS {
            s.kill();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");

    let logs = run_clients(&server, &mut corpus, args.seconds, args.trace)?;
    let peak_rss_mb = server.peak_rss_mb()?;
    let mut admin = server.connect()?;
    let stats = if args.trace {
        admin.stats_json().map_err(|e| format!("STATS: {e}"))?
    } else {
        String::new()
    };

    let mut pings = Vec::new();
    if args.trace {
        for _ in 0..PINGS {
            let t = Instant::now();
            admin.ping().map_err(|e| format!("PING: {e}"))?;
            pings.push(t.elapsed());
        }
    }

    // The last SAVE, then the disk footprint against the live XML.
    admin.save().map_err(|e| format!("SAVE: {e}"))?;
    let live_bytes: usize = corpus.live_docs().iter().map(|(_, xml)| xml.len()).sum();
    let disk_bytes = dir_bytes(&server.dir);

    // Restart check: acknowledged writes after the SAVE, SIGKILL, then
    // reopen the directory in-process.
    let mut tail_failed = 0u64;
    let tail = corpus.tail();
    for req in &tail {
        if let Err(e) = send_checked(&mut admin, req) {
            tail_failed += 1;
            problems.push(format!("tail {}: {e}", req.kind.name()));
        }
    }
    drop(admin);
    let dir = server.dir.clone();
    server.kill();
    // `recovery_s` is an end-to-end metric, so a traced run skips it.
    let recovery_times = if args.trace {
        Vec::new()
    } else {
        (0..RECOVERIES)
            .map(|_| {
                std::thread::sleep(RECOVERY_PAUSE);
                reopen_in_child(&dir)
            })
            .collect::<Result<Vec<f64>, _>>()?
    };
    let db = xsdb::Database::load_dir(&dir).map_err(|e| format!("reopen after SIGKILL: {e}"))?;
    let expected = corpus.live_docs();
    let mut names: Vec<String> = db.document_names().map(str::to_string).collect();
    names.sort();
    let want: Vec<&String> = expected.iter().map(|(n, _)| n).collect();
    if names.iter().collect::<Vec<_>>() != want {
        problems.push(format!("restart check: documents {names:?}, expected {want:?}"));
    }
    for (name, xml) in &expected {
        match db.serialize(name) {
            Ok(text) if &text == xml => {}
            Ok(_) => problems.push(format!("restart check: {name} lost an acknowledged write")),
            Err(e) => problems.push(format!("restart check: {name}: {e}")),
        }
        match db.revalidate(name) {
            Ok(v) if v.is_empty() => {}
            Ok(v) => problems.push(format!("revalidate {name}: {}", v[0])),
            Err(e) => problems.push(format!("revalidate {name}: {e}")),
        }
    }
    drop(db);

    for log in &logs {
        problems.extend(log.errors.iter().cloned());
    }
    let all: Vec<&Sample> = logs.iter().flat_map(|l| &l.samples).collect();
    let attempted = (all.len() + tail.len()) as u64;
    let failed = all.iter().filter(|s| !s.ok).count() as u64 + tail_failed;
    let samples: Vec<&Sample> = all.into_iter().filter(|s| s.sent >= WARMUP).collect();

    let mut m = Metrics::default();
    if args.trace {
        metrics::per_layer(
            &mut m,
            &metrics::TraceInputs {
                root,
                spans_out: args.data.join(format!(
                    "trace-{}-{}.jsonl",
                    args.workload.name(),
                    args.seed
                )),
                setup: &corpus.setup,
                setup_samples: &setup_samples,
                logs: &logs,
                stats: &stats,
                pings: &pings,
                budget: Duration::from_secs(args.seconds).min(REPLAY_BUDGET),
            },
        )?;
    } else {
        m.put("setup_s", median(&setup_times), "s");
        m.put("throughput_ops_s", windowed_throughput(&samples, args.seconds), "ops/s");
        for class in Class::TIMED {
            let mut lat: Vec<f64> = samples
                .iter()
                .filter(|s| s.kind.class() == class)
                .map(|s| replay::ms(s.latency()))
                .collect();
            lat.sort_by(f64::total_cmp);
            let (p99, pct) = metrics::tail(&lat);
            eprintln!(
                "xsbench: {} class: {} samples, {}_p99_ms is p{pct:.2}",
                class.name(),
                lat.len(),
                class.name()
            );
            m.put(&format!("{}_p50_ms", class.name()), metrics::quantile(&lat, 0.50), "ms");
            m.put(&format!("{}_p99_ms", class.name()), p99, "ms");
        }
        m.put("succeeded_ops_ratio", 1.0 - failed as f64 / attempted.max(1) as f64, "ratio");
        m.put("peak_rss_mb", peak_rss_mb, "MiB");
        m.put("disk_bytes_per_live_byte", disk_bytes as f64 / live_bytes.max(1) as f64, "ratio");
        m.put("recovery_s", median(&recovery_times), "s");
        eprintln!("xsbench: set-ups {setup_times:.3?} s, reopenings {recovery_times:.3?} s");
        eprintln!(
            "xsbench: failed_ops_ratio {:.6} ratio ({failed} of {attempted})",
            failed as f64 / attempted.max(1) as f64
        );
    }
    let section = if args.trace { "per_layer" } else { "end_to_end" };
    let json =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if !m.names().eq(metrics::declared(&json, section).iter().map(String::as_str)) {
        problems.push(format!("the metrics differ from BENCHMARK.json's {section} list"));
    }
    Ok(Outcome { metrics: m, attempted, failed, problems })
}

/// Seconds `Database::load_dir` of `dir` takes in a fresh process of
/// this benchmark (`xsbench --reopen DIR`): every reopening starts from
/// a fresh heap, as a restarting server does, and not from the heap the
/// timed phase and the earlier reopenings left behind.
fn reopen_in_child(dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find xsbench: {e}"))?;
    let out = Command::new(exe)
        .arg("--reopen")
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a reopening: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!("reopen after SIGKILL failed ({}): {text:?}", out.status)),
    }
}

/// `xsbench --reopen DIR`: print the seconds `Database::load_dir` takes.
fn reopen(dir: &str) -> ExitCode {
    let t = Instant::now();
    match xsdb::Database::load_dir(Path::new(dir)) {
        Ok(db) => {
            println!("{}", t.elapsed().as_secs_f64());
            drop(db);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xsbench: reopen {dir}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir] = argv.as_slice() {
        if flag == "--reopen" {
            return reopen(dir);
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for p in &out.problems {
                eprintln!("xsbench: FAILED {p}");
            }
            let correct = out.problems.is_empty() && out.failed == 0;
            for line in out.metrics.lines() {
                println!("{line}");
            }
            println!("{}", out.metrics.to_json(correct, out.attempted, out.failed));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xsbench: {e}");
            ExitCode::FAILURE
        }
    }
}
