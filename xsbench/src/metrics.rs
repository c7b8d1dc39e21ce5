//! Metric output, and the per-layer metrics of a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::gen::{Class, Kind, Request};
use crate::replay::{self, ms, replay_all, Replica, Role, Traced, QUERY_KINDS};
use crate::wire::{ClientLog, Sample};

/// Metrics in the order they were put.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    pub fn lines(&self) -> Vec<String> {
        self.entries.iter().map(|(n, v, u)| format!("{n:<40} {v:>16.6} {u}")).collect()
    }

    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (n, v, u)) in self.entries.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{comma}\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// The metric names `BENCHMARK.json` declares in `section`
/// (`end_to_end` or `per_layer`), in order.
pub fn declared(benchmark_json: &str, section: &str) -> Vec<String> {
    let key = format!("\"{section}\": [");
    let Some(start) = benchmark_json.find(&key) else { return Vec::new() };
    let body = &benchmark_json[start + key.len()..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// Nearest-rank quantile of sorted values (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile reported as `p99`: p99 itself when at least ten
/// samples lie beyond it (1000 or more samples), otherwise the highest
/// percentile that still has ten beyond it. Returns the value and the
/// percentile used.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n >= 1000 {
        (quantile(sorted, 0.99), 99.0)
    } else if n > 10 {
        (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (sorted.last().copied().unwrap_or(0.0), 100.0)
    }
}

fn p50(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// What a traced run hands to the per-layer computation.
pub struct TraceInputs<'a> {
    pub root: &'a Path,
    pub spans_out: PathBuf,
    pub setup: &'a [Request],
    /// The last set-up's requests as the wire saw them, one per request.
    pub setup_samples: &'a [Sample],
    pub logs: &'a [ClientLog],
    pub stats: &'a str,
    pub pings: &'a [Duration],
    pub budget: Duration,
}

/// A counter from the server's STATS JSON (0 when absent).
fn stat(json: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": ");
    json.find(&key)
        .map(|i| &json[i + key.len()..])
        .and_then(|rest| {
            let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0.0)
}

/// A field of a histogram in the server's STATS JSON.
fn stat_hist(json: &str, name: &str, field: &str) -> f64 {
    let key = format!("\"{name}\": {{");
    match json.find(&key) {
        Some(i) => {
            let body = &json[i..];
            let body = &body[..body.find('}').unwrap_or(body.len())];
            stat(body, field)
        }
        None => 0.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Crates whose non-test lines are recorded beside the numbers.
pub const CRATES: [&str; 13] = [
    "algebra",
    "bench",
    "core",
    "storage",
    "xdm",
    "xmlparse",
    "xpath",
    "xquery",
    "xsanalyze",
    "xsmodel",
    "xsobs",
    "xsserver",
    "xstypes",
];

/// Non-blank, non-comment lines of `.rs` files under `dir`, stopping
/// each file at its first `#[cfg(test)]`.
fn code_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut total = 0;
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            total += code_lines(&path);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            total += text
                .lines()
                .map(str::trim)
                .take_while(|l| !l.starts_with("#[cfg(test)]"))
                .filter(|l| !l.is_empty() && !l.starts_with("//"))
                .count() as u64;
        }
    }
    total
}

/// Every replayed span of one name, across requests.
fn durations(traced: &[Traced], name: &str) -> Vec<f64> {
    traced.iter().flat_map(|t| &t.spans).filter(|s| s.name == name).map(|s| ms(s.dur)).collect()
}

/// (Σ amount, Σ seconds) over spans of `name`.
fn totals(traced: &[Traced], name: &str) -> (f64, f64) {
    traced
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.name == name)
        .fold((0.0, 0.0), |(a, d), s| (a + s.amount as f64, d + s.dur.as_secs_f64()))
}

/// Σ (amount / per) / Σ seconds over spans of `name`.
fn rate(traced: &[Traced], name: &str, per: f64) -> f64 {
    let (amount, secs) = totals(traced, name);
    ratio(amount / per, secs)
}

/// Σ µs / Σ (amount / per) over spans of `name`.
fn cost(traced: &[Traced], name: &str, per: f64) -> f64 {
    let (amount, secs) = totals(traced, name);
    ratio(secs * 1e6, amount / per)
}

/// The per-layer metrics. The corpus load of the set-up is replayed
/// first, then the clients' requests; set-up spans count towards the
/// loading layers (parse, validate, `from_tree`, insert) and every
/// other metric comes from the clients' requests alone.
pub fn per_layer(m: &mut Metrics, t: &TraceInputs) -> Result<(), String> {
    m.put("xsserver.ping_rtt_p50_us", p50(t.pings.iter().map(|d| ms(*d) * 1e3).collect()), "us");

    let mut replica = Replica::build(t.root, t.setup)?;
    let loads: Vec<(&Request, &Sample)> =
        t.setup.iter().zip(t.setup_samples).filter(|(r, _)| r.kind == Kind::PutDoc).collect();
    let mut all = replay_all(&mut replica, &loads, Duration::MAX)?;
    let loaded = all.len();
    let mut pairs: Vec<(&Request, &Sample)> =
        t.logs.iter().flat_map(|l| l.requests.iter().zip(&l.samples)).collect();
    pairs.sort_by_key(|(_, s)| s.sent);
    all.extend(replay_all(&mut replica, &pairs, t.budget)?);
    let (ser_bytes, ser_time) = replica.serialize_all();
    drop(replica);
    let traced = &all[loaded..];
    eprintln!(
        "xsbench: replayed {} set-up and {} of {} client requests",
        loaded,
        traced.len(),
        pairs.len()
    );

    m.put("xsserver.frame_codec_us_per_mb", cost(traced, "xsserver.codec", 1e6), "us/MB");
    for class in Class::TIMED {
        let of_class: Vec<&Traced> = traced.iter().filter(|r| r.kind.class() == class).collect();
        let wire = p50(of_class.iter().map(|r| ms(r.sample.latency())).collect());
        let sum = p50(of_class.iter().map(|r| ms(r.layer_sum())).collect());
        if !of_class.is_empty() {
            eprintln!(
                "xsbench: {} p50: wire {wire:.3} ms, replayed layer sum {sum:.3} ms{}",
                class.name(),
                if sum > wire { "  (layer sum exceeds wire)" } else { "" }
            );
        }
        m.put(
            &format!("xsserver.residual_p50_ms.{}", class.name()),
            p50(of_class.iter().map(|r| r.residual_ms()).collect()),
            "ms",
        );
    }
    m.put("server.request_p50_ms", stat_hist(t.stats, "server.request_ns", "p50") / 1e6, "ms");
    m.put("server.request_p99_ms", stat_hist(t.stats, "server.request_ns", "p99") / 1e6, "ms");
    m.put(
        "server.write_lock_wait_p99_ms",
        stat_hist(t.stats, "server.write_lock_wait_ns", "p99") / 1e6,
        "ms",
    );

    m.put("xmlparse.parse_mb_s", rate(&all, "xmlparse.parse", 1e6), "MB/s");
    m.put("algebra.validate_mb_s", rate(&all, "algebra.validate", 1e6), "MB/s");
    m.put("algebra.stream_validate_mb_s", rate(&all, "algebra.stream_validate", 1e6), "MB/s");
    m.put(
        "algebra.cm_cache_hit_ratio",
        ratio(
            stat(t.stats, "validate.cm_cache.hits_total"),
            stat(t.stats, "validate.cm_cache.lookups_total"),
        ),
        "ratio",
    );
    m.put("algebra.serialize_mb_s", ratio(ser_bytes as f64 / 1e6, ser_time.as_secs_f64()), "MB/s");

    m.put("storage.from_tree_us_per_knode", cost(&all, "storage.from_tree", 1e3), "us/knode");
    m.put("storage.wal_append_us", p50(durations(traced, "storage.wal_append")) * 1e3, "us");
    m.put("storage.wal_sync_us", p50(durations(traced, "storage.wal_sync")) * 1e3, "us");
    let appends: Vec<f64> = traced
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.name == "storage.wal_append")
        .map(|s| s.amount as f64)
        .collect();
    m.put("storage.wal_bytes_per_op", ratio(appends.iter().sum(), appends.len() as f64), "bytes");
    m.put(
        "storage.pages_written_per_save",
        ratio(stat(t.stats, "wal.checkpoint_pages_total"), stat(t.stats, "wal.checkpoints_total")),
        "pages",
    );
    m.put("storage.save_ms", p50(durations(traced, "core.checkpoint")), "ms");

    m.put("xpath.parse_us", p50(durations(traced, "xpath.parse")) * 1e3, "us");
    for kind in QUERY_KINDS {
        let k = kind.name();
        let execs: Vec<&replay::Span> = traced
            .iter()
            .filter(|r| r.kind == kind)
            .flat_map(|r| &r.spans)
            .filter(|s| s.name.starts_with("xquery.execute."))
            .collect();
        let work: f64 = execs.iter().map(|s| s.amount as f64).sum();
        let rows: f64 = execs.iter().map(|s| s.rows as f64).sum();
        let ns: f64 = execs.iter().map(|s| s.dur.as_nanos() as f64).sum();
        m.put(
            &format!("xquery.plan_us.{k}"),
            p50(durations(traced, &format!("xquery.plan.{k}"))) * 1e3,
            "us",
        );
        m.put(
            &format!("xquery.execute_ms.{k}"),
            p50(execs.iter().map(|s| ms(s.dur)).collect()),
            "ms",
        );
        m.put(&format!("xquery.work_units.{k}"), ratio(work, execs.len() as f64), "count");
        m.put(&format!("xquery.work_per_row.{k}"), ratio(work, rows), "count");
        m.put(&format!("xquery.ns_per_work_unit.{k}"), ratio(ns, work), "ns");
    }
    m.put("xquery.flwor_ms", p50(durations(traced, "xquery.flwor")), "ms");

    m.put("xsanalyze.guide_prune_us", p50(durations(traced, "xsanalyze.guide_prune")) * 1e3, "us");
    m.put(
        "xsanalyze.update_verdict_us",
        p50(durations(traced, "xsanalyze.update_verdict")) * 1e3,
        "us",
    );
    let checks = stat(t.stats, "analysis.update_checks_total");
    for verdict in ["accept", "recheck", "reject"] {
        m.put(
            &format!("xsanalyze.verdict_share.{verdict}"),
            ratio(stat(t.stats, &format!("analysis.update_{verdict}_total")), checks),
            "ratio",
        );
    }

    m.put("core.snapshot_read_us", p50(durations(traced, "core.snapshot_read")) * 1e3, "us");
    for kind in QUERY_KINDS {
        let k = kind.name();
        m.put(
            &format!("core.query_ms.{k}"),
            p50(durations(traced, &format!("core.query.{k}"))),
            "ms",
        );
    }
    m.put("core.execute_update_ms", p50(durations(traced, "core.execute_update")), "ms");
    m.put("core.rebuild_ms", p50(durations(traced, "core.rebuild")), "ms");
    let update_commits: Vec<f64> = traced
        .iter()
        .filter(|r| r.kind.class() == Class::Write)
        .flat_map(|r| &r.spans)
        .filter(|s| s.name == "core.commit")
        .map(|s| ms(s.dur))
        .collect();
    m.put("core.commit_ms", p50(update_commits), "ms");
    // The mean, not the median: the set-up loads a few small documents
    // and the large ones `setup_s` is made of.
    let (inserts, insert_secs) =
        (durations(&all, "core.insert").len(), totals(&all, "core.insert").1);
    m.put("core.insert_ms", ratio(insert_secs * 1e3, inserts as f64), "ms");

    let trace_cost: Duration = t.logs.iter().map(|l| l.trace_cost).sum();
    let busy: Duration = t.logs.iter().flat_map(|l| &l.samples).map(|s| s.done - s.sent).sum();
    m.put("trace.overhead_ratio", ratio(trace_cost.as_secs_f64(), busy.as_secs_f64()), "ratio");
    m.put("trace.replayed_requests", traced.len() as f64, "count");

    for c in CRATES {
        m.put(
            &format!("loc.{c}"),
            code_lines(&Path::new("crates").join(c).join("src")) as f64,
            "lines",
        );
    }

    self_time_table(&all);
    write_spans(&t.spans_out, &all, loaded)
}

/// Per call: count, p50 duration and p50 self time, on standard error.
fn self_time_table(traced: &[Traced]) {
    let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for r in traced {
        for (i, s) in r.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0.push(ms(s.dur));
            e.1.push(ms(r.self_time(i)));
        }
    }
    eprintln!(
        "xsbench: {:<32} {:>7} {:>12} {:>12}",
        "replayed call", "calls", "p50 ms", "self p50 ms"
    );
    for (name, (d, s)) in by_name {
        eprintln!("xsbench: {name:<32} {:>7} {:>12.4} {:>12.4}", d.len(), p50(d.clone()), p50(s));
    }
}

/// One JSON line per request: the wire span and its replayed children.
/// The first `loaded` requests are the set-up's, whose times count from
/// its start; the others' count from the start of the warm-up.
fn write_spans(path: &Path, traced: &[Traced], loaded: usize) -> Result<(), String> {
    let mut out = String::new();
    for (n, r) in traced.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"phase\": \"{}\", \"id\": {}, \"client\": {}, \"kind\": \"{}\", \"sent_us\": {}, \
             \"done_us\": {}, \"ok\": {}, \"residual_ms\": {:.4}, \"spans\": [",
            if n < loaded { "setup" } else { "run" },
            r.id,
            r.sample.client,
            r.kind.name(),
            r.sample.sent.as_micros(),
            r.sample.done.as_micros(),
            r.sample.ok,
            r.residual_ms()
        );
        for (i, s) in r.spans.iter().enumerate() {
            let parent = match s.role {
                Role::Top => "\"request\"".to_string(),
                Role::Child(p) => p.to_string(),
                Role::Extra => "null".to_string(),
            };
            let _ = write!(
                out,
                "{}{{\"i\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"us\": {:.3}, \
                 \"self_us\": {:.3}, \"amount\": {}}}",
                if i == 0 { "" } else { ", " },
                s.name,
                s.dur.as_secs_f64() * 1e6,
                r.self_time(i).as_secs_f64() * 1e6,
                s.amount
            );
        }
        out.push_str("]}\n");
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
