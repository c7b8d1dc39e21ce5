//! The traced replay: after the timed phase, the set-up's corpus load
//! and each recorded request are run again in-process against replicas
//! built from the same seed,
//! through the public functions of each crate in the order the server
//! runs them. Every call is a span; the request's wire latency is the
//! parent of them all.
//!
//! A replayed call is one of three roles. `Top` calls are the server's
//! own steps for the request, and their durations sum to the replayed
//! layer sum; the residual is the wire latency minus that sum.
//! `Child(i)` calls redo a piece of top call `i` on their own, so the
//! parent's self time is its duration minus its children's. `Extra`
//! calls are measured alongside and belong to no path (streaming
//! validation, the baseline for a single validator).
//!
//! The WAL children of a commit (`Wal::append` and `Wal::sync` of its
//! record in a scratch log) are timed after the replay loop, so that
//! their fsyncs do not sit right before the next durable commit's.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xsdb::algebra::{load_document_cached, validate_streaming, LoadOptions};
use xsdb::storage::{Wal, XmlStorage, DEFAULT_ROTATE_BYTES};
use xsdb::xquery::{self, PlanOptions};
use xsdb::{Database, Document, Durability, Mutation, SharedDatabase, StdVfs};
use xsserver::protocol::{encode_frame, try_decode_frame, Opcode, NO_FIELD_CAP};

use crate::gen::{Kind, Request};
use crate::wire::Sample;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Top,
    Child(usize),
    Extra,
}

/// One replayed call. `amount` is what the call processed, in the unit
/// its metric divides by: bytes, nodes, or work units.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub role: Role,
    pub dur: Duration,
    pub amount: u64,
    /// Result rows, for the planner's work per row.
    pub rows: u64,
}

/// One replayed request with its spans.
#[derive(Debug)]
pub struct Traced {
    pub id: usize,
    pub kind: Kind,
    pub sample: Sample,
    pub spans: Vec<Span>,
}

impl Traced {
    pub fn layer_sum(&self) -> Duration {
        self.spans.iter().filter(|s| s.role == Role::Top).map(|s| s.dur).sum()
    }

    /// Wire latency minus the replayed layer sum, in ms (may be
    /// negative if the replay did more work than the server).
    pub fn residual_ms(&self) -> f64 {
        ms(self.sample.latency()) - ms(self.layer_sum())
    }

    /// A span's duration minus the part its children cover.
    pub fn self_time(&self, i: usize) -> Duration {
        let kids: Duration =
            self.spans.iter().filter(|s| s.role == Role::Child(i)).map(|s| s.dur).sum();
        self.spans[i].dur.saturating_sub(kids)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed())
}

struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    fn push(&mut self, name: &'static str, role: Role, dur: Duration, amount: u64) -> usize {
        self.spans.push(Span { name, role, dur, amount, rows: 0 });
        self.spans.len() - 1
    }
}

/// A replayed mutation: the index of its `core.commit` span and its WAL
/// payload.
type Logged = (usize, Vec<u8>);

/// The replicas: a durable one in `fsync` mode, as the server runs, and
/// a volatile one for the calls a durable handle does not expose.
pub struct Replica {
    durable: SharedDatabase,
    dir: PathBuf,
    volatile: Database,
    wal: Wal,
    wal_appends: u32,
}

impl Replica {
    /// Empty replicas with the set-up's schemas registered. The set-up's
    /// documents are loaded by replaying their PUT_DOC requests.
    pub fn build(root: &Path, setup: &[Request]) -> Result<Replica, String> {
        let dir = root.join("replica");
        let (durable, _) =
            SharedDatabase::open_durable(&dir, Durability::Fsync).map_err(|e| e.to_string())?;
        let (wal, _) = Wal::open(&StdVfs, &root.join("replica-wal"), DEFAULT_ROTATE_BYTES)
            .map_err(|e| e.to_string())?;
        let mut r = Replica { durable, dir, volatile: Database::new(), wal, wal_appends: 0 };
        for req in setup.iter().filter(|req| req.op == Opcode::PutSchema) {
            let f = &req.fields;
            r.volatile.register_schema_text(&f[0], &f[1]).map_err(|e| e.to_string())?;
            if let Some(m) = mutation(req) {
                r.durable.apply(&m).map_err(|e| e.to_string())?;
            }
        }
        Ok(r)
    }

    /// Replay one request; returns its spans, and for a logged mutation
    /// the index of its `core.commit` span with its WAL payload.
    pub fn replay(&mut self, req: &Request) -> Result<(Vec<Span>, Option<Logged>), String> {
        let mut rec = Recorder { spans: Vec::new() };
        let mut logged = None;
        let f = &req.fields;
        let response: Vec<String> = match req.op {
            Opcode::Query => self.query(&mut rec, req.kind, &f[0], &f[1])?,
            Opcode::Xquery => self.xquery(&mut rec, &f[0], &f[1])?,
            Opcode::Validate => self.validate(&mut rec, &f[0], &f[1])?,
            Opcode::Update | Opcode::PutDoc => {
                let (response, commit, payload) = self.commit(&mut rec, req)?;
                logged = Some((commit, payload));
                response
            }
            Opcode::Save => {
                let (res, d) = timed(|| self.durable.checkpoint(&self.dir));
                res.map_err(|e| e.to_string())?;
                rec.push("core.checkpoint", Role::Top, d, 0);
                Vec::new()
            }
            other => return Err(format!("no replay for {}", other.name())),
        };
        codec(&mut rec, req, &response)?;
        Ok((rec.spans, logged))
    }

    /// `Wal::append` and `Wal::sync` of one mutation's record in a
    /// scratch log, timed apart from the replay so that its fsyncs do
    /// not sit next to the durable replica's.
    fn wal_steps(&mut self, payload: &[u8]) -> Result<(Duration, Duration), String> {
        let (res, append) = timed(|| self.wal.append(&StdVfs, payload));
        res.map_err(|e| e.to_string())?;
        let (res, sync) = timed(|| self.wal.sync(&StdVfs));
        res.map_err(|e| e.to_string())?;
        self.wal_appends += 1;
        if self.wal_appends.is_multiple_of(64) {
            self.wal.truncate(&StdVfs).map_err(|e| e.to_string())?;
        }
        Ok((append, sync))
    }

    fn query(
        &mut self,
        rec: &mut Recorder,
        kind: Kind,
        doc: &str,
        xpath: &str,
    ) -> Result<Vec<String>, String> {
        let (snap, d) = timed(|| self.durable.read());
        rec.push("core.snapshot_read", Role::Top, d, 0);
        let (values, d) = timed(|| snap.query(doc, xpath));
        let values = values.map_err(|e| e.to_string())?;
        let top = rec.push(query_span(kind), Role::Top, d, 0);
        let storage = snap
            .document(doc)
            .and_then(|d| d.storage())
            .ok_or_else(|| format!("replica has no materialized {doc}"))?;
        let (path, d) = timed(|| xsdb::xpath::parse(xpath));
        let path = path.map_err(|e| e.to_string())?;
        rec.push("xpath.parse", Role::Child(top), d, 0);
        let (diags, d) = timed(|| xsdb::xsanalyze::analyze_xpath_in_guide(storage.schema(), &path));
        rec.push("xsanalyze.guide_prune", Role::Child(top), d, 0);
        let opts = PlanOptions { force: None, statically_empty: !diags.is_empty() };
        let (plan, d) = timed(|| xquery::plan(storage, &path, &opts));
        rec.push(plan_span(kind), Role::Child(top), d, 0);
        let (exec, d) = timed(|| plan.execute(storage));
        let i = rec.push(execute_span(kind), Role::Child(top), d, exec.work);
        rec.spans[i].rows = exec.nodes.len() as u64;
        Ok(values)
    }

    fn xquery(&mut self, rec: &mut Recorder, doc: &str, q: &str) -> Result<Vec<String>, String> {
        let (snap, d) = timed(|| self.durable.read());
        rec.push("core.snapshot_read", Role::Top, d, 0);
        let (text, d) = timed(|| snap.xquery(doc, q));
        let text = text.map_err(|e| e.to_string())?;
        let top = rec.push("core.xquery", Role::Top, d, 0);
        let storage = snap
            .document(doc)
            .and_then(|d| d.storage())
            .ok_or_else(|| format!("replica has no materialized {doc}"))?;
        let (query, d) = timed(|| xquery::parse_query(q));
        let query = query.map_err(|e| e.to_string())?;
        rec.push("xquery.parse_query", Role::Child(top), d, 0);
        let (nodes, d) = timed(|| xquery::evaluate(&storage, &query));
        let nodes = nodes.map_err(|e| e.to_string())?;
        rec.push("xquery.flwor", Role::Child(top), d, 0);
        let (_, d) = timed(|| xquery::nodes_to_string(&nodes));
        rec.push("xquery.nodes_to_string", Role::Child(top), d, 0);
        Ok(vec![text])
    }

    fn validate(
        &mut self,
        rec: &mut Recorder,
        schema: &str,
        xml: &str,
    ) -> Result<Vec<String>, String> {
        let (snap, d) = timed(|| self.durable.read());
        rec.push("core.snapshot_read", Role::Top, d, 0);
        let (violations, d) = timed(|| snap.validate(schema, xml));
        let violations = violations.map_err(|e| e.to_string())?;
        let top = rec.push("core.validate", Role::Top, d, 0);
        self.parse_and_validate(rec, top, schema, xml)?;
        Ok(violations.iter().map(|v| v.to_string()).collect())
    }

    /// `xmlparse` then `algebra` validation of a document, as children
    /// of `parent`; streaming validation alongside. Returns the loaded
    /// document's node count when it is valid.
    fn parse_and_validate(
        &self,
        rec: &mut Recorder,
        parent: usize,
        schema_name: &str,
        xml: &str,
    ) -> Result<Option<xsdb::algebra::LoadedDocument>, String> {
        let bytes = xml.len() as u64;
        let schema = self
            .volatile
            .schema(schema_name)
            .ok_or_else(|| format!("replica has no schema {schema_name}"))?;
        let (doc, d) = timed(|| Document::parse_with_limits(xml, self.volatile.limits()));
        let doc = doc.map_err(|e| e.to_string())?;
        rec.push("xmlparse.parse", Role::Child(parent), d, bytes);
        let cache = self.volatile.content_model_cache();
        let (loaded, d) =
            timed(|| load_document_cached(schema, &doc, &LoadOptions::default(), cache));
        rec.push("algebra.validate", Role::Child(parent), d, bytes);
        let (_, d) = timed(|| validate_streaming(schema, xml));
        rec.push("algebra.stream_validate", Role::Extra, d, bytes);
        Ok(loaded.ok())
    }

    /// A logged mutation: the durable commit as the server runs it,
    /// with the database work redone as children. Returns the reply,
    /// the commit span's index and the mutation's WAL payload.
    fn commit(
        &mut self,
        rec: &mut Recorder,
        req: &Request,
    ) -> Result<(Vec<String>, usize, Vec<u8>), String> {
        let m = mutation(req).expect("writes map to mutations");
        let (outcome, d) = timed(|| self.durable.apply(&m));
        let top = rec.push("core.commit", Role::Top, d, 0);
        let f = &req.fields;
        match req.op {
            Opcode::Update => {
                let (upd, d) = timed(|| xquery::parse_update(&f[1]));
                let upd = upd.map_err(|e| e.to_string())?;
                rec.push("xquery.parse_update", Role::Child(top), d, 0);
                let schema_name = self
                    .volatile
                    .document(&f[0])
                    .map(|doc| doc.schema_name.clone())
                    .ok_or_else(|| format!("replica has no {}", f[0]))?;
                let schema =
                    self.volatile.schema(&schema_name).expect("documents keep their schema");
                let (_, d) = timed(|| xsdb::xsanalyze::analyze_update(schema, &upd));
                let (res, d2) = timed(|| self.volatile.execute_update_expr(&f[0], &upd));
                let exec = rec.push("core.execute_update", Role::Child(top), d2, 0);
                rec.push("xsanalyze.update_verdict", Role::Child(exec), d, 0);
                if res.is_ok() {
                    let storage = self
                        .volatile
                        .document(&f[0])
                        .and_then(|doc| doc.storage())
                        .ok_or_else(|| format!("replica has no materialized {}", f[0]))?;
                    let (_, d) = timed(|| xsdb::storage_to_tree(storage));
                    rec.push("core.rebuild", Role::Child(exec), d, 0);
                }
            }
            Opcode::PutDoc => {
                let (res, d) = timed(|| self.volatile.insert(&f[0], &f[1], &f[2]));
                res.map_err(|e| e.to_string())?;
                let insert = rec.push("core.insert", Role::Child(top), d, 0);
                if let Some(loaded) = self.parse_and_validate(rec, insert, &f[1], &f[2])? {
                    let (_, d) = timed(|| XmlStorage::from_tree(&loaded.store, loaded.doc));
                    rec.push(
                        "storage.from_tree",
                        Role::Child(insert),
                        d,
                        loaded.store.len() as u64,
                    );
                }
            }
            other => return Err(format!("no commit for {}", other.name())),
        }
        let response = match outcome {
            Ok(xsdb::ApplyOutcome::UpdatedChecked(o)) => {
                vec![o.verdict.to_string(), o.nodes.to_string(), o.revalidated.to_string()]
            }
            _ => Vec::new(),
        };
        Ok((response, top, m.encode()))
    }

    /// `Database::serialize_tree` over every stored document, as
    /// (bytes, time).
    pub fn serialize_all(&self) -> (u64, Duration) {
        let mut bytes = 0;
        let mut total = Duration::ZERO;
        for name in self.volatile.document_names() {
            let doc = self.volatile.document(name).expect("listed documents exist");
            let (xml, d) =
                timed(|| xsdb::serialize_tree(&doc.loaded.store, doc.loaded.doc).to_xml());
            bytes += xml.len() as u64;
            total += d;
        }
        (bytes, total)
    }
}

/// The request's and the response's frames, encoded and decoded.
fn codec(rec: &mut Recorder, req: &Request, response: &[String]) -> Result<(), String> {
    let resp: Vec<&str> = response.iter().map(String::as_str).collect();
    let t = Instant::now();
    let mut bytes = 0;
    for (tag, fields) in [(req.op as u8, req.field_refs()), (0u8, resp)] {
        let (header, payload) = encode_frame(tag, &fields).map_err(|e| e.to_string())?;
        let mut frame = header.to_vec();
        frame.extend_from_slice(&payload);
        let decoded = try_decode_frame(&frame, usize::MAX, NO_FIELD_CAP)
            .map_err(|e| e.to_string())?
            .ok_or("a whole frame did not decode")?;
        bytes += decoded.consumed as u64;
    }
    rec.push("xsserver.codec", Role::Top, t.elapsed(), bytes);
    Ok(())
}

/// The mutation the server builds for a request, if it writes.
pub fn mutation(req: &Request) -> Option<Mutation> {
    let f = &req.fields;
    Some(match req.op {
        Opcode::PutSchema => Mutation::RegisterSchema { name: f[0].clone(), xsd: f[1].clone() },
        Opcode::PutDoc => {
            Mutation::Insert { doc: f[0].clone(), schema: f[1].clone(), xml: f[2].clone() }
        }
        Opcode::Update => Mutation::Update { doc: f[0].clone(), update: f[1].clone() },
        _ => return None,
    })
}

/// The planner's query classes, named as the per-layer metrics name them.
pub const QUERY_KINDS: [Kind; 4] =
    [Kind::ChildScan, Kind::Point, Kind::Positional, Kind::Descendant];

fn query_span(kind: Kind) -> &'static str {
    match kind {
        Kind::ChildScan => "core.query.child_scan",
        Kind::Point => "core.query.point",
        Kind::Positional | Kind::ReadBack => "core.query.positional",
        Kind::Descendant => "core.query.descendant",
        _ => "core.query.other",
    }
}

fn plan_span(kind: Kind) -> &'static str {
    match kind {
        Kind::ChildScan => "xquery.plan.child_scan",
        Kind::Point => "xquery.plan.point",
        Kind::Positional | Kind::ReadBack => "xquery.plan.positional",
        Kind::Descendant => "xquery.plan.descendant",
        _ => "xquery.plan.other",
    }
}

fn execute_span(kind: Kind) -> &'static str {
    match kind {
        Kind::ChildScan => "xquery.execute.child_scan",
        Kind::Point => "xquery.execute.point",
        Kind::Positional | Kind::ReadBack => "xquery.execute.positional",
        Kind::Descendant => "xquery.execute.descendant",
        _ => "xquery.execute.other",
    }
}

/// Replay requests in the order they were sent, until `budget` runs
/// out. Each client owns its documents, so any prefix of
/// the merged order is a consistent history.
pub fn replay_all(
    replica: &mut Replica,
    requests: &[(&Request, &Sample)],
    budget: Duration,
) -> Result<Vec<Traced>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut logged = Vec::new();
    for (id, (req, sample)) in requests.iter().enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        let (spans, wal) = replica.replay(req)?;
        if let Some((commit, payload)) = wal {
            logged.push((id, commit, payload));
        }
        out.push(Traced { id, kind: req.kind, sample: (*sample).clone(), spans });
    }
    for (id, commit, payload) in logged {
        let (append, sync) = replica.wal_steps(&payload)?;
        let spans = &mut out[id].spans;
        let bytes = payload.len() as u64;
        spans.push(Span {
            name: "storage.wal_append",
            role: Role::Child(commit),
            dur: append,
            amount: bytes,
            rows: 0,
        });
        spans.push(Span {
            name: "storage.wal_sync",
            role: Role::Child(commit),
            dur: sync,
            amount: 0,
            rows: 0,
        });
    }
    Ok(out)
}
