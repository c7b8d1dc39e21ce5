//! The benchmark's own properties: a seed names one request stream, the
//! realized mix matches the stated shares, and the oracle fails a
//! corrupted answer and accepts the planted violations of the probes.

use std::collections::BTreeMap;

use xsdb::{Database, SharedDatabase};
use xsserver::client::Client;
use xsserver::protocol::encode_frame;
use xsserver::{Server, ServerConfig};

use crate::gen::{
    BookClient, Class, Kind, Probe, QueryWide, Request, Rng, UpdateDurable, Workload,
};
use crate::wire::check;
use crate::Corpus;

/// Setup plus the first `n` requests of every client, as wire bytes.
fn stream_bytes(w: Workload, seed: u64, n: usize) -> Vec<u8> {
    let corpus = Corpus::new(w, seed);
    let rng = Rng::new(seed);
    let mut reqs: Vec<Request> = corpus.setup.clone();
    for c in 0..crate::gen::CLIENTS {
        match w {
            Workload::QueryWide => {
                let mut g = QueryWide::new(c, &rng);
                reqs.extend((0..n).map(|_| g.next()));
            }
            Workload::UpdateDurable => {
                let mut g = UpdateDurable::new(c, &rng);
                reqs.extend((0..n).map(|_| g.next()));
            }
        }
    }
    let mut bytes = Vec::new();
    for r in &reqs {
        let (header, payload) = encode_frame(r.op as u8, &r.field_refs()).expect("small frames");
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(&payload);
    }
    bytes
}

#[test]
fn a_seed_names_one_request_stream() {
    for w in [Workload::QueryWide, Workload::UpdateDurable] {
        let a = stream_bytes(w, 7, 200);
        assert_eq!(a, stream_bytes(w, 7, 200), "{}: same seed, same bytes", w.name());
        assert_ne!(a, stream_bytes(w, 8, 200), "{}: another seed, other bytes", w.name());
    }
}

/// Percent of each kind among `reqs`.
fn shares(reqs: &[Request]) -> BTreeMap<Kind, f64> {
    let mut n: BTreeMap<Kind, f64> = BTreeMap::new();
    for r in reqs {
        *n.entry(r.kind).or_default() += 1.0;
    }
    n.values_mut().for_each(|v| *v *= 100.0 / reqs.len() as f64);
    n
}

fn assert_near(got: &BTreeMap<Kind, f64>, kind: Kind, want: f64) {
    let g = got.get(&kind).copied().unwrap_or(0.0);
    assert!((g - want).abs() <= 2.0, "{}: {g:.2}% against a stated {want}%", kind.name());
}

#[test]
fn realized_mix_matches_the_stated_shares() {
    let rng = Rng::new(3);
    let mut g = QueryWide::new(0, &rng);
    let reqs: Vec<Request> = (0..1013).map(|_| g.next()).collect();
    let s = shares(&reqs);
    for (kind, want) in [
        (Kind::Point, 35.0),
        (Kind::Positional, 25.0),
        (Kind::ChildScan, 20.0),
        (Kind::Flwor, 10.0),
        (Kind::Descendant, 5.0),
        (Kind::ReplaceValue, 5.0),
    ] {
        assert_near(&s, kind, want);
    }

    let mut g = UpdateDurable::new(0, &rng);
    let reqs: Vec<Request> = (0..1013).map(|_| g.next()).filter(|r| r.kind != Kind::Save).collect();
    let s = shares(&reqs);
    let writes: f64 = reqs.iter().filter(|r| r.kind.class() == Class::Write).count() as f64;
    assert!((writes * 100.0 / reqs.len() as f64 - 80.0).abs() <= 2.0);
    assert_near(&s, Kind::ReadBack, 20.0);
    assert_near(&s, Kind::ReplaceValue, 40.0);
    assert_near(&s, Kind::InsertAuthor, 18.0);
    assert_near(&s, Kind::DeleteAuthor, 18.0);
    assert_near(&s, Kind::InvalidInsert, 4.0);

    let mut p = Probe::new(0, &rng);
    let reqs: Vec<Request> = (0..1000).map(|_| p.next(Class::Ingest)).collect();
    let s = shares(&reqs);
    assert_near(&s, Kind::ValidateValid, 80.0);
    assert_near(&s, Kind::ValidateInvalid, 20.0);
}

#[test]
fn the_oracle_fails_exactly_the_one_corrupted_answer() {
    let shared = SharedDatabase::new(Database::new());
    let server =
        Server::start("127.0.0.1:0", ServerConfig::default(), shared).expect("an ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("the server listens");
    let mut rng = Rng::new(5);
    let mut books = BookClient::new("t", 40, &mut rng);
    for req in [crate::gen::schema(), books.setup()].iter() {
        crate::wire::send_checked(&mut client, req).expect("set-up succeeds");
    }
    let corrupt_at = 17;
    let mut failures = Vec::new();
    for i in 0..40 {
        let req = match i % 5 {
            0 => books.point(),
            1 => books.positional(),
            2 => books.child_scan(),
            3 => books.flwor(),
            _ => books.replace_value(false).0,
        };
        let mut got = client.request(req.op, &req.field_refs());
        if i == corrupt_at {
            if let Ok(fields) = &mut got {
                fields[0].push('!');
            }
        }
        if check(&req.expect, &got).is_err() {
            failures.push(i);
        }
    }
    assert_eq!(failures, [corrupt_at]);

    // Every probe VALIDATE, valid or with a planted violation, passes.
    let mut probe = Probe::new(0, &rng);
    for _ in 0..15 {
        let req = probe.next(Class::Ingest);
        let got = client.request(req.op, &req.field_refs());
        check(&req.expect, &got).unwrap_or_else(|e| panic!("{}: {e}", req.kind.name()));
    }
    drop(client);
    server.shutdown().expect("clean shutdown");
}
