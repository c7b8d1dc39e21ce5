//! Stress tests for `SharedDatabase`: many reader threads interleaved
//! with writers over one shared handle, asserting that every reader
//! observes a consistent snapshot (never a torn state) and that the
//! lock-wait instrumentation records traffic. Every write goes through
//! `SharedDatabase::apply`, the one write path.

use std::sync::atomic::{AtomicUsize, Ordering};

use xsdb::{ApplyOutcome, Database, DbError, Durability, Mutation, SharedDatabase};

const SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="list">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="item" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

fn shared() -> SharedDatabase {
    let mut db = Database::new();
    db.register_schema_text("s", SCHEMA).unwrap();
    SharedDatabase::new(db)
}

fn insert(name: &str, xml: String) -> Mutation {
    Mutation::Insert { doc: name.into(), schema: "s".into(), xml }
}

fn update(update: String) -> Mutation {
    Mutation::Update { doc: "d".into(), update }
}

fn doc(items: usize, tag: &str) -> String {
    let mut xml = String::from("<list>");
    for i in 0..items {
        xml.push_str(&format!("<item>{tag}-{i}</item>"));
    }
    xml.push_str("</list>");
    xml
}

/// Readers hammer queries while writers rewrite every item of the
/// document in one checked update. Every query result must be one of
/// the states a writer actually produced — the item count never moves
/// and all items carry the value of one whole write, never a mixture.
#[test]
fn readers_see_only_whole_states() {
    let sh = shared();
    sh.apply(&insert("d", doc(10, "v0"))).unwrap();
    let torn = AtomicUsize::new(0);
    let reads = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // 6 readers × many iterations.
        for _ in 0..6 {
            let sh = sh.clone();
            let torn = &torn;
            let reads = &reads;
            s.spawn(move || {
                for i in 0..300 {
                    // Periodically check full consistency of the
                    // snapshot: it serializes, and the serialization
                    // validates clean against the schema (the §8
                    // round trip under the shared read lock).
                    if i % 50 == 0 {
                        let db = sh.read();
                        let xml = db.serialize("d").unwrap();
                        assert!(db.validate("s", &xml).unwrap().is_empty(), "torn serialize");
                    }
                    let values = sh.read().query("d", "/list/item").unwrap();
                    reads.fetch_add(1, Ordering::Relaxed);
                    // Writers only ever rewrite the 10 items in place;
                    // a torn read would show otherwise.
                    if values.len() != 10 {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    // All items of one read come from the same write:
                    // the seed's `v0-<i>`, or one writer's single value.
                    let seed = values.iter().all(|v| v.starts_with("v0-"));
                    let one_write = values.windows(2).all(|w| w[0] == w[1]);
                    if !(seed || one_write) {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // 2 writers, each commit rewriting all 10 items at once.
        for w in 0..2 {
            let sh = sh.clone();
            s.spawn(move || {
                for i in 0..40 {
                    let m = update(format!(r#"replace value of node /list/item with "w{w}-{i}""#));
                    sh.apply(&m).unwrap();
                }
            });
        }
    });
    assert_eq!(torn.load(Ordering::Relaxed), 0, "a reader observed a torn state");
    assert_eq!(reads.load(Ordering::Relaxed), 6 * 300);
    // The instrumentation saw the traffic.
    let snap = sh.metrics();
    assert!(snap.histogram(xsobs::HistogramId::SrvReadLockWait).count >= 6 * 300);
    assert!(snap.histogram(xsobs::HistogramId::SrvWriteLockWait).count >= 2 * 40);
}

/// Concurrent writers against disjoint documents: all succeed, and the
/// final catalog holds exactly the union.
#[test]
fn disjoint_writers_all_land() {
    let sh = shared();
    std::thread::scope(|s| {
        for t in 0..8 {
            let sh = sh.clone();
            s.spawn(move || {
                for i in 0..20 {
                    let name = format!("doc-{t}-{i}");
                    sh.apply(&insert(&name, doc(3, "x"))).unwrap();
                }
            });
        }
    });
    let db = sh.read();
    assert_eq!(db.document_names().count(), 8 * 20);
    for t in 0..8 {
        for i in 0..20 {
            assert_eq!(db.query(&format!("doc-{t}-{i}"), "/list/item").unwrap().len(), 3);
        }
    }
}

/// remove_schema under concurrency: while documents exist the removal
/// is refused with SchemaInUse; after the last delete it succeeds
/// exactly once. The retry loop mirrors how a server client would use
/// the API.
#[test]
fn remove_schema_races_with_deletes() {
    let sh = shared();
    for i in 0..50 {
        sh.apply(&insert(&format!("d{i}"), doc(1, "x"))).unwrap();
    }
    std::thread::scope(|s| {
        {
            let sh = sh.clone();
            s.spawn(move || {
                for i in 0..50 {
                    let deleted = sh.apply(&Mutation::Delete { doc: format!("d{i}") });
                    assert_eq!(deleted.unwrap(), ApplyOutcome::Deleted(true));
                }
            });
        }
        let sh = sh.clone();
        s.spawn(move || loop {
            match sh.apply(&Mutation::RemoveSchema { name: "s".into() }) {
                Ok(_) => break,
                Err(DbError::SchemaInUse { schema, documents }) => {
                    assert_eq!(schema, "s");
                    assert!(!documents.is_empty());
                    std::thread::yield_now();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        });
    });
    let db = sh.read();
    assert_eq!(db.schema_names().count(), 0);
    assert_eq!(db.document_names().count(), 0);
}

/// MVCC pinning: a snapshot taken before a burst of writes observes
/// the same state for its entire lifetime, no matter how much writers
/// churn underneath it — and a fresh snapshot sees the final state.
#[test]
fn held_snapshots_stay_frozen_under_churn() {
    let sh = shared();
    sh.apply(&insert("d", doc(10, "v0"))).unwrap();
    let pinned = sh.read();
    std::thread::scope(|s| {
        let writer = sh.clone();
        s.spawn(move || {
            // Each round grows the document by one item and rewrites
            // every item's value.
            for i in 0..60 {
                writer.apply(&update(format!("insert node <item>w{i}</item> into /list"))).unwrap();
                let rewrite = format!(r#"replace value of node /list/item with "w{i}-x""#);
                writer.apply(&update(rewrite)).unwrap();
            }
        });
        for _ in 0..300 {
            let values = pinned.query("d", "/list/item").unwrap();
            assert_eq!(values.len(), 10, "a held snapshot changed under a writer");
            assert!(values.iter().all(|v| v.starts_with("v0-")), "{values:?}");
        }
    });
    // The pinned snapshot is still the old world; a new one is not.
    assert_eq!(pinned.query("d", "/list/item").unwrap().len(), 10);
    let fresh = sh.read().query("d", "/list/item").unwrap();
    assert_eq!(fresh.len(), 10 + 60);
    assert!(fresh.iter().all(|v| v == "w59-x"), "{fresh:?}");
}

/// The durable commit path under concurrency: four threads race
/// `apply` on one group-commit log while a reader asserts every
/// observable document is whole; recovery then replays every
/// acknowledged commit.
#[test]
fn concurrent_durable_appliers_recover_completely() {
    let dir = std::env::temp_dir().join(format!(
        "xsdb-stress-wal-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Group).unwrap();
    sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() }).unwrap();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let sh = sh.clone();
            scope.spawn(move || {
                for i in 0..15 {
                    sh.apply(&Mutation::Insert {
                        doc: format!("doc-{t}-{i}"),
                        schema: "s".into(),
                        xml: doc(3, "x"),
                    })
                    .unwrap();
                }
            });
        }
        let reader = sh.clone();
        scope.spawn(move || {
            for _ in 0..100 {
                let db = reader.read();
                let names: Vec<String> = db.document_names().map(str::to_string).collect();
                for name in names {
                    // Every document a snapshot lists is completely
                    // there — never a half-committed insert.
                    assert_eq!(db.query(&name, "/list/item").unwrap().len(), 3, "{name}");
                }
            }
        });
    });
    assert_eq!(sh.read().document_names().count(), 4 * 15);
    let wal_commits = sh.metrics().counter(xsobs::CounterId::WalAppends);
    assert_eq!(wal_commits, 1 + 4 * 15, "every apply must hit the log exactly once");
    drop(sh);
    // Recovery replays the full acknowledged history.
    let (again, _) = SharedDatabase::open_durable(&dir, Durability::Group).unwrap();
    let db = again.read();
    assert_eq!(db.document_names().count(), 4 * 15);
    for t in 0..4 {
        for i in 0..15 {
            assert_eq!(db.query(&format!("doc-{t}-{i}"), "/list/item").unwrap().len(), 3);
        }
    }
    drop(db);
    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Guarded updates under live concurrent traffic: writers drive the
/// analyze-first update path (Accept commits without revalidation,
/// Reject refuses without touching the tree) while readers hammer
/// queries. Afterwards no descriptor was ever relabeled — Proposition
/// 1 holds under churn, not just in single-threaded microtests — the
/// storage invariants hold, and a full §6.2 revalidation is clean.
#[test]
fn guarded_updates_never_relabel_under_live_traffic() {
    let sh = shared();
    sh.apply(&insert("d", doc(4, "seed"))).unwrap();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let sh = sh.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    let values = sh.read().query("d", "/list/item").unwrap();
                    // Rejected updates never surface: every observed
                    // item came from the seed or a committed insert.
                    assert!(values.iter().all(|v| v.contains('-')), "{values:?}");
                    assert!(values.len() >= 4);
                }
            });
        }
        for w in 0..2 {
            let sh = sh.clone();
            s.spawn(move || {
                for i in 0..40 {
                    let append = update(format!("insert node <item>w{w}-{i}</item> into /list"));
                    let Ok(ApplyOutcome::UpdatedChecked(out)) = sh.apply(&append) else {
                        panic!("append of item w{w}-{i} did not commit");
                    };
                    // `item*` admits any append: provably valid, so the
                    // commit skipped revalidation entirely.
                    assert_eq!(out.revalidated, 0);
                    // A provably-invalid update is refused up front.
                    let rogue = update("insert node <rogue/> into /list".into());
                    assert!(matches!(sh.apply(&rogue), Err(DbError::UpdateStaticallyInvalid(_))));
                }
            });
        }
    });
    let db = sh.read();
    assert_eq!(db.query("d", "/list/item").unwrap().len(), 4 + 2 * 40);
    let storage = db.document("d").unwrap().storage().unwrap();
    assert_eq!(storage.relabel_count(), 0, "Proposition 1 violated under live traffic");
    assert!(storage.check_invariants().is_none());
    assert!(db.revalidate("d").unwrap().is_empty());
}

/// A panicking writer must not poison the shared handle for everyone
/// else: subsequent readers and writers keep working.
#[test]
fn lock_survives_a_panicking_holder() {
    let sh = shared();
    sh.apply(&insert("d", doc(2, "x"))).unwrap();
    let sh2 = sh.clone();
    let result = std::thread::spawn(move || {
        let _guard = sh2.read();
        panic!("deliberate panic while holding the read lock");
    })
    .join();
    assert!(result.is_err());
    // The handle still serves both reads and writes.
    assert_eq!(sh.read().query("d", "/list/item").unwrap().len(), 2);
    sh.apply(&insert("e", doc(1, "y"))).unwrap();
    assert_eq!(sh.read().document_names().count(), 2);
}
