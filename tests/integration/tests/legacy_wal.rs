//! Recovery of a write-ahead log written before the node-level update
//! records (tags 5–11) were retired. `fixtures/wal/legacy` holds such a
//! log, hand-encoded (its README lists the records): a schema, a
//! document, one valid and one schema-invalid edit per retired tag,
//! and a record whose path does not parse. Replay runs every retired
//! record through the checked update path, so the recovered document
//! is the *checked* result — the invalid edits are skipped as
//! deterministic rejections instead of committing invalid states.

use std::path::{Path, PathBuf};

use xsdb::storage::{Wal, DEFAULT_ROTATE_BYTES};
use xsdb::{Database, DbError, Durability, Mutation, SharedDatabase, StdVfs};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/wal/legacy")
}

/// A temporary copy of the fixture directory (recovery appends to it).
fn fixture_copy(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xsdb-legacy-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("wal")).unwrap();
    std::fs::copy(fixture().join("wal/wal-0.log"), dir.join("wal/wal-0.log")).unwrap();
    dir
}

#[test]
fn legacy_log_replays_to_the_checked_result() {
    let dir = fixture_copy("checked");
    let (sh, report) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let db = sh.read();
    let q = |xpath: &str| db.query("d", xpath).unwrap();
    // Every valid edit landed…
    assert_eq!(q("/lib/@owner"), [r#"b "q""#]);
    assert_eq!(q("/lib/book/title"), ["T1", "T2"]);
    assert_eq!(q("/lib/book[1]/author"), ["Date", "Codd"]);
    assert_eq!(q("/lib/book[2]/author"), ["Gray"]);
    // …and no invalid one did: the year is still an integer, the
    // required title and no rogue element or attribute was added.
    assert_eq!(q("/lib/book/year"), ["2000", "2002"]);
    assert!(q("/lib/rogue").is_empty());
    assert!(q("/lib/book/@color").is_empty());
    assert!(db.revalidate("d").unwrap().is_empty());
    drop(db);
    drop(sh);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn each_retired_record_replays_as_its_checked_update() {
    let records = xsdb::storage::wal::replay(&StdVfs, &fixture().join("wal")).unwrap();
    // (update text, whether the checked path commits it)
    let retired = [
        ("insert node <author>Codd</author> into /lib/book[1]", true),
        ("insert node <rogue/> into /lib", false),
        ("delete node /lib/book[2]/author", true),
        ("delete node /lib/book[1]/title", false),
        (r#"insert attribute owner="b ""q""" into /lib"#, true),
        (r#"insert attribute color="red" into /lib/book"#, false),
        (r#"replace value of node /lib/book[2]/year with "1999""#, true),
        (r#"replace value of node /lib/book[1]/year with "not-a-number""#, false),
        ("insert node <author>Date</author> before /lib/book[1]/author[1]", true),
        ("insert node <year>1</year> before /lib/book[1]/title", false),
        ("insert node <author>Gray</author> after /lib/book[2]/year", true),
        ("insert node <title>dup</title> after /lib/book[1]/title", false),
        ("replace node /lib/book[2]/year with <year>2002</year>", true),
        ("replace node /lib/book[1]/title with <author>X</author>", false),
    ];
    assert_eq!(records.len(), 2 + retired.len() + 1);
    assert_eq!(
        records.iter().map(|r| r.payload[0]).collect::<Vec<_>>()[2..],
        [5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 6]
    );

    let mut db = Database::new();
    for rec in &records[..2] {
        Mutation::decode(&rec.payload).unwrap().apply(&mut db).unwrap();
    }
    for (rec, (text, commits)) in records[2..].iter().zip(retired) {
        let m = Mutation::decode(&rec.payload).unwrap();
        assert_eq!(m, Mutation::Update { doc: "d".into(), update: text.into() });
        match m.apply(&mut db) {
            Ok(_) => assert!(commits, "{text} committed"),
            Err(e) => {
                assert!(!commits, "{text} refused: {e}");
                assert!(matches!(e, DbError::UpdateStaticallyInvalid(_)), "{text}: {e:?}");
            }
        }
        assert!(db.revalidate("d").unwrap().is_empty(), "{text} broke the document");
    }
    // The last record's path never parsed: the original call was
    // refused, and its checked form is refused the same way.
    let last = Mutation::decode(&records.last().unwrap().payload).unwrap();
    assert_eq!(last, Mutation::Update { doc: "d".into(), update: "delete node /lib/book[".into() });
    assert!(matches!(last.apply(&mut db), Err(DbError::XQuery(_))));
}

/// The payload of a retired insert (tag 5) whose text holds `<`: the
/// old path could have written it, but no element constructor can
/// express it.
fn inexpressible_payload() -> Vec<u8> {
    let mut payload = vec![5u8];
    for field in ["d", "/lib/book[1]", "author"] {
        payload.extend_from_slice(&(field.len() as u32).to_le_bytes());
        payload.extend_from_slice(field.as_bytes());
    }
    payload.push(1);
    payload.extend_from_slice(&3u32.to_le_bytes());
    payload.extend_from_slice(b"a<b");
    payload
}

/// Append one raw record to the log under `dir`, returning its sequence.
fn append_raw(dir: &Path, payload: &[u8]) -> u64 {
    let (mut wal, _) = Wal::open(&StdVfs, &dir.join("wal"), DEFAULT_ROTATE_BYTES).unwrap();
    let seq = wal.append(&StdVfs, payload).unwrap();
    wal.sync(&StdVfs).unwrap();
    seq
}

#[test]
fn an_inexpressible_retired_record_fails_recovery_with_a_typed_error() {
    let dir = fixture_copy("inexpressible");
    append_raw(&dir, &inexpressible_payload());
    match SharedDatabase::open_durable(&dir, Durability::Fsync) {
        Err(DbError::RetiredRecord { tag: 5, doc, update }) => {
            assert_eq!(doc, "d");
            assert_eq!(update, "insert node <author>a<b</author> into /lib/book[1]");
        }
        Err(e) => panic!("expected a retired-record error, got {e:?}"),
        Ok(_) => panic!("recovery accepted an inexpressible record"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between a checkpoint's save and its log truncation leaves
/// records the pages already hold. An inexpressible retired record
/// among them is skipped by its document's epoch like any other, so
/// the database still opens.
#[test]
fn an_inexpressible_record_the_pages_already_hold_is_skipped() {
    let dir = fixture_copy("covered");
    // The log as the crash leaves it: the fixture plus the retired
    // record, at the sequence the checkpoint below saves at.
    assert_eq!(append_raw(&dir, &inexpressible_payload()), 18, "the fixture holds 17 records");
    let crashed_log: Vec<_> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| (p.clone(), std::fs::read(p).unwrap()))
        .collect();
    let dir = fixture_copy("covered");

    // The pages: the fixture replayed, one more edit at that sequence,
    // then a checkpoint whose truncate the crash undoes.
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    let edit = "insert node <author>Knuth</author> into /lib/book[1]";
    sh.apply(&Mutation::Update { doc: "d".into(), update: edit.into() }).unwrap();
    sh.checkpoint(&dir).unwrap();
    let saved = sh.read().query("d", "/lib/book/author").unwrap();
    drop(sh);
    for (path, bytes) in &crashed_log {
        std::fs::write(path, bytes).unwrap();
    }

    let (sh, report) = SharedDatabase::open_durable(&dir, Durability::Fsync)
        .expect("a record the pages already hold stopped recovery");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(sh.read().query("d", "/lib/book/author").unwrap(), saved);
    assert_eq!(saved, ["Date", "Codd", "Knuth", "Gray"]);
    drop(sh);
    let _ = std::fs::remove_dir_all(&dir);
}
