//! Wire-level soundness of the one write path: random sequences of
//! XQuery-Update-lite expressions (and document re-inserts) go to a
//! live server over TCP, and after every acknowledged write every
//! stored document is revalidated against its schema — an `OK` must
//! never leave an invalid document behind. A refusal must be one of
//! the checked path's typed verdicts (static rejection, or a recheck
//! that rolled back).

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xsdb::xsmodel::write_schema;
use xsdb::{Database, SharedDatabase};
use xsserver::{Client, ClientError, Server, ServerConfig, Status};

mod common;
use common::CaseGen;
// Only the update texts are used here, not their static bookkeeping.
#[allow(dead_code)]
#[path = "common/battery.rs"]
mod battery;
use battery::{element_paths, update_battery};

const DOCS: [&str; 2] = ["d", "e"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn acknowledged_writes_keep_every_document_valid(
        case in CaseGen,
        picks in vec((0usize..2, 0usize..1000), 1..24),
    ) {
        let shared = SharedDatabase::new(Database::new());
        let config = ServerConfig { threads: 2, ..ServerConfig::default() };
        let handle = Server::start("127.0.0.1:0", config, shared.clone()).expect("bind");
        let mut c = Client::connect(handle.local_addr().to_string()).expect("connect");
        c.put_schema("s", &write_schema(&case.schema)).expect("generated schema registers");
        for doc in DOCS {
            c.put_doc(doc, "s", &case.xml).expect("generated document is valid");
        }

        let battery = update_battery(&case.schema, &element_paths(&case.schema));
        for (which, pick) in picks {
            let doc = DOCS[which];
            // One pick in `battery.len() + 1` starts the document over.
            let (what, acked) = match battery.get(pick % (battery.len() + 1)) {
                Some(derived) => (derived.text.clone(), c.update(doc, &derived.text).map(drop)),
                None => {
                    c.del_doc(doc).expect("delete");
                    ("re-insert".to_string(), c.put_doc(doc, "s", &case.xml))
                }
            };
            match acked {
                Ok(()) => {
                    let db = shared.read();
                    for name in db.document_names() {
                        let errs = db.revalidate(name).expect("revalidate runs");
                        prop_assert!(
                            errs.is_empty(),
                            "acknowledged {what:?} on {doc} left {name} invalid: {errs:?}"
                        );
                    }
                }
                Err(ClientError::Status {
                    status: Status::UpdateStaticallyInvalid | Status::Invalid,
                    ..
                }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("{what:?} on {doc}: {e}"))),
            }
        }
        drop(c);
        handle.shutdown().expect("shutdown");
    }
}
