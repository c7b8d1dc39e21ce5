//! Soundness of the static update checker (xsanalyze pass 5) over the
//! shared generative harness: for every random schema + valid document,
//! a battery of derived XQuery-Update-lite expressions must honour the
//! verdict contract end to end.
//!
//! * **Reject** — execution refuses with `UpdateStaticallyInvalid` and
//!   the document is byte-identical afterwards; every attached witness
//!   word is genuinely rejected by the content model it indicts.
//! * **Accept** — execution succeeds with *zero* revalidated content
//!   models, and a full §6.2 revalidation afterwards confirms the
//!   analyzer's proof.
//! * **Recheck** — execution either commits (and full revalidation is
//!   clean) or rolls back to the byte-identical pre-state.
//!
//! After every committed update the storage invariants hold and no
//! descriptor was ever relabeled (Proposition 1).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;
use xsdb::xsanalyze::{analyze_update, UpdateVerdict};
use xsdb::xsmodel::ast::GroupDefinition;
use xsdb::xsmodel::ContentModel;
use xsdb::{Database, DbError, DocumentSchema};

mod common;
use common::CaseGen;
#[path = "common/battery.rs"]
mod battery;
use battery::{content_group, element_paths, update_battery, Derived};

/// Which content model a diagnostic's witness word indicts: the target
/// element's own model for container-style operations, the parent's
/// model for sibling-anchored ones.
fn indicted_group<'a>(schema: &'a DocumentSchema, d: &Derived) -> Option<&'a GroupDefinition> {
    if d.container {
        content_group(schema, &d.target)
    } else {
        content_group(schema, &d.target[..d.target.len().saturating_sub(1)])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The verdict contract, end to end, per generated case.
    #[test]
    fn update_verdicts_are_sound(case in CaseGen) {
        let mut db = Database::with_metrics_registry(Arc::new(xsdb::xsobs::Registry::new()));
        db.register_schema("s", case.schema.clone()).expect("generated schema is well-formed");
        db.insert("d", "s", &case.xml).expect("generated document is valid");

        let paths = element_paths(&case.schema);
        for derived in update_battery(&case.schema, &paths) {
            let upd_text = derived.text.as_str();
            let upd = match xsdb::xquery::parse_update(upd_text) {
                Ok(u) => u,
                Err(e) => return Err(TestCaseError::fail(
                    format!("derived update failed to parse: {upd_text:?}: {e}"))),
            };
            let analysis = analyze_update(&case.schema, &upd);

            // Witness property: a shortest-witness word attached to a
            // rejection is genuinely rejected by the model it indicts.
            for d in &analysis.diagnostics {
                let Some(w) = &d.witness else { continue };
                let Some(group) = indicted_group(&case.schema, &derived) else {
                    continue;
                };
                if let Ok(cm) = ContentModel::compile(group) {
                    let word: Vec<&str> = w.iter().map(String::as_str).collect();
                    prop_assert!(
                        !cm.accepts(&word),
                        "witness {word:?} for {upd_text:?} is accepted by the indicted model"
                    );
                }
            }

            let before = db.serialize("d").expect("document serializes");
            match db.execute_update_expr("d", &upd) {
                Ok(out) => {
                    prop_assert_eq!(out.verdict, analysis.verdict, "verdict drift: {}", upd_text);
                    if out.verdict == UpdateVerdict::Accept {
                        prop_assert_eq!(
                            out.revalidated, 0,
                            "Accept must skip revalidation: {}", upd_text
                        );
                    }
                    let errs = db.revalidate("d").expect("revalidate runs");
                    prop_assert!(
                        errs.is_empty(),
                        "{} ({:?}) committed an invalid document: {errs:?}\nbefore: {before}",
                        upd_text, out.verdict
                    );
                    let storage = db.document("d").expect("doc").storage().expect("storage");
                    prop_assert!(storage.check_invariants().is_none());
                    prop_assert_eq!(storage.relabel_count(), 0, "Proposition 1 violated");
                }
                Err(DbError::UpdateStaticallyInvalid(diags)) => {
                    prop_assert_eq!(
                        analysis.verdict, UpdateVerdict::Reject,
                        "refusal without a Reject verdict: {}", upd_text
                    );
                    prop_assert!(!diags.is_empty());
                    prop_assert_eq!(
                        db.serialize("d").expect("document serializes"), before,
                        "a rejected update touched the tree: {}", upd_text
                    );
                }
                Err(DbError::Invalid(_)) => {
                    prop_assert_eq!(
                        analysis.verdict, UpdateVerdict::Recheck,
                        "rollback outside Recheck: {}", upd_text
                    );
                    prop_assert_eq!(
                        db.serialize("d").expect("document serializes"), before,
                        "a rolled-back update left changes behind: {}", upd_text
                    );
                }
                Err(e) => return Err(TestCaseError::fail(
                    format!("unexpected failure for {upd_text:?}: {e}"))),
            }
        }
    }
}
