//! The loggable state transitions of the database — one enum variant
//! per §6.1 algebra operation that evolves the state.
//!
//! A [`Mutation`] is the unit the write-ahead log records: it encodes
//! to a self-contained byte payload *before* it is applied, and
//! recovery re-applies decoded payloads in log order. Applying a
//! mutation is deterministic given the database state, so replaying a
//! prefix of the log over the matching on-disk state reproduces the
//! exact in-memory state the writer had — the property the crash
//! matrix asserts.
//!
//! Replay tolerance: a mutation the database *rejects* (duplicate
//! name, unknown name, invalid document, bad XPath) is a deterministic
//! no-op — it left no trace when first attempted, and it leaves none
//! on replay. The recovery path therefore skips rejected records
//! rather than aborting, which also makes replay idempotent when a
//! record's effect already reached the on-disk state.

use crate::database::Database;
use crate::error::DbError;

/// One durable state transition, as written to the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Register a schema from XSD text.
    RegisterSchema {
        /// Registry name.
        name: String,
        /// The XSD source text.
        xsd: String,
    },
    /// Remove a registered schema.
    RemoveSchema {
        /// Registry name.
        name: String,
    },
    /// Insert a document, validating against a registered schema.
    Insert {
        /// Document name.
        doc: String,
        /// Schema to validate against.
        schema: String,
        /// The document text.
        xml: String,
    },
    /// Delete a stored document.
    Delete {
        /// Document name.
        doc: String,
    },
    /// Parse and run one XQuery-Update-lite expression (`insert node …
    /// into …`, `delete node …`, `replace value of node … with …`, …)
    /// under the static type-check — the only way to edit a stored
    /// document.
    Update {
        /// Document name.
        doc: String,
        /// The update expression text.
        update: String,
    },
}

/// What applying a [`Mutation`] did, for reporting back to a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// A schema was registered.
    Registered,
    /// A schema was removed.
    Removed,
    /// A document was inserted.
    Inserted,
    /// A document deletion; `true` when the document existed.
    Deleted(bool),
    /// A statically type-checked update ran; the outcome carries the
    /// verdict it ran under and how much revalidation it cost.
    UpdatedChecked(crate::database::UpdateOutcome),
}

const TAG_REGISTER_SCHEMA: u8 = 1;
const TAG_REMOVE_SCHEMA: u8 = 2;
const TAG_INSERT: u8 = 3;
const TAG_DELETE: u8 = 4;
// Tags 5–11 are retired node-level updates. Logs written before their
// removal still hold them; each decodes to its checked
// XQuery-Update-lite equivalent ([`decode_retired`]).
const TAG_RETIRED_INSERT_INTO: u8 = 5;
const TAG_RETIRED_DELETE: u8 = 6;
const TAG_RETIRED_SET_ATTR: u8 = 7;
const TAG_RETIRED_SET_TEXT: u8 = 8;
const TAG_RETIRED_INSERT_BEFORE: u8 = 9;
const TAG_RETIRED_INSERT_AFTER: u8 = 10;
const TAG_RETIRED_REPLACE_NODE: u8 = 11;
const TAG_UPDATE: u8 = 12;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn corrupt() -> DbError {
        DbError::Corrupt("truncated or malformed mutation record".into())
    }

    fn u8(&mut self) -> Result<u8, DbError> {
        let b = *self.buf.get(self.pos).ok_or_else(Self::corrupt)?;
        self.pos += 1;
        Ok(b)
    }

    fn str(&mut self) -> Result<String, DbError> {
        let end = self.pos.checked_add(4).ok_or_else(Self::corrupt)?;
        let raw = self.buf.get(self.pos..end).ok_or_else(Self::corrupt)?;
        let len = u32::from_le_bytes(raw.try_into().map_err(|_| Self::corrupt())?) as usize;
        let data_end = end.checked_add(len).ok_or_else(Self::corrupt)?;
        let bytes = self.buf.get(end..data_end).ok_or_else(Self::corrupt)?;
        self.pos = data_end;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DbError::Corrupt("mutation record field is not UTF-8".into()))
    }

    fn opt(&mut self) -> Result<Option<String>, DbError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            _ => Err(Self::corrupt()),
        }
    }

    fn finish(self) -> Result<(), DbError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DbError::Corrupt("trailing bytes after mutation record".into()))
        }
    }
}

impl Mutation {
    /// Serialize to the payload form the write-ahead log stores: a tag
    /// byte followed by `u32`-length-prefixed UTF-8 fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Mutation::RegisterSchema { name, xsd } => {
                out.push(TAG_REGISTER_SCHEMA);
                put_str(&mut out, name);
                put_str(&mut out, xsd);
            }
            Mutation::RemoveSchema { name } => {
                out.push(TAG_REMOVE_SCHEMA);
                put_str(&mut out, name);
            }
            Mutation::Insert { doc, schema, xml } => {
                out.push(TAG_INSERT);
                put_str(&mut out, doc);
                put_str(&mut out, schema);
                put_str(&mut out, xml);
            }
            Mutation::Delete { doc } => {
                out.push(TAG_DELETE);
                put_str(&mut out, doc);
            }
            Mutation::Update { doc, update } => {
                out.push(TAG_UPDATE);
                put_str(&mut out, doc);
                put_str(&mut out, update);
            }
        }
        out
    }

    /// Decode a payload written by [`Mutation::encode`], or a retired
    /// node-level update record (tags 5–11) as its checked
    /// [`Mutation::Update`] equivalent. Any deviation — unknown tag,
    /// truncated field, trailing bytes, non-UTF-8 — is a typed
    /// [`DbError::Corrupt`], never a panic. A retired record whose
    /// path does not parse decodes to a `delete node` of that path,
    /// which the checked path refuses as the original call was refused.
    /// One with no XQuery-Update-lite form is [`DbError::RetiredRecord`].
    pub fn decode(payload: &[u8]) -> Result<Mutation, DbError> {
        let mut c = Cursor { buf: payload, pos: 0 };
        let m = match c.u8()? {
            TAG_REGISTER_SCHEMA => Mutation::RegisterSchema { name: c.str()?, xsd: c.str()? },
            TAG_REMOVE_SCHEMA => Mutation::RemoveSchema { name: c.str()? },
            TAG_INSERT => Mutation::Insert { doc: c.str()?, schema: c.str()?, xml: c.str()? },
            TAG_DELETE => Mutation::Delete { doc: c.str()? },
            TAG_UPDATE => Mutation::Update { doc: c.str()?, update: c.str()? },
            tag @ TAG_RETIRED_INSERT_INTO..=TAG_RETIRED_REPLACE_NODE => {
                return decode_retired(tag, c);
            }
            tag => {
                return Err(DbError::Corrupt(format!("unknown mutation tag {tag}")));
            }
        };
        c.finish()?;
        Ok(m)
    }

    /// The document this mutation is scoped to, when its whole effect
    /// is confined to one stored document's content. Recovery uses this
    /// to skip records already reflected in that document's on-disk
    /// epoch; registry-shaped mutations (schema changes, insert,
    /// delete) return `None` and rely on deterministic rejection
    /// instead.
    pub fn doc_name(&self) -> Option<&str> {
        match self {
            Mutation::Update { doc, .. } => Some(doc),
            _ => None,
        }
    }

    /// Whether applying this mutation changes the schema/document
    /// registry (forcing the next save to stage a full generation).
    pub fn changes_registry(&self) -> bool {
        matches!(
            self,
            Mutation::RegisterSchema { .. }
                | Mutation::RemoveSchema { .. }
                | Mutation::Insert { .. }
                | Mutation::Delete { .. }
        )
    }

    /// Apply this mutation to a database — the dispatch the write path
    /// and the recovery path share, so a replayed record runs exactly
    /// the code the original call did.
    pub fn apply(&self, db: &mut Database) -> Result<ApplyOutcome, DbError> {
        match self {
            Mutation::RegisterSchema { name, xsd } => {
                db.register_schema_text(name, xsd)?;
                Ok(ApplyOutcome::Registered)
            }
            Mutation::RemoveSchema { name } => {
                db.remove_schema(name)?;
                Ok(ApplyOutcome::Removed)
            }
            Mutation::Insert { doc, schema, xml } => {
                db.insert(doc, schema, xml)?;
                Ok(ApplyOutcome::Inserted)
            }
            Mutation::Delete { doc } => Ok(ApplyOutcome::Deleted(db.delete(doc))),
            // The static type-check runs inside the database call; a
            // static rejection is a deterministic no-op, so replay
            // skips it like any other rejection.
            Mutation::Update { doc, update } => {
                Ok(ApplyOutcome::UpdatedChecked(db.execute_update(doc, update)?))
            }
        }
    }
}

/// Read the fields of a retired node-level update record (tag 5–11)
/// and convert it to its checked equivalent.
///
/// The conversion prints the [`xquery::UpdateExpr`] the record stands
/// for and keeps the text only if it parses back to that expression:
/// an element name the update parser does not read (a prefixed name,
/// say) or element text holding `<` has no XQuery-Update-lite form and
/// is a [`DbError::RetiredRecord`], which recovery surfaces rather
/// than skips — the record may have taken effect when it was written.
fn decode_retired(tag: u8, mut c: Cursor<'_>) -> Result<Mutation, DbError> {
    use xquery::UpdateExpr as U;
    let (doc, path) = (c.str()?, c.str()?);
    // Field 3 is the element or attribute name (the value for
    // set-text); field 4 the optional text (the value for set-attr).
    let (name, text) = match tag {
        TAG_RETIRED_DELETE => (String::new(), None),
        TAG_RETIRED_SET_TEXT => (c.str()?, None),
        TAG_RETIRED_SET_ATTR => (c.str()?, Some(c.str()?)),
        _ => (c.str()?, c.opt()?),
    };
    c.finish()?;
    let Ok(target) = xpath::parse(&path) else {
        // The original call was refused at this parse. As a delete the
        // path is refused the same way, so replay skips the record like
        // any rejection — provided the update parser refuses it too.
        let update = format!("delete node {path}");
        return match xquery::parse_update(&update) {
            Err(_) => Ok(Mutation::Update { doc, update }),
            Ok(_) => Err(DbError::RetiredRecord { tag, doc, update }),
        };
    };
    let expr = match tag {
        TAG_RETIRED_INSERT_INTO => U::InsertInto { name, text, target },
        TAG_RETIRED_DELETE => U::Delete { target },
        TAG_RETIRED_SET_ATTR => {
            U::InsertAttribute { attr: name, value: text.unwrap_or_default(), target }
        }
        TAG_RETIRED_SET_TEXT => U::ReplaceValue { target, value: name },
        TAG_RETIRED_INSERT_BEFORE => U::InsertBefore { name, text, target },
        TAG_RETIRED_INSERT_AFTER => U::InsertAfter { name, text, target },
        _ => U::ReplaceNode { target, name, text },
    };
    let update = expr.to_string();
    match xquery::parse_update(&update) {
        Ok(back) if back == expr => Ok(Mutation::Update { doc, update }),
        _ => Err(DbError::RetiredRecord { tag, doc, update }),
    }
}

/// Whether a replayed record's failure is a deterministic rejection
/// (the mutation never took effect, first time and every time) rather
/// than an environmental failure worth surfacing.
pub(crate) fn is_deterministic_rejection(e: &DbError) -> bool {
    !matches!(
        e,
        DbError::Io { .. }
            | DbError::Checksum { .. }
            | DbError::Corrupt(_)
            | DbError::RetiredRecord { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Mutation> {
        vec![
            Mutation::RegisterSchema { name: "s".into(), xsd: "<xs/>".into() },
            Mutation::RemoveSchema { name: "s".into() },
            Mutation::Insert { doc: "d".into(), schema: "s".into(), xml: "<r/>".into() },
            Mutation::Delete { doc: "d".into() },
            Mutation::Update { doc: "d".into(), update: "insert node <x>t</x> into /r".into() },
            Mutation::Update {
                doc: "☂ doc".into(),
                update: "replace value of node /r with \"ü\"".into(),
            },
        ]
    }

    /// A retired record as the old encoder wrote it: the tag, then
    /// length-prefixed fields.
    fn retired(tag: u8, fields: &[&str]) -> Vec<u8> {
        let mut out = vec![tag];
        for f in fields {
            put_str(&mut out, f);
        }
        out
    }

    /// [`retired`] plus the trailing optional text field (0, or 1 and
    /// the field) of tags 5, 9, 10 and 11.
    fn retired_opt(tag: u8, fields: &[&str], text: Option<&str>) -> Vec<u8> {
        let mut out = retired(tag, fields);
        match text {
            None => out.push(0),
            Some(t) => {
                out.push(1);
                put_str(&mut out, t);
            }
        }
        out
    }

    fn update(doc: &str, text: &str) -> Mutation {
        Mutation::Update { doc: doc.into(), update: text.into() }
    }

    #[test]
    fn retired_tags_decode_to_their_checked_equivalents() {
        let cases: Vec<(Vec<u8>, Mutation)> = vec![
            (
                retired_opt(5, &["d", "/r", "x"], Some("t")),
                update("d", "insert node <x>t</x> into /r"),
            ),
            (retired_opt(5, &["d", "/r", "x"], None), update("d", "insert node <x/> into /r")),
            (retired(6, &["d", "/r/x"]), update("d", "delete node /r/x")),
            (
                retired(7, &["d", "/r", "a", "say \"v\""]),
                update("d", r#"insert attribute a="say ""v""" into /r"#),
            ),
            (
                retired(8, &["d", "/r/v", "ü"]),
                update("d", r#"replace value of node /r/v with "ü""#),
            ),
            (
                retired_opt(9, &["d", "/r/x", "y"], Some("t")),
                update("d", "insert node <y>t</y> before /r/x"),
            ),
            (
                retired_opt(10, &["d", "/r/x", "y"], None),
                update("d", "insert node <y/> after /r/x"),
            ),
            (
                retired_opt(11, &["d", "/r/x", "x"], Some("v")),
                update("d", "replace node /r/x with <x>v</x>"),
            ),
        ];
        for (bytes, want) in cases {
            assert_eq!(Mutation::decode(&bytes).unwrap(), want, "tag {}", bytes[0]);
        }
    }

    #[test]
    fn retired_records_without_an_update_form_are_typed_errors() {
        // A bad path was refused when first applied, and is again.
        let bad_path = retired_opt(5, &["d", "/r[", "x"], None);
        let m = Mutation::decode(&bad_path).unwrap();
        assert_eq!(m, Mutation::Update { doc: "d".into(), update: "delete node /r[".into() });
        let e = m.apply(&mut Database::new()).unwrap_err();
        assert!(is_deterministic_rejection(&e), "{e:?}");
        // Text holding `<`, or a prefixed name, has no update form.
        for bytes in [
            retired_opt(5, &["d", "/r", "x"], Some("a<b")),
            retired_opt(11, &["d", "/r/x", "p:x"], None),
        ] {
            let e = Mutation::decode(&bytes).unwrap_err();
            assert!(matches!(e, DbError::RetiredRecord { .. }), "{e:?}");
            assert!(!is_deterministic_rejection(&e));
        }
        // Malformed fields stay corruption.
        let mut trailing = retired(6, &["d", "/r"]);
        trailing.push(0);
        assert!(matches!(Mutation::decode(&trailing), Err(DbError::Corrupt(_))));
        assert!(matches!(Mutation::decode(&[8, 1, 0]), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn encode_decode_round_trips() {
        for m in samples() {
            let encoded = m.encode();
            assert_eq!(Mutation::decode(&encoded).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn truncations_and_flips_are_typed_errors() {
        for m in samples() {
            let encoded = m.encode();
            for cut in 0..encoded.len() {
                // Every strict prefix must fail loudly or decode to a
                // different, complete value — never panic.
                let _ = Mutation::decode(&encoded[..cut]);
            }
            let mut trailing = encoded.clone();
            trailing.push(0);
            assert!(
                matches!(Mutation::decode(&trailing), Err(DbError::Corrupt(_))),
                "trailing byte accepted for {m:?}"
            );
        }
        assert!(matches!(Mutation::decode(&[99]), Err(DbError::Corrupt(_))));
        assert!(matches!(Mutation::decode(&[]), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn doc_scope_and_registry_classification() {
        let update = update("d", "delete node /r");
        assert_eq!(update.doc_name(), Some("d"));
        assert!(!update.changes_registry());
        let insert = Mutation::Insert { doc: "d".into(), schema: "s".into(), xml: "<r/>".into() };
        assert_eq!(insert.doc_name(), None);
        assert!(insert.changes_registry());
    }

    #[test]
    fn rejection_classification() {
        assert!(is_deterministic_rejection(&DbError::DuplicateDocument("d".into())));
        assert!(is_deterministic_rejection(&DbError::UnknownSchema("s".into())));
        // A statically rejected update never took effect; replay must
        // skip it rather than abort recovery.
        assert!(is_deterministic_rejection(&DbError::UpdateStaticallyInvalid(Vec::new())));
        assert!(!is_deterministic_rejection(&DbError::Corrupt("x".into())));
        assert!(!is_deterministic_rejection(&DbError::io("/p", std::io::Error::other("boom"))));
    }
}
