//! XQuery-Update-lite: a textual update language over XPath targets.
//!
//! The subset follows the XQuery Update Facility's surface syntax for
//! the five node-level operations, plus attribute assignment:
//!
//! ```text
//! update  := 'insert' 'node' element 'into' path
//!          | 'insert' 'node' element ('before' | 'after') path
//!          | 'insert' 'attribute' NAME '=' STRING 'into' path
//!          | 'delete' 'node' path
//!          | 'replace' 'node' path 'with' element
//!          | 'replace' 'value' 'of' 'node' path 'with' STRING
//! element := '<' NAME '/>'  |  '<' NAME '>' text '</' NAME '>'
//! STRING  := '"' ( [^"] | '""' )* '"'
//! ```
//!
//! A `""` inside a string literal is one `"` (XQuery 1.0's
//! EscapeQuot), and [`UpdateExpr`]'s `Display` writes it back that way,
//! so every expression whose element text holds no `<` prints to text
//! that parses back to the same expression.
//!
//! Inserted elements are leaf constructors — a name and optional text
//! content — which is what keeps every update statically checkable:
//! the target's enclosing content model decides the element-level
//! question, and the new node's own validity is a simple-type check.

use std::fmt;

use xpath::Path;

use crate::parser::XQueryError;

/// A parsed update expression.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateExpr {
    /// `insert node <name>text?</name> into target` — append as the
    /// last child of each target element.
    InsertInto {
        /// Name of the inserted element.
        name: String,
        /// Optional text content of the inserted element.
        text: Option<String>,
        /// Path selecting the parent element(s).
        target: Path,
    },
    /// `insert node <name/> before target`.
    InsertBefore {
        /// Name of the inserted element.
        name: String,
        /// Optional text content of the inserted element.
        text: Option<String>,
        /// Path selecting the sibling the new node precedes.
        target: Path,
    },
    /// `insert node <name/> after target`.
    InsertAfter {
        /// Name of the inserted element.
        name: String,
        /// Optional text content of the inserted element.
        text: Option<String>,
        /// Path selecting the sibling the new node follows.
        target: Path,
    },
    /// `insert attribute name="value" into target`.
    InsertAttribute {
        /// Attribute name.
        attr: String,
        /// Attribute value.
        value: String,
        /// Path selecting the owning element(s).
        target: Path,
    },
    /// `delete node target`.
    Delete {
        /// Path selecting the node(s) to remove.
        target: Path,
    },
    /// `replace node target with <name>text?</name>`.
    ReplaceNode {
        /// Path selecting the node(s) to replace.
        target: Path,
        /// Name of the replacement element.
        name: String,
        /// Optional text content of the replacement element.
        text: Option<String>,
    },
    /// `replace value of node target with "value"`.
    ReplaceValue {
        /// Path selecting the element(s) whose content is replaced.
        target: Path,
        /// The new text value.
        value: String,
    },
}

impl UpdateExpr {
    /// The target path of the update.
    pub fn target(&self) -> &Path {
        match self {
            UpdateExpr::InsertInto { target, .. }
            | UpdateExpr::InsertBefore { target, .. }
            | UpdateExpr::InsertAfter { target, .. }
            | UpdateExpr::InsertAttribute { target, .. }
            | UpdateExpr::Delete { target }
            | UpdateExpr::ReplaceNode { target, .. }
            | UpdateExpr::ReplaceValue { target, .. } => target,
        }
    }
}

impl fmt::Display for UpdateExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let elem = |f: &mut fmt::Formatter<'_>, name: &str, text: &Option<String>| match text {
            Some(t) => write!(f, "<{name}>{t}</{name}>"),
            None => write!(f, "<{name}/>"),
        };
        match self {
            UpdateExpr::InsertInto { name, text, target } => {
                write!(f, "insert node ")?;
                elem(f, name, text)?;
                write!(f, " into {target}")
            }
            UpdateExpr::InsertBefore { name, text, target } => {
                write!(f, "insert node ")?;
                elem(f, name, text)?;
                write!(f, " before {target}")
            }
            UpdateExpr::InsertAfter { name, text, target } => {
                write!(f, "insert node ")?;
                elem(f, name, text)?;
                write!(f, " after {target}")
            }
            UpdateExpr::InsertAttribute { attr, value, target } => {
                let value = value.replace('"', "\"\"");
                write!(f, "insert attribute {attr}=\"{value}\" into {target}")
            }
            UpdateExpr::Delete { target } => write!(f, "delete node {target}"),
            UpdateExpr::ReplaceNode { target, name, text } => {
                write!(f, "replace node {target} with ")?;
                elem(f, name, text)
            }
            UpdateExpr::ReplaceValue { target, value } => {
                let value = value.replace('"', "\"\"");
                write!(f, "replace value of node {target} with \"{value}\"")
            }
        }
    }
}

/// Parse an update expression.
pub fn parse_update(src: &str) -> Result<UpdateExpr, XQueryError> {
    let mut p = UpdateParser { src, rest: src.trim() };
    let expr = p.parse()?;
    if !p.rest.trim().is_empty() {
        return Err(p.err("trailing input"));
    }
    Ok(expr)
}

struct UpdateParser<'a> {
    src: &'a str,
    rest: &'a str,
}

impl<'a> UpdateParser<'a> {
    fn err(&self, reason: impl Into<String>) -> XQueryError {
        XQueryError { query: self.src.to_string(), reason: reason.into() }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn peek_word(&self, word: &str) -> bool {
        let r = self.rest.trim_start();
        r.starts_with(word)
            && r[word.len()..].chars().next().is_none_or(|c| !c.is_alphanumeric() && c != '_')
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.peek_word(word) {
            self.skip_ws();
            self.rest = &self.rest[word.len()..];
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<(), XQueryError> {
        if self.eat_word(word) {
            Ok(())
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn parse_name(&mut self) -> Result<String, XQueryError> {
        self.skip_ws();
        let end = self
            .rest
            .char_indices()
            .find(|(_, c)| !c.is_alphanumeric() && !matches!(c, '_' | '-' | '.'))
            .map(|(i, _)| i)
            .unwrap_or(self.rest.len());
        if end == 0 {
            return Err(self.err("expected a name"));
        }
        let name = self.rest[..end].to_string();
        self.rest = &self.rest[end..];
        Ok(name)
    }

    /// A double-quoted string literal; `""` inside it stands for one
    /// `"` (XQuery 1.0's EscapeQuot).
    fn parse_string(&mut self) -> Result<String, XQueryError> {
        self.skip_ws();
        let Some(mut r) = self.rest.strip_prefix('"') else {
            return Err(self.err("expected a string literal"));
        };
        let mut s = String::new();
        loop {
            let Some(end) = r.find('"') else {
                return Err(self.err("unterminated string literal"));
            };
            s.push_str(&r[..end]);
            r = &r[end + 1..];
            match r.strip_prefix('"') {
                Some(rest) => {
                    s.push('"');
                    r = rest;
                }
                None => break,
            }
        }
        self.rest = r;
        Ok(s)
    }

    /// `<name/>` or `<name>text</name>`.
    fn parse_element(&mut self) -> Result<(String, Option<String>), XQueryError> {
        self.skip_ws();
        let Some(r) = self.rest.strip_prefix('<') else {
            return Err(self.err("expected an element constructor"));
        };
        self.rest = r;
        let name = self.parse_name()?;
        self.skip_ws();
        if let Some(r) = self.rest.strip_prefix("/>") {
            self.rest = r;
            return Ok((name, None));
        }
        let Some(r) = self.rest.strip_prefix('>') else {
            return Err(self.err("expected \">\" or \"/>\" in element constructor"));
        };
        let close = format!("</{name}>");
        let Some(end) = r.find(&close) else {
            return Err(self.err(format!("missing {close}")));
        };
        let text = r[..end].to_string();
        if text.contains('<') {
            return Err(self.err("nested element constructors are not supported"));
        }
        self.rest = &r[end + close.len()..];
        Ok((name, Some(text)))
    }

    /// The rest of the input up to (not including) one of the stop
    /// keywords, parsed as a path.
    fn parse_path_until(&mut self, stops: &[&str]) -> Result<Path, XQueryError> {
        self.skip_ws();
        let mut best = self.rest.len();
        for stop in stops {
            let mut offset = 0;
            while let Some(found) = self.rest[offset..].find(stop) {
                let at = offset + found;
                let before_ok =
                    at == 0 || self.rest[..at].chars().last().is_some_and(|c| c.is_whitespace());
                let after = self.rest[at + stop.len()..].chars().next();
                let after_ok = after.is_none_or(|c| c.is_whitespace());
                if before_ok && after_ok {
                    best = best.min(at);
                    break;
                }
                offset = at + stop.len();
            }
        }
        let (head, tail) = self.rest.split_at(best);
        self.rest = tail;
        let text = head.trim();
        if text.is_empty() {
            return Err(self.err("expected a path"));
        }
        xpath::parse(text).map_err(|e| self.err(format!("invalid target path: {e}")))
    }

    fn parse(&mut self) -> Result<UpdateExpr, XQueryError> {
        if self.eat_word("insert") {
            if self.eat_word("attribute") {
                let attr = self.parse_name()?;
                self.skip_ws();
                let Some(r) = self.rest.strip_prefix('=') else {
                    return Err(self.err("expected \"=\" after attribute name"));
                };
                self.rest = r;
                let value = self.parse_string()?;
                self.expect_word("into")?;
                let target = self.parse_path_until(&[])?;
                return Ok(UpdateExpr::InsertAttribute { attr, value, target });
            }
            self.expect_word("node")?;
            let (name, text) = self.parse_element()?;
            if self.eat_word("into") {
                let target = self.parse_path_until(&[])?;
                Ok(UpdateExpr::InsertInto { name, text, target })
            } else if self.eat_word("before") {
                let target = self.parse_path_until(&[])?;
                Ok(UpdateExpr::InsertBefore { name, text, target })
            } else if self.eat_word("after") {
                let target = self.parse_path_until(&[])?;
                Ok(UpdateExpr::InsertAfter { name, text, target })
            } else {
                Err(self.err("expected \"into\", \"before\", or \"after\""))
            }
        } else if self.eat_word("delete") {
            self.expect_word("node")?;
            let target = self.parse_path_until(&[])?;
            Ok(UpdateExpr::Delete { target })
        } else if self.eat_word("replace") {
            if self.eat_word("value") {
                self.expect_word("of")?;
                self.expect_word("node")?;
                let target = self.parse_path_until(&["with"])?;
                self.expect_word("with")?;
                let value = self.parse_string()?;
                return Ok(UpdateExpr::ReplaceValue { target, value });
            }
            self.expect_word("node")?;
            let target = self.parse_path_until(&["with"])?;
            self.expect_word("with")?;
            let (name, text) = self.parse_element()?;
            Ok(UpdateExpr::ReplaceNode { target, name, text })
        } else {
            Err(self.err("expected \"insert\", \"delete\", or \"replace\""))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_into_with_text() {
        let u = parse_update("insert node <author>Codd</author> into /library/book").unwrap();
        match &u {
            UpdateExpr::InsertInto { name, text, target } => {
                assert_eq!(name, "author");
                assert_eq!(text.as_deref(), Some("Codd"));
                assert_eq!(target.to_string(), "/library/book");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(u.to_string(), "insert node <author>Codd</author> into /library/book");
    }

    #[test]
    fn insert_empty_element_before_and_after() {
        let before = parse_update("insert node <note/> before /library/book/title").unwrap();
        assert!(matches!(before, UpdateExpr::InsertBefore { .. }));
        let after = parse_update("insert node <note/> after /library/book/title").unwrap();
        assert!(matches!(after, UpdateExpr::InsertAfter { .. }));
    }

    #[test]
    fn delete_and_replace_forms() {
        let del = parse_update("delete node /library/book/author").unwrap();
        assert_eq!(del.target().to_string(), "/library/book/author");
        let rep = parse_update("replace node /library/book/title with <title>New</title>").unwrap();
        match rep {
            UpdateExpr::ReplaceNode { name, text, .. } => {
                assert_eq!(name, "title");
                assert_eq!(text.as_deref(), Some("New"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let val = parse_update(r#"replace value of node /library/book/year with "1999""#).unwrap();
        match val {
            UpdateExpr::ReplaceValue { value, .. } => assert_eq!(value, "1999"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_attribute() {
        let u = parse_update(r#"insert attribute lang="en" into /library/book"#).unwrap();
        match u {
            UpdateExpr::InsertAttribute { attr, value, .. } => {
                assert_eq!(attr, "lang");
                assert_eq!(value, "en");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_typed() {
        for bad in [
            "",
            "insert",
            "insert node into /a",
            "insert node <x> into /a",
            "insert node <x/> sideways /a",
            "delete /a",
            "replace node /a",
            "replace node /a with",
            "replace value of node /a with 3",
            "insert node <a><b/></a> into /x",
            "delete node /library/book extra trailing",
            r#"insert attribute a="v" onto /x"#,
        ] {
            assert!(parse_update(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn doubled_quotes_escape_a_quote() {
        let u = parse_update(r#"replace value of node /a with "say ""hi"" \n""#).unwrap();
        match &u {
            UpdateExpr::ReplaceValue { value, .. } => assert_eq!(value, r#"say "hi" \n"#),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(u.to_string(), r#"replace value of node /a with "say ""hi"" \n""#);
        let a = parse_update(r#"insert attribute q="""" into /a"#).unwrap();
        assert!(matches!(&a, UpdateExpr::InsertAttribute { value, .. } if value == "\""));
        assert!(parse_update(r#"replace value of node /a with "open"""#).is_err());
    }

    const PATHS: [&str; 7] = [
        "/lib",
        "/lib/book",
        "/lib/book[2]",
        "//title",
        "/lib/*",
        r#"/lib/book[title = "with"]/year"#,
        "/lib/book[last()]/@id",
    ];

    fn expr() -> impl Strategy<Value = UpdateExpr> {
        let name = "[a-z][a-z0-9_.-]{0,6}";
        // Element text: anything but `<`, which would open a nested
        // constructor. Values: any printable ASCII, quotes included.
        let text = (any::<bool>(), "[ -;=-~\n]{0,10}").prop_map(|(some, t)| some.then_some(t));
        let value = "[ -~\n\t]{0,10}";
        let target = (0..PATHS.len()).prop_map(|i| xpath::parse(PATHS[i]).unwrap());
        (0u8..7, name, text, value, target).prop_map(|(kind, name, text, value, target)| match kind
        {
            0 => UpdateExpr::InsertInto { name, text, target },
            1 => UpdateExpr::InsertBefore { name, text, target },
            2 => UpdateExpr::InsertAfter { name, text, target },
            3 => UpdateExpr::InsertAttribute { attr: name, value, target },
            4 => UpdateExpr::Delete { target },
            5 => UpdateExpr::ReplaceNode { target, name, text },
            _ => UpdateExpr::ReplaceValue { target, value },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn display_parses_back_to_the_same_expression(u in expr()) {
            let text = u.to_string();
            let back = parse_update(&text);
            prop_assert!(back.as_ref() == Ok(&u), "{text:?} parsed to {back:?}");
        }
    }

    #[test]
    fn paths_with_predicates_survive_keyword_scanning() {
        let u = parse_update(r#"replace node /lib/book[title = "with"]/x with <x/>"#);
        // The quoted "with" sits mid-path without whitespace around the
        // keyword-with-boundaries, so the real clause is still found.
        assert!(u.is_ok(), "{u:?}");
    }
}
