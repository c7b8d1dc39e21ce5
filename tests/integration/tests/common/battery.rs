//! A deterministic battery of XQuery-Update-lite expressions derived
//! from a generated schema — the update half of the shared generative
//! harness. `update_soundness.rs` checks the static verdict of each;
//! `wire_soundness.rs` sends random sequences of them to a live server.

use xsdb::xsmodel::ast::{ComplexTypeDefinition, GroupDefinition, Type};
use xsdb::DocumentSchema;

/// Every name-path from the root to an element declaration, as
/// `(xpath, names)`. Generated names are unique, so a name-path
/// identifies exactly one declaration.
pub fn element_paths(schema: &DocumentSchema) -> Vec<(String, Vec<String>)> {
    fn walk(
        schema: &DocumentSchema,
        names: &mut Vec<String>,
        ty: &Type,
        out: &mut Vec<(String, Vec<String>)>,
    ) {
        out.push((format!("/{}", names.join("/")), names.clone()));
        if let Some(ComplexTypeDefinition::ComplexContent { content, .. }) = schema.complex_of(ty) {
            for d in content.element_declarations() {
                names.push(d.name.clone());
                walk(schema, names, &d.ty, out);
                names.pop();
            }
        }
    }
    let mut out = Vec::new();
    let mut names = vec![schema.root.name.clone()];
    walk(schema, &mut names, &schema.root.ty, &mut out);
    out
}

/// The complex-content group of the element a name-path leads to, if
/// its type has one.
pub fn content_group<'a>(
    schema: &'a DocumentSchema,
    names: &[String],
) -> Option<&'a GroupDefinition> {
    let mut ty = &schema.root.ty;
    if names.first() != Some(&schema.root.name) {
        return None;
    }
    for n in &names[1..] {
        let ComplexTypeDefinition::ComplexContent { content, .. } = schema.complex_of(ty)? else {
            return None;
        };
        let d = content.element_declarations().into_iter().find(|d| &d.name == n)?;
        ty = &d.ty;
    }
    match schema.complex_of(ty)? {
        ComplexTypeDefinition::ComplexContent { content, .. } => Some(content),
        ComplexTypeDefinition::SimpleContent { .. } => None,
    }
}

/// One derived update: its text, the name-path of its target, and
/// whether it edits the target's *own* content (container-style) or
/// its parent's (sibling-anchored).
pub struct Derived {
    pub text: String,
    pub target: Vec<String>,
    pub container: bool,
}

/// A deterministic battery of updates for the schema: per element
/// path, deletes, value replacements (valid-ish and hostile), child
/// inserts (declared and rogue), sibling inserts, and node
/// replacements. Every verdict class shows up across the battery.
pub fn update_battery(schema: &DocumentSchema, paths: &[(String, Vec<String>)]) -> Vec<Derived> {
    let mut out: Vec<Derived> = Vec::new();
    fn push(out: &mut Vec<Derived>, text: String, names: &[String], container: bool) {
        out.push(Derived { text, target: names.to_vec(), container });
    }
    for (p, names) in paths {
        push(&mut out, format!("delete node {p}"), names, false);
        // "1" is lexically valid for all three generated builtins;
        // "zz" is hostile to xs:int and xs:boolean.
        push(&mut out, format!(r#"replace value of node {p} with "1""#), names, true);
        push(&mut out, format!(r#"replace value of node {p} with "zz""#), names, true);
        if let Some(group) = content_group(schema, names) {
            for d in group.element_declarations().into_iter().take(2) {
                let n = &d.name;
                push(&mut out, format!("insert node <{n}>1</{n}> into {p}"), names, true);
                push(&mut out, format!("insert node <{n}/> into {p}"), names, true);
            }
        }
        push(&mut out, format!("insert node <zz0/> into {p}"), names, true);
        if names.len() >= 2 {
            let last = names.last().expect("non-root path");
            push(&mut out, format!("insert node <{last}/> before {p}"), names, false);
            push(&mut out, format!("insert node <{last}>1</{last}> after {p}"), names, false);
            push(&mut out, format!("replace node {p} with <{last}>1</{last}>"), names, false);
        }
        if out.len() >= 32 {
            break;
        }
    }
    out.truncate(32);
    out
}
