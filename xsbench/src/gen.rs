//! Seeded inputs: the random source, the BookStore model the oracle
//! answers from, and the request stream of every workload.
//!
//! Every expected answer is computed here, from the generator's own
//! record of what it wrote, never by asking the engine under test.

use std::collections::VecDeque;

use bench::workload::Family;
use xsserver::protocol::{Opcode, Status};

/// SplitMix64: small, fast and identical on every platform, so a seed
/// names one request stream everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An independent stream derived from this one and `salt`.
    pub fn fork(&self, salt: u64) -> Rng {
        let mut r = Rng(self.0 ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }
}

/// A seeded, stratified mix: each block holds every choice exactly as
/// often as its share says, in a shuffled order. Shares then hold in
/// every block, and the run-to-run spread of the mix is the block's,
/// not a binomial draw's.
#[derive(Debug, Clone)]
pub struct Deck<T: Copy> {
    block: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    /// `shares` lists each choice with its count per block.
    pub fn new(shares: &[(T, usize)]) -> Deck<T> {
        let block = shares.iter().flat_map(|&(t, n)| std::iter::repeat_n(t, n)).collect();
        Deck { block, left: Vec::new() }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.left.is_empty() {
            self.left = self.block.clone();
            for i in (1..self.left.len()).rev() {
                let j = rng.below(i + 1);
                self.left.swap(i, j);
            }
        }
        self.left.pop().expect("a refilled deck is not empty")
    }
}

const WORDS: &[&str] = &[
    "database",
    "schema",
    "algebra",
    "node",
    "accessor",
    "document",
    "order",
    "tree",
    "label",
    "block",
    "storage",
    "query",
    "element",
    "attribute",
    "model",
];

fn word(rng: &mut Rng) -> &'static str {
    WORDS[rng.below(WORDS.len())]
}

/// One `Book` of the flat `BookStore` shape (`bench::Family::Flat`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Book {
    pub title: String,
    pub authors: Vec<String>,
    pub date: String,
    pub isbn: String,
    pub publisher: String,
}

/// The benchmark's record of one `BookStore` document: the oracle's source
/// of truth for every answer about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BookStore {
    pub books: Vec<Book>,
}

impl BookStore {
    /// `n` books with unique titles, about 12 nodes each.
    pub fn generate(n: usize, rng: &mut Rng) -> BookStore {
        let books = (0..n)
            .map(|i| Book {
                title: format!("{} {} vol {i}", word(rng), word(rng)),
                authors: (0..1 + rng.below(3)).map(|_| word(rng).to_string()).collect(),
                date: (1950 + rng.below(70)).to_string(),
                isbn: format!(
                    "{}-{:03}-{:05}-{}",
                    rng.below(10),
                    rng.below(1000),
                    rng.below(100_000),
                    rng.below(10)
                ),
                publisher: word(rng).to_string(),
            })
            .collect();
        BookStore { books }
    }

    /// The document text, in the compact form the server serializes to.
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.books.len() * 170);
        out.push_str("<BookStore>");
        for b in &self.books {
            out.push_str("<Book><Title>");
            out.push_str(&b.title);
            out.push_str("</Title>");
            for a in &b.authors {
                out.push_str("<Author>");
                out.push_str(a);
                out.push_str("</Author>");
            }
            out.push_str("<Date>");
            out.push_str(&b.date);
            out.push_str("</Date><ISBN>");
            out.push_str(&b.isbn);
            out.push_str("</ISBN><Publisher>");
            out.push_str(&b.publisher);
            out.push_str("</Publisher></Book>");
        }
        out.push_str("</BookStore>");
        out
    }
}

/// What a request does, finer than its latency class: per-layer
/// metrics are reported per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Point,
    Positional,
    ChildScan,
    Flwor,
    Descendant,
    ReadBack,
    ReplaceValue,
    InsertAuthor,
    DeleteAuthor,
    InvalidInsert,
    PutDoc,
    ValidateValid,
    ValidateInvalid,
    Save,
    Schema,
}

/// Latency classes of the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// QUERY and XQUERY.
    Read,
    /// UPDATE (opcode 0x13).
    Write,
    /// PUT_DOC and VALIDATE: requests that carry a whole document.
    Ingest,
    /// Set-up and SAVE: counted and checked, but in no latency class.
    Other,
}

impl Class {
    pub const TIMED: [Class; 3] = [Class::Read, Class::Write, Class::Ingest];

    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::Ingest => "ingest",
            Class::Other => "other",
        }
    }
}

impl Kind {
    pub fn class(self) -> Class {
        match self {
            Kind::Point
            | Kind::Positional
            | Kind::ChildScan
            | Kind::Flwor
            | Kind::Descendant
            | Kind::ReadBack => Class::Read,
            Kind::ReplaceValue | Kind::InsertAuthor | Kind::DeleteAuthor | Kind::InvalidInsert => {
                Class::Write
            }
            Kind::PutDoc | Kind::ValidateValid | Kind::ValidateInvalid => Class::Ingest,
            Kind::Save | Kind::Schema => Class::Other,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::Positional => "positional",
            Kind::ChildScan => "child_scan",
            Kind::Flwor => "flwor",
            Kind::Descendant => "descendant",
            Kind::ReadBack => "read_back",
            Kind::ReplaceValue => "replace_value",
            Kind::InsertAuthor => "insert_author",
            Kind::DeleteAuthor => "delete_author",
            Kind::InvalidInsert => "invalid_insert",
            Kind::PutDoc => "put_doc",
            Kind::ValidateValid => "validate_valid",
            Kind::ValidateInvalid => "validate_invalid",
            Kind::Save => "save",
            Kind::Schema => "schema",
        }
    }
}

/// The answer the oracle requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `OK` with exactly these fields (QUERY values, XQUERY text).
    Fields(Vec<String>),
    /// `OK` from UPDATE: verdict `accept` or `recheck`, this many nodes.
    Updated { nodes: usize },
    /// An expected rejection with this status.
    Refused(Status),
    /// `OK` from VALIDATE with at least one violation citing this rule.
    Violates(&'static str),
}

/// One wire request with its expected answer.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub op: Opcode,
    pub fields: Vec<String>,
    pub expect: Expect,
    /// Sent to measure a latency class the workload's own mix lacks.
    pub probe: bool,
}

impl Request {
    fn new(kind: Kind, op: Opcode, fields: Vec<String>, expect: Expect) -> Request {
        Request { kind, op, fields, expect, probe: false }
    }

    pub fn field_refs(&self) -> Vec<&str> {
        self.fields.iter().map(String::as_str).collect()
    }
}

pub fn put_schema(name: &str, xsd: &str) -> Request {
    Request::new(
        Kind::Schema,
        Opcode::PutSchema,
        vec![name.into(), xsd.into()],
        Expect::Fields(Vec::new()),
    )
}

pub fn put_doc(doc: &str, schema: &str, xml: String) -> Request {
    Request::new(
        Kind::PutDoc,
        Opcode::PutDoc,
        vec![doc.into(), schema.into(), xml],
        Expect::Fields(Vec::new()),
    )
}

pub fn save() -> Request {
    Request::new(Kind::Save, Opcode::Save, Vec::new(), Expect::Fields(Vec::new()))
}

fn query(kind: Kind, doc: &str, xpath: String, values: Vec<String>) -> Request {
    Request::new(kind, Opcode::Query, vec![doc.into(), xpath], Expect::Fields(values))
}

fn update(kind: Kind, doc: &str, expr: String, expect: Expect) -> Request {
    Request::new(kind, Opcode::Update, vec![doc.into(), expr], expect)
}

/// Schema name of the BookStore documents (the flat family's XSD).
pub const BOOKS: &str = "flat";

/// Books in the small document each client probes.
pub const PROBE_BOOKS: usize = 25;

/// A client that owns one BookStore document and keeps the model of it.
#[derive(Debug, Clone)]
pub struct BookClient {
    pub doc: String,
    pub store: BookStore,
    rng: Rng,
    edits: u64,
}

impl BookClient {
    pub fn new(doc: &str, books: usize, rng: &mut Rng) -> BookClient {
        let mut doc_rng = rng.fork(1);
        let store = BookStore::generate(books, &mut doc_rng);
        BookClient { doc: doc.to_string(), store, rng: rng.fork(2), edits: 0 }
    }

    pub fn setup(&self) -> Request {
        put_doc(&self.doc, BOOKS, self.store.to_xml())
    }

    fn pick(&mut self) -> usize {
        self.rng.below(self.store.books.len())
    }

    fn fresh_value(&mut self) -> String {
        self.edits += 1;
        format!("{}{}", word(&mut self.rng), self.edits)
    }

    pub fn point(&mut self) -> Request {
        let k = self.pick();
        let b = &self.store.books[k];
        let xpath = format!("/BookStore/Book[Title=\"{}\"]/ISBN", b.title);
        let isbn = b.isbn.clone();
        query(Kind::Point, &self.doc, xpath, vec![isbn])
    }

    pub fn positional(&mut self) -> Request {
        let k = self.pick();
        let title = self.store.books[k].title.clone();
        query(Kind::Positional, &self.doc, format!("/BookStore/Book[{}]/Title", k + 1), vec![title])
    }

    pub fn child_scan(&mut self) -> Request {
        let dates = self.store.books.iter().map(|b| b.date.clone()).collect();
        query(Kind::ChildScan, &self.doc, "/BookStore/Book/Date".into(), dates)
    }

    pub fn descendant(&mut self) -> Request {
        let isbns = self.store.books.iter().map(|b| b.isbn.clone()).collect();
        query(Kind::Descendant, &self.doc, "//ISBN".into(), isbns)
    }

    /// FLWOR over one year: the publishers of the books dated then, so
    /// the answer also checks earlier writes.
    pub fn flwor(&mut self) -> Request {
        let k = self.pick();
        let year = self.store.books[k].date.clone();
        let q = format!(
            "for $b in /BookStore/Book where $b/Date = \"{year}\" return <p>{{$b/Publisher/text()}}</p>"
        );
        let text: String = self
            .store
            .books
            .iter()
            .filter(|b| b.date == year)
            .map(|b| format!("<p>{}</p>", b.publisher))
            .collect();
        Request::new(
            Kind::Flwor,
            Opcode::Xquery,
            vec![self.doc.clone(), q],
            Expect::Fields(vec![text]),
        )
    }

    /// `replace value of node` on Publisher (or on Date when `date`).
    /// Returns the request and the book index written.
    pub fn replace_value(&mut self, date: bool) -> (Request, usize) {
        let k = self.pick();
        let (field, value) = if date {
            ("Date", (1900 + self.rng.below(125)).to_string())
        } else {
            ("Publisher", self.fresh_value())
        };
        let expr =
            format!("replace value of node /BookStore/Book[{}]/{field} with \"{value}\"", k + 1);
        let book = &mut self.store.books[k];
        if date {
            book.date = value;
        } else {
            book.publisher = value;
        }
        (update(Kind::ReplaceValue, &self.doc, expr, Expect::Updated { nodes: 1 }), k)
    }

    /// Insert a second author into book `k` (which must be unpaired).
    pub fn insert_author(&mut self, k: usize) -> Request {
        let name = self.fresh_value();
        let expr = format!(
            "insert node <Author>{name}</Author> after /BookStore/Book[{}]/Author[1]",
            k + 1
        );
        self.store.books[k].authors.insert(1, name);
        update(Kind::InsertAuthor, &self.doc, expr, Expect::Updated { nodes: 1 })
    }

    /// Delete the author `insert_author` put at position 2 of book `k`.
    pub fn delete_author(&mut self, k: usize) -> Request {
        let expr = format!("delete node /BookStore/Book[{}]/Author[2]", k + 1);
        self.store.books[k].authors.remove(1);
        update(Kind::DeleteAuthor, &self.doc, expr, Expect::Updated { nodes: 1 })
    }

    /// An insert the schema forbids outright: the static check must
    /// refuse it before it touches the document.
    pub fn invalid_insert(&mut self) -> Request {
        let k = self.pick();
        let expr = format!("insert node <Bogus>x</Bogus> after /BookStore/Book[{}]/Title", k + 1);
        update(
            Kind::InvalidInsert,
            &self.doc,
            expr,
            Expect::Refused(Status::UpdateStaticallyInvalid),
        )
    }

    /// Read back what a write to book `k` left there.
    pub fn read_back(&mut self, k: usize, written: Written) -> Request {
        let b = &self.store.books[k];
        let (field, values) = match written {
            Written::Publisher => ("Publisher", vec![b.publisher.clone()]),
            Written::Date => ("Date", vec![b.date.clone()]),
            Written::Authors => ("Author", b.authors.clone()),
        };
        query(Kind::ReadBack, &self.doc, format!("/BookStore/Book[{}]/{field}", k + 1), values)
    }
}

/// Which field of a book a write changed, for the read-back check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Written {
    Publisher,
    Date,
    Authors,
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QueryWide,
    UpdateDurable,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "query_wide" => Some(Workload::QueryWide),
            "update_durable" => Some(Workload::UpdateDurable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryWide => "query_wide",
            Workload::UpdateDurable => "update_durable",
        }
    }
}

/// Two clients, each on a connection of its own.
pub const CLIENTS: usize = 2;

/// Books per client document.
pub const QUERY_WIDE_BOOKS: usize = 2000;
pub const UPDATE_DURABLE_BOOKS: usize = 1000;

/// One SAVE after this many writes of one update_durable client.
pub const UPDATE_SAVE_EVERY: u64 = 250;

/// query_wide: the seeded mix over one 2000-book document per client.
#[derive(Debug, Clone)]
pub struct QueryWide {
    pub client: BookClient,
    mix: Deck<Kind>,
}

/// query_wide's shares, per block of 20 requests.
pub const QUERY_WIDE_MIX: [(Kind, usize); 6] = [
    (Kind::Point, 7),
    (Kind::Positional, 5),
    (Kind::ChildScan, 4),
    (Kind::Flwor, 2),
    (Kind::Descendant, 1),
    (Kind::ReplaceValue, 1),
];

impl QueryWide {
    pub fn new(c: usize, rng: &Rng) -> QueryWide {
        let mut r = rng.fork(100 + c as u64);
        QueryWide {
            client: BookClient::new(&format!("qw{c}"), QUERY_WIDE_BOOKS, &mut r),
            mix: Deck::new(&QUERY_WIDE_MIX),
        }
    }

    pub fn next(&mut self) -> Request {
        let c = &mut self.client;
        match self.mix.draw(&mut c.rng) {
            Kind::Point => c.point(),
            Kind::Positional => c.positional(),
            Kind::ChildScan => c.child_scan(),
            Kind::Flwor => c.flwor(),
            Kind::Descendant => c.descendant(),
            _ => c.replace_value(false).0,
        }
    }
}

/// update_durable: checked writes on one 1000-book document per client,
/// each followed now and then by a read of what it wrote.
#[derive(Debug, Clone)]
pub struct UpdateDurable {
    pub client: BookClient,
    mix: Deck<Step>,
    /// Books holding an inserted second author not yet deleted, oldest
    /// first: every insert is paired with a later delete.
    paired: VecDeque<usize>,
    last: Option<(usize, Written)>,
    writes: u64,
    save_due: bool,
}

/// One update_durable step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    ReadBack,
    Publisher,
    Date,
    Author,
    Invalid,
}

/// update_durable's shares, per block of 25 requests: 80% writes, of
/// which one in twenty is statically invalid, and 20% read-backs.
pub const UPDATE_DURABLE_MIX: [(Step, usize); 5] = [
    (Step::ReadBack, 5),
    (Step::Publisher, 5),
    (Step::Date, 5),
    (Step::Author, 9),
    (Step::Invalid, 1),
];

impl UpdateDurable {
    pub fn new(c: usize, rng: &Rng) -> UpdateDurable {
        let mut r = rng.fork(200 + c as u64);
        UpdateDurable {
            client: BookClient::new(&format!("ud{c}"), UPDATE_DURABLE_BOOKS, &mut r),
            mix: Deck::new(&UPDATE_DURABLE_MIX),
            paired: VecDeque::new(),
            last: None,
            writes: 0,
            save_due: false,
        }
    }

    pub fn next(&mut self) -> Request {
        if self.save_due {
            self.save_due = false;
            return save();
        }
        let c = &mut self.client;
        let step = self.mix.draw(&mut c.rng);
        if step == Step::ReadBack {
            return match self.last {
                Some((k, w)) => c.read_back(k, w),
                None => c.positional(),
            };
        }
        self.writes += 1;
        self.save_due = self.writes.is_multiple_of(UPDATE_SAVE_EVERY);
        match step {
            Step::Invalid => c.invalid_insert(),
            Step::Publisher | Step::Date => {
                let date = step == Step::Date;
                let (req, k) = c.replace_value(date);
                self.last = Some((k, if date { Written::Date } else { Written::Publisher }));
                req
            }
            _ => {
                let delete =
                    !self.paired.is_empty() && (self.paired.len() >= 8 || c.rng.below(2) == 0);
                let (req, k) = if delete {
                    let k = self.paired.pop_front().expect("checked non-empty");
                    (c.delete_author(k), k)
                } else {
                    let mut k = c.pick();
                    while self.paired.contains(&k) {
                        k = c.pick();
                    }
                    self.paired.push_back(k);
                    (c.insert_author(k), k)
                };
                self.last = Some((k, Written::Authors));
                req
            }
        }
    }
}

/// A violation planted in a flat BookStore document, and the §6.2 rule
/// it must trip.
const CONTENT_RULE: &str = "§6.2 item 5.4.2.3";
const VALUE_RULE: &str = "§6.2 item 5.1.1";

/// Plant one violation: a non-year in the first `Date`, or an
/// undeclared element as the root's first child.
fn corrupt(xml: &str, rng: &mut Rng) -> (String, &'static str) {
    if rng.below(2) == 0 {
        if let (Some(a), Some(b)) = (xml.find("<Date>"), xml.find("</Date>")) {
            return (format!("{}<Date>never{}", &xml[..a], &xml[b..]), VALUE_RULE);
        }
    }
    let open = xml.find('>').expect("generated documents have a root element") + 1;
    (format!("{}<bogus>x</bogus>{}", &xml[..open], &xml[open..]), CONTENT_RULE)
}

/// The probes a closed-loop client sends after the requests of its own
/// mix, in turn (`None`: no probe after that one).
pub fn probe_cycle(w: Workload) -> &'static [Option<Class>] {
    match w {
        // A write and a VALIDATE in turn after every request. The mix's
        // own writes are a twentieth of about 4000 requests, too few for
        // a steady tail percentile, so writes are probed as well.
        Workload::QueryWide => &[Some(Class::Write), Some(Class::Ingest)],
        // The mix's read-backs are a fifth of about 2000 requests, too
        // few for a steady p99, so reads are probed as well.
        Workload::UpdateDurable => &[Some(Class::Ingest), Some(Class::Read)],
    }
}

/// Probe requests: cheap requests of a latency class the workload's mix
/// lacks, interleaved with the mix so that every workload reports every
/// class. Reads and writes go to the client's own small document;
/// VALIDATE checks small flat documents, one in five of them with a
/// planted violation whose rule the oracle checks.
#[derive(Debug, Clone)]
pub struct Probe {
    pub client: BookClient,
    validate: Vec<Request>,
    next_doc: usize,
}

/// Documents each probe client validates in turn.
const PROBE_VALIDATE_DOCS: usize = 15;

impl Probe {
    pub fn new(c: usize, rng: &Rng) -> Probe {
        let mut r = rng.fork(400 + c as u64);
        let client = BookClient::new(&format!("probe{c}"), PROBE_BOOKS, &mut r);
        let validate = (0..PROBE_VALIDATE_DOCS)
            .map(|i| {
                // Sizes are fixed, 10 to 38 books, so that the seed
                // moves the content and not the cost.
                let xml = BookStore::generate(10 + 2 * i, &mut r).to_xml();
                if i % 5 == 4 {
                    let (bad, rule) = corrupt(&xml, &mut r);
                    let fields = vec![BOOKS.into(), bad];
                    Request::new(
                        Kind::ValidateInvalid,
                        Opcode::Validate,
                        fields,
                        Expect::Violates(rule),
                    )
                } else {
                    let fields = vec![BOOKS.into(), xml];
                    Request::new(
                        Kind::ValidateValid,
                        Opcode::Validate,
                        fields,
                        Expect::Fields(Vec::new()),
                    )
                }
            })
            .collect();
        Probe { client, validate, next_doc: 0 }
    }

    pub fn next(&mut self, class: Class) -> Request {
        let mut req = match class {
            Class::Read => self.client.point(),
            Class::Write => self.client.replace_value(false).0,
            _ => {
                self.next_doc = (self.next_doc + 1) % self.validate.len();
                self.validate[self.next_doc].clone()
            }
        };
        req.probe = true;
        req
    }
}

/// The schema every workload registers: the BookStore XSD.
pub fn schema() -> Request {
    put_schema(BOOKS, Family::Flat.schema_text())
}
