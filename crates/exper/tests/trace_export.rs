//! The provenance trace round trip on the built `esvm`: a traced MIEC
//! run exports Chrome `trace_event` JSON that parses and holds events,
//! and the JSONL flavour loads into `esvm query` for an aggregate over
//! the place records and a sort over the spans.

#[path = "support/spawn.rs"]
mod spawn;

use spawn::{esvm, scratch_dir};

const RUN: [&str; 7] = ["compare", "--vms", "200", "--servers", "50", "--seed", "7"];

#[test]
fn a_traced_run_exports_chrome_json_and_queryable_jsonl() {
    let dir = scratch_dir("trace_export");
    esvm(
        &dir,
        &[
            &RUN[..],
            &["--algos", "miec", "--trace-out", "run.trace.json"],
        ]
        .concat(),
    );
    let text = std::fs::read_to_string(dir.join("run.trace.json")).unwrap();
    let events = match Json::parse(&text).and_then(|doc| doc.get("traceEvents")) {
        Some(Json::Array(events)) => events,
        other => panic!("no traceEvents array: {other:?}"),
    };
    assert!(!events.is_empty(), "empty trace");
    assert!(events
        .iter()
        .all(|e| e.get("name").is_some() && e.get("ph").is_some()));

    esvm(
        &dir,
        &[
            &RUN[..],
            &["--algos", "miec,miec-ls", "--trace-out", "run.trace.jsonl"],
        ]
        .concat(),
    );
    let places = esvm(
        &dir,
        &[
            "query",
            "load run.trace.jsonl | filter kind eq place | agg count,mean:candidates,p95 delta",
        ],
    );
    assert!(places.contains("p95:delta"), "{places}");
    let spans = esvm(
        &dir,
        &[
            "query",
            "load run.trace.jsonl | filter type eq span | sort dur_us desc | head 5",
        ],
    );
    assert!(spans.contains("dur_us"), "{spans}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A JSON value, as far as the checks above read one.
#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool,
    Number,
    String,
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// The document `text` holds, or `None` unless it is one JSON value
    /// (RFC 8259) with nothing but whitespace around it.
    fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        (p.at == p.bytes.len()).then_some(value)
    }

    /// The member `key` of an object.
    fn get(&self, key: &str) -> Option<Json> {
        match self {
            Json::Object(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone()),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.at += 1;
        }
    }

    /// Consumes `want` if it comes next.
    fn eat(&mut self, want: &[u8]) -> bool {
        let found = self.bytes[self.at..].starts_with(want);
        if found {
            self.at += want.len();
        }
        found
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match *self.bytes.get(self.at)? {
            b'{' => self.members(),
            b'[' => self.elements(),
            b'"' => self.string().map(|_| Json::String),
            b'n' => self.eat(b"null").then_some(Json::Null),
            b't' => self.eat(b"true").then_some(Json::Bool),
            b'f' => self.eat(b"false").then_some(Json::Bool),
            _ => self.number(),
        }
    }

    fn members(&mut self) -> Option<Json> {
        self.at += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b"}") {
            return Some(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b":") {
                return None;
            }
            members.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b"}") {
                return Some(Json::Object(members));
            }
            if !self.eat(b",") {
                return None;
            }
        }
    }

    fn elements(&mut self) -> Option<Json> {
        self.at += 1;
        let mut elements = Vec::new();
        self.skip_ws();
        if self.eat(b"]") {
            return Some(Json::Array(elements));
        }
        loop {
            elements.push(self.value()?);
            self.skip_ws();
            if self.eat(b"]") {
                return Some(Json::Array(elements));
            }
            if !self.eat(b",") {
                return None;
            }
        }
    }

    /// A string literal; escapes are checked, and kept as written.
    fn string(&mut self) -> Option<String> {
        if !self.eat(b"\"") {
            return None;
        }
        let start = self.at;
        loop {
            match *self.bytes.get(self.at)? {
                b'"' => break,
                b'\\' => {
                    self.at += 1;
                    match *self.bytes.get(self.at)? {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            let hex = self.bytes.get(self.at + 1..self.at + 5)?;
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return None;
                            }
                            self.at += 4;
                        }
                        _ => return None,
                    }
                }
                b if b < 0x20 => return None,
                _ => {}
            }
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .ok()?
            .to_owned();
        self.at += 1;
        Some(text)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Option<Json> {
        let digits = |p: &mut Self| {
            let start = p.at;
            while p.bytes.get(p.at).is_some_and(u8::is_ascii_digit) {
                p.at += 1;
            }
            p.at > start
        };
        self.eat(b"-");
        if !self.eat(b"0") && !digits(self) {
            return None;
        }
        if self.eat(b".") && !digits(self) {
            return None;
        }
        if self.eat(b"e") || self.eat(b"E") {
            let _ = self.eat(b"+") || self.eat(b"-");
            if !digits(self) {
                return None;
            }
        }
        Some(Json::Number)
    }
}

#[test]
fn the_checker_accepts_json_and_refuses_what_is_not() {
    let doc = r#" {"traceEvents": [{"name": "a\"b\u00e9", "ph": "X", "ts": -1.5e3, "args": {}}],
                   "k": [true, false, null, 0, []]} "#;
    match Json::parse(doc).and_then(|d| d.get("traceEvents")) {
        Some(Json::Array(events)) => assert_eq!(events.len(), 1),
        other => panic!("{other:?}"),
    }
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "01",
        "1.",
        "\"\\x\"",
        "[1] [2]",
        "tru",
        "{\"a\":1,}",
    ] {
        assert!(Json::parse(bad).is_none(), "accepted {bad:?}");
    }
}
