//! `esvm query` — a small streaming query engine over trace artefacts.
//!
//! The engine evaluates a piped plan of the form
//!
//! ```text
//! load PATH | filter COL OP VALUE | sel COL,… | sort COL [desc]
//!           | agg SPEC,… [COL] [by:COL] | head N
//! ```
//!
//! over two kinds of sources:
//!
//! * **ESVT traces** (and their text-format equivalents): rows with the
//!   columns `id`, `cpu`, `mem`, `start`, `end`, `duration`. ESVT files
//!   are streamed block-by-block and the per-block `start`/`end`
//!   min/max statistics prune blocks that cannot match the filters —
//!   skipped blocks are never decoded (their payload is seeked past).
//! * **Flat JSON-lines files** — the provenance traces `--trace-out`
//!   writes (one object per explain record or span), or any event log
//!   of the same shape: one flat JSON object per line; the columns are
//!   the union of keys in first-seen order.
//!
//! Filters accept the operators `==`, `!=`, `>=`, `<=`, `>`, `<` and
//! `~` (substring match), each with a shell-friendly word alias
//! (`eq ne ge le gt lt contains`). Aggregations are `count`, `sum`,
//! `mean`, `min`, `max`, `median` and exact nearest-rank percentiles
//! `pNN` (`p50`, `p95`, `p99`, …), each taking `:COL`, a trailing
//! default column (`agg p50,p95,p99 time`), or — for column-less
//! specs — the column of the last `filter` stage; optionally grouped
//! with `by:COL`. `sort COL [desc]` orders row output or aggregate
//! groups by any output column, numeric-aware. The parser is
//! dependency-free, like the rest of the CLI.

use esvm_analysis::Table;
use esvm_workload::esvt;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, Read};

/// A query failure: malformed plan, unreadable source, or a type error
/// during evaluation. Rendered verbatim to the user.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryError(pub String);

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for QueryError {}

fn err(msg: impl Into<String>) -> QueryError {
    QueryError(msg.into())
}

// ---------------------------------------------------------------------------
// Values and rows.
// ---------------------------------------------------------------------------

/// One cell. JSON nulls and keys absent from a line become [`Value::Null`].
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Str(String),
    Null,
}

impl Value {
    fn render(&self) -> String {
        match self {
            Value::Num(v) if v.fract() == 0.0 && v.abs() < 1e15 => {
                format!("{}", *v as i64)
            }
            Value::Num(v) => format!("{v}"),
            Value::Str(s) => s.clone(),
            Value::Null => "null".to_owned(),
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Plan model and parser.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Eq,
    Ne,
    Ge,
    Le,
    Gt,
    Lt,
    Contains,
}

impl Op {
    /// Symbolic operators have shell-friendly word aliases so plans can
    /// be written without quoting (`filter pruned gt 100`).
    fn parse(s: &str) -> Option<Op> {
        Some(match s {
            "==" | "=" | "eq" => Op::Eq,
            "!=" | "ne" => Op::Ne,
            ">=" | "ge" => Op::Ge,
            "<=" | "le" => Op::Le,
            ">" | "gt" => Op::Gt,
            "<" | "lt" => Op::Lt,
            "~" | "contains" => Op::Contains,
            _ => return None,
        })
    }
}

#[derive(Debug, Clone)]
struct Filter {
    col: String,
    op: Op,
    value: Value,
}

impl Filter {
    /// Row-level predicate. Numeric comparisons require both sides
    /// numeric; string equality/substring work on rendered text; a
    /// type mismatch (or a null cell) fails the filter rather than
    /// erroring, so heterogeneous JSONL files stay queryable.
    fn matches(&self, cell: &Value) -> bool {
        match (self.op, cell, &self.value) {
            (Op::Eq, Value::Num(a), Value::Num(b)) => a == b,
            (Op::Ne, Value::Num(a), Value::Num(b)) => a != b,
            (Op::Ge, Value::Num(a), Value::Num(b)) => a >= b,
            (Op::Le, Value::Num(a), Value::Num(b)) => a <= b,
            (Op::Gt, Value::Num(a), Value::Num(b)) => a > b,
            (Op::Lt, Value::Num(a), Value::Num(b)) => a < b,
            (Op::Eq, Value::Str(a), b) => *a == b.render(),
            (Op::Ne, Value::Str(a), b) => *a != b.render(),
            (Op::Contains, cell, pat) => cell.render().contains(&pat.render()),
            (Op::Ne, Value::Null, _) => true,
            _ => false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggFn {
    Count,
    Sum,
    Mean,
    Min,
    Max,
    /// Exact percentile (nearest-rank over the collected values).
    /// `median` parses as `Quantile(50)`.
    Quantile(u8),
}

impl AggFn {
    /// `pNN` (1–99) and the `median` alias.
    fn parse_quantile(name: &str) -> Option<AggFn> {
        if name == "median" {
            return Some(AggFn::Quantile(50));
        }
        let q = name.strip_prefix('p')?.parse::<u8>().ok()?;
        (1..=99).contains(&q).then_some(AggFn::Quantile(q))
    }
}

/// The spelling of an aggregate function as it appears in a plan, for
/// error messages and labels.
fn agg_name(func: AggFn) -> String {
    match func {
        AggFn::Count => "count".to_owned(),
        AggFn::Sum => "sum".to_owned(),
        AggFn::Mean => "mean".to_owned(),
        AggFn::Min => "min".to_owned(),
        AggFn::Max => "max".to_owned(),
        AggFn::Quantile(q) => format!("p{q}"),
    }
}

#[derive(Debug, Clone)]
struct AggSpec {
    func: AggFn,
    col: Option<String>,
}

impl AggSpec {
    fn label(&self) -> String {
        match (&self.func, &self.col) {
            (AggFn::Count, _) => "count".to_owned(),
            (AggFn::Sum, Some(c)) => format!("sum:{c}"),
            (AggFn::Mean, Some(c)) => format!("mean:{c}"),
            (AggFn::Min, Some(c)) => format!("min:{c}"),
            (AggFn::Max, Some(c)) => format!("max:{c}"),
            (AggFn::Quantile(q), Some(c)) => format!("p{q}:{c}"),
            _ => unreachable!("column-less aggregate other than count"),
        }
    }
}

#[derive(Debug, Clone)]
struct Plan {
    source: String,
    filters: Vec<Filter>,
    select: Option<Vec<String>>,
    aggs: Option<Vec<AggSpec>>,
    group_by: Option<String>,
    sort: Option<(String, bool)>,
    head: Option<usize>,
}

/// Grammar synopsis embedded in every parse error.
const PLAN_HELP: &str = "\
plan grammar:
  load PATH | filter COL OP VALUE | sel COL,... | sort COL [desc]
            | agg SPEC,... [COL] [by:COL] | head N
  OP    ==  !=  >=  <=  >  <  ~  or the words  eq ne ge le gt lt contains
  SPEC  count  sum  mean  min  max  median  pNN (p50, p95, p99, ...)
        each takes :COL, the trailing default COL, or — for a lone
        column-less spec — the column of the last filter stage
columns: id,cpu,mem,start,end,duration for traces; JSON keys for
         flat JSONL files such as provenance traces";

fn parse_plan(expr: &str) -> Result<Plan, QueryError> {
    let help = |msg: String| err(format!("{msg}\n\n{PLAN_HELP}"));
    let mut stages = expr.split('|').map(str::trim);
    let Some(load) = stages.next().filter(|s| !s.is_empty()) else {
        return Err(help("empty query plan".into()));
    };
    let source = load
        .strip_prefix("load")
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .ok_or_else(|| help(format!("the first stage must be `load PATH`, got {load:?}")))?;

    let mut plan = Plan {
        source: source.to_owned(),
        filters: Vec::new(),
        select: None,
        aggs: None,
        group_by: None,
        sort: None,
        head: None,
    };

    for stage in stages {
        let mut words = stage.split_whitespace();
        match words.next() {
            Some("filter") => {
                let col = words
                    .next()
                    .ok_or_else(|| help(format!("filter needs `COL OP VALUE`, got {stage:?}")))?;
                let op = words
                    .next()
                    .and_then(Op::parse)
                    .ok_or_else(|| help(format!("bad filter operator in {stage:?}")))?;
                let raw = words.collect::<Vec<_>>().join(" ");
                if raw.is_empty() {
                    return Err(help(format!("filter needs a value, got {stage:?}")));
                }
                let value = match raw.parse::<f64>() {
                    Ok(v) if v.is_finite() => Value::Num(v),
                    _ => Value::Str(raw.trim_matches('"').to_owned()),
                };
                plan.filters.push(Filter {
                    col: col.to_owned(),
                    op,
                    value,
                });
            }
            Some("sel") => {
                if plan.select.is_some() {
                    return Err(help("duplicate sel stage".into()));
                }
                let cols: Vec<String> = words
                    .collect::<Vec<_>>()
                    .join(" ")
                    .split(',')
                    .map(|c| c.trim().to_owned())
                    .filter(|c| !c.is_empty())
                    .collect();
                if cols.is_empty() {
                    return Err(help(format!("sel needs column names, got {stage:?}")));
                }
                plan.select = Some(cols);
            }
            Some("agg") => {
                if plan.aggs.is_some() {
                    return Err(help("duplicate agg stage".into()));
                }
                let mut specs: Vec<AggSpec> = Vec::new();
                let mut default_col: Option<String> = None;
                let joined = words.collect::<Vec<_>>().join(" ");
                for part in joined.split([',', ' ']).filter(|p| !p.is_empty()) {
                    if let Some(col) = part.strip_prefix("by:") {
                        if plan.group_by.is_some() {
                            return Err(help("duplicate by: clause".into()));
                        }
                        plan.group_by = Some(col.to_owned());
                        continue;
                    }
                    let (name, col) = match part.split_once(':') {
                        Some((n, c)) => (n, Some(c.to_owned())),
                        None => (part, None),
                    };
                    let func = match name {
                        "count" => AggFn::Count,
                        "sum" => AggFn::Sum,
                        "mean" | "avg" => AggFn::Mean,
                        "min" => AggFn::Min,
                        "max" => AggFn::Max,
                        other => match AggFn::parse_quantile(other) {
                            Some(q) => q,
                            // Not a function name: a bare trailing word
                            // is the default column for column-less
                            // specs (`agg p50,p95,p99 dur_us`).
                            None if col.is_none() && !specs.is_empty() => {
                                if default_col.is_some() {
                                    return Err(help(format!(
                                        "agg takes one default column, got a second: {other:?}"
                                    )));
                                }
                                default_col = Some(other.to_owned());
                                continue;
                            }
                            None => {
                                return Err(help(format!("unknown aggregate {other:?}")));
                            }
                        },
                    };
                    specs.push(AggSpec { func, col });
                }
                if specs.is_empty() {
                    return Err(help(format!("agg needs at least one spec, got {stage:?}")));
                }
                // Column-less specs resolve to the trailing default
                // column, then to the last filter's column — so
                // `filter pruned gt 100 | agg mean by:kind` means
                // `mean:pruned` — and error only when neither exists.
                let fallback = default_col.or_else(|| plan.filters.last().map(|f| f.col.clone()));
                for spec in &mut specs {
                    if spec.func != AggFn::Count && spec.col.is_none() {
                        match &fallback {
                            Some(c) => spec.col = Some(c.clone()),
                            None => {
                                return Err(help(format!(
                                    "{} needs a column: `{}:COL` (or a trailing default column)",
                                    agg_name(spec.func),
                                    agg_name(spec.func),
                                )));
                            }
                        }
                    }
                }
                plan.aggs = Some(specs);
            }
            Some("sort") => {
                if plan.sort.is_some() {
                    return Err(help("duplicate sort stage".into()));
                }
                let col = words
                    .next()
                    .ok_or_else(|| help(format!("sort needs `COL [desc]`, got {stage:?}")))?;
                let desc = match words.next() {
                    None => false,
                    Some("desc") => true,
                    Some("asc") => false,
                    Some(other) => {
                        return Err(help(format!("sort direction must be `desc`, got {other:?}")));
                    }
                };
                if words.next().is_some() {
                    return Err(help(format!("sort takes `COL [desc]`, got {stage:?}")));
                }
                plan.sort = Some((col.to_owned(), desc));
            }
            Some("head") => {
                if plan.head.is_some() {
                    return Err(help("duplicate head stage".into()));
                }
                let n = words
                    .next()
                    .and_then(|w| w.parse::<usize>().ok())
                    .ok_or_else(|| help(format!("head needs a row count, got {stage:?}")))?;
                plan.head = Some(n);
            }
            Some(other) => {
                return Err(help(format!("unknown stage {other:?}")));
            }
            None => return Err(help("empty stage between pipes".into())),
        }
    }
    if plan.aggs.is_some() && plan.select.is_some() {
        return Err(help("sel and agg cannot be combined — agg defines its own columns".into()));
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Sources.
// ---------------------------------------------------------------------------

/// Column order for trace-backed rows.
const TRACE_COLUMNS: [&str; 6] = ["id", "cpu", "mem", "start", "end", "duration"];

/// What `load` resolved the file to, for the footer line.
#[derive(Debug, Clone, PartialEq)]
enum SourceReport {
    /// ESVT: block skipping statistics from the reader.
    Esvt(esvt::ReadStats),
    /// Text trace: record count.
    Text(usize),
    /// JSONL: lines scanned (blank lines excluded).
    Jsonl(usize),
}

/// Streams all rows that pass `plan.filters` into `emit` (which also
/// receives the column names — fixed for traces, pre-computed for
/// JSONL); returns the columns and a source report. `emit` returns
/// `false` to stop early (head reached with no aggregation pending).
fn scan(
    plan: &Plan,
    mut emit: impl FnMut(&[String], Vec<Value>) -> bool,
) -> Result<(Vec<String>, SourceReport), QueryError> {
    let path = &plan.source;
    let mut head = [0u8; 4];
    let n = File::open(path)
        .and_then(|mut f| {
            let mut read = 0;
            while read < 4 {
                match f.read(&mut head[read..])? {
                    0 => break,
                    k => read += k,
                }
            }
            Ok(read)
        })
        .map_err(|e| err(format!("cannot read {path:?}: {e}")))?;

    if n == 4 && head == esvt::MAGIC {
        scan_esvt(plan, emit)
    } else if head.starts_with(b"{") {
        scan_jsonl(plan, emit)
    } else {
        // Fall back to the text trace parser, which produces precise
        // errors for anything that is neither format.
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(format!("cannot read {path:?}: {e}")))?;
        let problem = esvm_workload::trace::from_text(&text)
            .map_err(|e| err(format!("bad trace {path:?}: {e}")))?;
        let columns: Vec<String> = TRACE_COLUMNS.iter().map(|c| (*c).to_owned()).collect();
        let mut count = 0usize;
        for vm in problem.vms() {
            count += 1;
            let row = trace_row(vm);
            if row_passes(&columns, &row, &plan.filters) && !emit(&columns, row) {
                break;
            }
        }
        Ok((columns, SourceReport::Text(count)))
    }
}

fn trace_row(vm: &esvm_simcore::Vm) -> Vec<Value> {
    vec![
        Value::Num(f64::from(vm.id().0)),
        Value::Num(vm.demand().cpu),
        Value::Num(vm.demand().mem),
        Value::Num(f64::from(vm.start())),
        Value::Num(f64::from(vm.end())),
        Value::Num(vm.duration() as f64),
    ]
}

fn row_passes(columns: &[String], row: &[Value], filters: &[Filter]) -> bool {
    filters.iter().all(|f| {
        match columns.iter().position(|c| *c == f.col) {
            Some(i) => f.matches(&row[i]),
            // An unknown column never matches (Ne still passes, as for
            // null cells — the column is absent everywhere).
            None => f.matches(&Value::Null),
        }
    })
}

/// Whether a block with `stats` can contain a row satisfying `f`.
/// Only `start`/`end` filters prune; everything else keeps the block.
fn block_may_match(stats: &esvt::BlockStats, f: &Filter) -> bool {
    let Some(v) = f.value.as_num() else { return true };
    let (lo, hi) = match f.col.as_str() {
        "start" => (f64::from(stats.min_start), f64::from(stats.max_start)),
        "end" => (f64::from(stats.min_end), f64::from(stats.max_end)),
        _ => return true,
    };
    match f.op {
        Op::Eq => lo <= v && v <= hi,
        Op::Ge => hi >= v,
        Op::Gt => hi > v,
        Op::Le => lo <= v,
        Op::Lt => lo < v,
        Op::Ne | Op::Contains => true,
    }
}

fn scan_esvt(
    plan: &Plan,
    mut emit: impl FnMut(&[String], Vec<Value>) -> bool,
) -> Result<(Vec<String>, SourceReport), QueryError> {
    let path = &plan.source;
    let mut reader = esvt::TraceReader::open(path)
        .map_err(|e| err(format!("bad ESVT trace {path:?}: {e}")))?;
    let columns: Vec<String> = TRACE_COLUMNS.iter().map(|c| (*c).to_owned()).collect();
    let filters = &plan.filters;
    let mut stop = false;
    let mut buf = Vec::new();
    loop {
        if stop {
            break;
        }
        let next = reader
            .next_batch_if(
                |stats| filters.iter().all(|f| block_may_match(stats, f)),
                &mut buf,
            )
            .map_err(|e| err(format!("bad ESVT trace {path:?}: {e}")))?;
        let Some((_, decoded)) = next else { break };
        if !decoded {
            continue;
        }
        for vm in &buf {
            let row = trace_row(vm);
            if row_passes(&columns, &row, filters) && !emit(&columns, row) {
                stop = true;
                break;
            }
        }
    }
    Ok((columns, SourceReport::Esvt(reader.stats())))
}

fn scan_jsonl(
    plan: &Plan,
    mut emit: impl FnMut(&[String], Vec<Value>) -> bool,
) -> Result<(Vec<String>, SourceReport), QueryError> {
    let path = &plan.source;
    let file = File::open(path).map_err(|e| err(format!("cannot read {path:?}: {e}")))?;
    // Two passes keep memory at O(columns + one line): the first
    // discovers the column set (the union of keys, first-seen order),
    // the second streams rows. Event files are small next to traces.
    let mut columns: Vec<String> = Vec::new();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| err(format!("cannot read {path:?}: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        for (key, _) in parse_json_line(&line, i + 1, path)? {
            if !columns.contains(&key) {
                columns.push(key);
            }
        }
    }
    let file = File::open(path).map_err(|e| err(format!("cannot read {path:?}: {e}")))?;
    let mut scanned = 0usize;
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| err(format!("cannot read {path:?}: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        scanned += 1;
        let pairs = parse_json_line(&line, i + 1, path)?;
        let row: Vec<Value> = columns
            .iter()
            .map(|c| {
                pairs
                    .iter()
                    .find(|(k, _)| k == c)
                    .map_or(Value::Null, |(_, v)| v.clone())
            })
            .collect();
        if row_passes(&columns, &row, &plan.filters) && !emit(&columns, row) {
            break;
        }
    }
    Ok((columns, SourceReport::Jsonl(scanned)))
}

// ---------------------------------------------------------------------------
// Flat JSON-object parser (the shape `--trace-out` JSONL writes).
// ---------------------------------------------------------------------------

fn parse_json_line(
    line: &str,
    line_no: usize,
    path: &str,
) -> Result<Vec<(String, Value)>, QueryError> {
    let bad = |reason: String| err(format!("{path}:{line_no}: {reason}"));
    let bytes = line.trim().as_bytes();
    let mut pos = 0usize;
    let mut pairs = Vec::new();

    let skip_ws = |pos: &mut usize| {
        while bytes.get(*pos).is_some_and(|b| b.is_ascii_whitespace()) {
            *pos += 1;
        }
    };
    if bytes.first() != Some(&b'{') {
        return Err(bad("expected a JSON object".into()));
    }
    pos += 1;
    skip_ws(&mut pos);
    if bytes.get(pos) == Some(&b'}') {
        return Ok(pairs);
    }
    loop {
        skip_ws(&mut pos);
        let key = parse_json_string(bytes, &mut pos).map_err(&bad)?;
        skip_ws(&mut pos);
        if bytes.get(pos) != Some(&b':') {
            return Err(bad(format!("expected ':' after key {key:?}")));
        }
        pos += 1;
        skip_ws(&mut pos);
        let value = match bytes.get(pos) {
            Some(b'"') => Value::Str(parse_json_string(bytes, &mut pos).map_err(&bad)?),
            Some(b'{') | Some(b'[') => {
                return Err(bad(format!(
                    "nested value for key {key:?} — only flat objects are supported"
                )));
            }
            Some(_) => {
                let start = pos;
                while bytes
                    .get(pos)
                    .is_some_and(|b| !matches!(b, b',' | b'}') && !b.is_ascii_whitespace())
                {
                    pos += 1;
                }
                let token = std::str::from_utf8(&bytes[start..pos])
                    .map_err(|_| bad("invalid UTF-8".into()))?;
                match token {
                    "null" => Value::Null,
                    "true" => Value::Str("true".into()),
                    "false" => Value::Str("false".into()),
                    t => Value::Num(
                        t.parse::<f64>()
                            .map_err(|_| bad(format!("bad JSON value {t:?}")))?,
                    ),
                }
            }
            None => return Err(bad("truncated object".into())),
        };
        pairs.push((key, value));
        skip_ws(&mut pos);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => {
                pos += 1;
                skip_ws(&mut pos);
                if pos != bytes.len() {
                    return Err(bad("trailing bytes after object".into()));
                }
                return Ok(pairs);
            }
            _ => return Err(bad("expected ',' or '}'".into())),
        }
    }
}

fn parse_json_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err("expected a string".into());
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        out.push(char::from_u32(hex).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (keys/values may be non-ASCII).
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid UTF-8")?;
                let c = s.chars().next().ok_or("truncated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
            None => return Err("unterminated string".into()),
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct AggState {
    count: u64,
    sum: f64,
    seen: u64,
    min: f64,
    max: f64,
    /// Collected only for quantile specs (exact nearest-rank needs
    /// every value); empty for the streaming aggregates.
    values: Vec<f64>,
}

impl AggState {
    fn update(&mut self, cell: Option<&Value>, collect: bool) {
        self.count += 1;
        if let Some(v) = cell.and_then(Value::as_num) {
            if self.seen == 0 {
                self.min = v;
                self.max = v;
            } else {
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
            self.seen += 1;
            self.sum += v;
            if collect {
                self.values.push(v);
            }
        }
    }

    fn finish(&self, func: AggFn) -> Value {
        match func {
            AggFn::Count => Value::Num(self.count as f64),
            _ if self.seen == 0 => Value::Null,
            AggFn::Sum => Value::Num(self.sum),
            AggFn::Mean => Value::Num(self.sum / self.seen as f64),
            AggFn::Min => Value::Num(self.min),
            AggFn::Max => Value::Num(self.max),
            AggFn::Quantile(q) => {
                let mut sorted = self.values.clone();
                sorted.sort_by(f64::total_cmp);
                // Exact nearest-rank: the smallest value with at least
                // ⌈q/100·n⌉ values at or below it.
                let rank = (f64::from(q) / 100.0 * sorted.len() as f64).ceil() as usize;
                Value::Num(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Runs a query plan and renders its result (table plus a `--` footer
/// describing what the scan did).
///
/// # Errors
///
/// [`QueryError`] for a malformed plan, an unreadable or corrupt
/// source, or an unknown column.
pub fn run_query(expr: &str) -> Result<String, QueryError> {
    let plan = parse_plan(expr)?;

    if let Some(aggs) = &plan.aggs {
        return run_agg(&plan, aggs);
    }

    // Row output: project, sort, cap at head, render. A sort defeats
    // the early-exit head cap — every row has to be seen first.
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let cap = if plan.sort.is_some() {
        usize::MAX
    } else {
        plan.head.unwrap_or(usize::MAX)
    };
    let (columns, report) = scan(&plan, |_, row| {
        if rows.len() < cap {
            rows.push(row);
        }
        rows.len() < cap
    })?;
    if let Some((col, desc)) = &plan.sort {
        let i = columns
            .iter()
            .position(|c| c == col)
            .ok_or_else(|| err(format!("unknown sort column {col:?} (have: {})", columns.join(", "))))?;
        sort_rows(&mut rows, |row| &row[i], *desc);
        rows.truncate(plan.head.unwrap_or(usize::MAX));
    }

    let out_cols: Vec<String> = match &plan.select {
        Some(sel) => {
            for c in sel {
                if !columns.contains(c) {
                    return Err(err(format!(
                        "unknown column {c:?} (have: {})",
                        columns.join(", ")
                    )));
                }
            }
            sel.clone()
        }
        None => columns.clone(),
    };
    let indices: Vec<usize> = out_cols
        .iter()
        .map(|c| columns.iter().position(|x| x == c).expect("validated"))
        .collect();

    let mut table = Table::new(out_cols);
    let n_rows = rows.len();
    for row in rows {
        table.row(indices.iter().map(|&i| row[i].render()).collect());
    }
    let mut out = table.to_string();
    let _ = write!(out, "\n-- {n_rows} row{}", plural(n_rows));
    push_footer(&mut out, &report);
    Ok(out)
}

fn run_agg(plan: &Plan, aggs: &[AggSpec]) -> Result<String, QueryError> {
    // Group key -> one AggState per spec. Insertion order preserved.
    let mut groups: Vec<(String, Vec<AggState>)> = Vec::new();
    let group_col = plan.group_by.clone();
    let agg_cols: Vec<(Option<String>, bool)> = aggs
        .iter()
        .map(|a| (a.col.clone(), matches!(a.func, AggFn::Quantile(_))))
        .collect();

    let (columns, report) = scan(plan, |columns, row| {
        let key = match &group_col {
            Some(c) => match columns.iter().position(|x| x == c) {
                Some(i) => row[i].render(),
                None => "null".to_owned(),
            },
            None => String::new(),
        };
        let state = match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, s)) => s,
            None => {
                groups.push((key, vec![AggState::default(); agg_cols.len()]));
                &mut groups.last_mut().expect("just pushed").1
            }
        };
        for ((spec_col, collect), st) in agg_cols.iter().zip(state.iter_mut()) {
            let cell = spec_col
                .as_ref()
                .and_then(|c| columns.iter().position(|x| x == c))
                .map(|i| &row[i]);
            st.update(cell, *collect);
        }
        true
    })?;
    if let Some(c) = &plan.group_by {
        if !columns.contains(c) {
            return Err(err(format!(
                "unknown group column {c:?} (have: {})",
                columns.join(", ")
            )));
        }
    }
    for spec in aggs {
        if let Some(c) = &spec.col {
            if !columns.contains(c) {
                return Err(err(format!(
                    "unknown aggregate column {c:?} (have: {})",
                    columns.join(", ")
                )));
            }
        }
    }

    let mut header: Vec<String> = Vec::new();
    if let Some(c) = &plan.group_by {
        header.push(c.clone());
    }
    header.extend(aggs.iter().map(AggSpec::label));

    // Finish every group into output cells first, so a sort stage can
    // order groups by any output column (the group key or an aggregate
    // label like `p95:time`).
    let mut out_rows: Vec<Vec<Value>> = groups
        .iter()
        .map(|(key, states)| {
            let mut cells = Vec::new();
            if plan.group_by.is_some() {
                cells.push(match key.parse::<f64>() {
                    Ok(v) if v.is_finite() => Value::Num(v),
                    _ => Value::Str(key.clone()),
                });
            }
            cells.extend(aggs.iter().zip(states).map(|(spec, st)| st.finish(spec.func)));
            cells
        })
        .collect();
    if let Some((col, desc)) = &plan.sort {
        let i = header
            .iter()
            .position(|c| c == col)
            .ok_or_else(|| {
                err(format!("unknown sort column {col:?} (have: {})", header.join(", ")))
            })?;
        sort_rows(&mut out_rows, |row| &row[i], *desc);
    }

    let mut table = Table::new(header);
    let n_groups = out_rows.len();
    for row in out_rows {
        table.row(row.iter().map(Value::render).collect());
    }
    let mut out = table.to_string();
    if plan.group_by.is_some() {
        let _ = write!(out, "\n-- {n_groups} group{}", plural(n_groups));
    } else {
        out.push_str("\n--");
    }
    push_footer(&mut out, &report);
    Ok(out)
}

/// Stable, numeric-aware sort: numbers order before strings, both
/// order among themselves, nulls sink to the end regardless of
/// direction (so `sort COL desc` surfaces real values first).
fn sort_rows<R>(rows: &mut [R], key: impl Fn(&R) -> &Value, desc: bool) {
    rows.sort_by(|a, b| {
        let (a, b) = (key(a), key(b));
        let cmp = match (a, b) {
            (Value::Num(x), Value::Num(y)) => x.total_cmp(y),
            (Value::Str(x), Value::Str(y)) => x.cmp(y),
            (Value::Num(_), Value::Str(_)) => std::cmp::Ordering::Less,
            (Value::Str(_), Value::Num(_)) => std::cmp::Ordering::Greater,
            (Value::Null, Value::Null) => return std::cmp::Ordering::Equal,
            (Value::Null, _) => return std::cmp::Ordering::Greater,
            (_, Value::Null) => return std::cmp::Ordering::Less,
        };
        if desc {
            cmp.reverse()
        } else {
            cmp
        }
    });
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn push_footer(out: &mut String, report: &SourceReport) {
    match report {
        SourceReport::Esvt(stats) => {
            let total = stats.blocks_read + stats.blocks_skipped;
            let _ = write!(
                out,
                " (esvt: {} of {} block{} decoded, {} skipped; {} records)",
                stats.blocks_read,
                total,
                plural(total),
                stats.blocks_skipped,
                stats.records_decoded
            );
        }
        SourceReport::Text(n) => {
            let _ = write!(out, " (text trace: {n} record{})", plural(*n));
        }
        SourceReport::Jsonl(n) => {
            let _ = write!(out, " (jsonl: {n} line{} scanned)", plural(*n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esvm_workload::WorkloadConfig;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("esvm-query-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn sample_esvt(name: &str, vms: usize) -> PathBuf {
        let path = temp_path(name);
        let cfg = WorkloadConfig::new(vms, (vms / 2).max(2));
        cfg.generate_esvt_file(7, &path).unwrap();
        path
    }

    #[test]
    fn count_over_esvt_matches_vm_count() {
        let path = sample_esvt("count.esvt", 64);
        let out = run_query(&format!("load {} | agg count", path.display())).unwrap();
        assert!(out.contains("64"), "{out}");
        assert!(out.contains("esvt:"), "{out}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn filters_and_selection_project_columns() {
        let path = sample_esvt("filter.esvt", 64);
        let out = run_query(&format!(
            "load {} | filter start >= 0 | sel id,start | head 3",
            path.display()
        ))
        .unwrap();
        let header = out.lines().next().unwrap();
        assert!(header.contains("id") && header.contains("start"), "{out}");
        assert!(!header.contains("cpu"), "{out}");
        assert!(out.contains("-- 3 rows"), "{out}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn start_filter_skips_blocks() {
        // Small blocks so the trace has many; an impossible start
        // filter must skip all of them without decoding.
        let path = temp_path("skip.esvt");
        let cfg = WorkloadConfig::new(512, 64);
        let problem = cfg.generate(3).unwrap();
        let bytes = esvt::to_esvt_with_block_len(&problem, 32);
        std::fs::write(&path, bytes).unwrap();
        let out = run_query(&format!(
            "load {} | filter start > 4000000000 | agg count",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("0 of 16 blocks decoded, 16 skipped"), "{out}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn text_traces_and_esvt_agree() {
        let cfg = WorkloadConfig::new(48, 12);
        let problem = cfg.generate(11).unwrap();
        let text_path = temp_path("agree.txt");
        let esvt_path = temp_path("agree.esvt");
        std::fs::write(&text_path, esvm_workload::trace::to_text(&problem)).unwrap();
        std::fs::write(&esvt_path, esvt::to_esvt(&problem)).unwrap();
        let q = "| filter duration >= 3 | agg count,sum:cpu,mean:mem,max:end";
        let a = run_query(&format!("load {} {q}", text_path.display())).unwrap();
        let b = run_query(&format!("load {} {q}", esvt_path.display())).unwrap();
        // Identical except the footer (different source kinds).
        let strip = |s: &str| s.lines().filter(|l| !l.starts_with("--")).count();
        assert_eq!(strip(&a), strip(&b));
        let body = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("(") || !l.starts_with("--"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let body_a: String = body(&a).lines().take(2).collect::<Vec<_>>().join("\n");
        let body_b: String = body(&b).lines().take(2).collect::<Vec<_>>().join("\n");
        assert_eq!(body_a, body_b);
        std::fs::remove_file(text_path).unwrap();
        std::fs::remove_file(esvt_path).unwrap();
    }

    #[test]
    fn jsonl_grouped_aggregation() {
        let path = temp_path("events.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"event\":\"miec.place\",\"algo\":\"miec\",\"delta\":2.5}\n",
                "{\"event\":\"miec.place\",\"algo\":\"miec\",\"delta\":1.5}\n",
                "{\"event\":\"run.start\",\"algo\":\"ffps\"}\n",
            ),
        )
        .unwrap();
        let out = run_query(&format!(
            "load {} | agg count,sum:delta by:algo",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("miec"), "{out}");
        assert!(out.contains("4"), "{out}"); // sum:delta for miec
        assert!(out.contains("-- 2 groups"), "{out}");
        assert!(out.contains("3 lines scanned"), "{out}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn jsonl_filter_on_event_name() {
        let path = temp_path("events2.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"event\":\"chaos.crash\",\"server\":3,\"at\":10}\n",
                "{\"event\":\"chaos.repair\",\"server\":3,\"at\":14}\n",
                "{\"event\":\"chaos.crash\",\"server\":5,\"at\":20}\n",
            ),
        )
        .unwrap();
        let out = run_query(&format!(
            "load {} | filter event == chaos.crash | agg count,max:at",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("2"), "{out}");
        assert!(out.contains("20"), "{out}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn substring_filter_matches() {
        let path = temp_path("events3.jsonl");
        std::fs::write(
            &path,
            "{\"event\":\"miec.place\"}\n{\"event\":\"run.start\"}\n",
        )
        .unwrap();
        let out = run_query(&format!(
            "load {} | filter event ~ place | agg count",
            path.display()
        ))
        .unwrap();
        assert!(out.lines().any(|l| l.trim() == "1"), "{out}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn parse_errors_are_helpful() {
        for (plan, needle) in [
            ("", "load PATH"),
            ("load", "load PATH"),
            ("load x | frobnicate", "unknown stage"),
            ("load x | filter a !! 3", "operator"),
            ("load x | agg p0:a", "unknown aggregate"),
            ("load x | agg p100:a", "unknown aggregate"),
            ("load x | agg frob:a", "unknown aggregate"),
            ("load x | agg sum", "needs a column"),
            ("load x | agg sum a b", "one default column"),
            ("load x | head none", "row count"),
            ("load x | sel a | agg count", "cannot be combined"),
            ("load x | sort", "sort needs"),
            ("load x | sort a up", "desc"),
            ("load x | sort a desc | sort b", "duplicate sort"),
        ] {
            let e = run_query(plan).unwrap_err();
            assert!(e.0.contains(needle), "{plan:?} -> {e}");
        }
    }

    /// The committed chaos-event fixture the CI `tracing` job also
    /// queries: 18 lines, columns event/server/time/cause.
    fn fixture() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/chaos_events.jsonl")
    }

    #[test]
    fn word_operators_match_symbolic_ones() {
        let f = fixture();
        for (word, sym) in [
            ("eq", "=="),
            ("ne", "!="),
            ("ge", ">="),
            ("le", "<="),
            ("gt", ">"),
            ("lt", "<"),
        ] {
            let a = run_query(&format!("load {} | filter time {word} 500 | agg count", f.display()))
                .unwrap();
            let b = run_query(&format!("load {} | filter time {sym} 500 | agg count", f.display()))
                .unwrap();
            assert_eq!(a, b, "{word} vs {sym}");
        }
    }

    #[test]
    fn sort_orders_rows_numerically() {
        let f = fixture();
        let out = run_query(&format!(
            "load {} | sel server,time | sort time desc | head 2",
            f.display()
        ))
        .unwrap();
        let times: Vec<f64> = out
            .lines()
            .skip(2) // header + rule
            .take(2)
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(times[0] >= times[1], "{out}");
        let asc = run_query(&format!(
            "load {} | sel time | sort time | head 1",
            f.display()
        ))
        .unwrap();
        let full = run_query(&format!("load {} | sel time | sort time", f.display())).unwrap();
        // Ascending head-1 is the global minimum.
        let min_line = asc.lines().nth(2).unwrap().trim().to_owned();
        let first_full = full.lines().nth(2).unwrap().trim().to_owned();
        assert_eq!(min_line, first_full);
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let f = fixture();
        // Recompute the expected percentiles directly from the file.
        let text = std::fs::read_to_string(&f).unwrap();
        let mut times: Vec<f64> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let tail = l.split("\"time\":").nth(1).unwrap();
                tail.trim_start()
                    .trim_end_matches(['}', ','])
                    .split([',', '}'])
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        let rank = |q: f64| times[((q / 100.0 * times.len() as f64).ceil() as usize - 1).min(times.len() - 1)];
        let out = run_query(&format!("load {} | agg p50,p95,p99 time", f.display())).unwrap();
        let header = out.lines().next().unwrap();
        assert!(header.contains("p50:time") && header.contains("p99:time"), "{out}");
        let row = out.lines().nth(2).unwrap();
        let cells: Vec<f64> = row
            .split_whitespace()
            .map(|c| c.parse().unwrap())
            .collect();
        assert_eq!(cells, vec![rank(50.0), rank(95.0), rank(99.0)], "{out}");
    }

    #[test]
    fn median_is_p50_and_columnless_specs_take_filter_column() {
        let f = fixture();
        let a = run_query(&format!("load {} | agg median:time", f.display())).unwrap();
        let b = run_query(&format!("load {} | agg p50:time", f.display())).unwrap();
        assert_eq!(a, b);
        // The ISSUE's canonical example shape: a column-less aggregate
        // inherits the last filter's column.
        let c = run_query(&format!(
            "load {} | filter time gt 100 | agg mean by:server",
            f.display()
        ))
        .unwrap();
        assert!(c.lines().next().unwrap().contains("mean:time"), "{c}");
        let d = run_query(&format!(
            "load {} | filter time gt 100 | agg mean:time by:server",
            f.display()
        ))
        .unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn sort_orders_aggregate_groups() {
        let f = fixture();
        let out = run_query(&format!(
            "load {} | agg count,max:time by:server | sort count desc",
            f.display()
        ))
        .unwrap();
        let counts: Vec<f64> = out
            .lines()
            .skip(2)
            .take_while(|l| !l.starts_with("--"))
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(counts.len() > 1, "{out}");
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{out}");
        let e = run_query(&format!(
            "load {} | agg count by:server | sort nope",
            f.display()
        ))
        .unwrap_err();
        assert!(e.0.contains("unknown sort column"), "{e}");
    }

    #[test]
    fn unknown_selected_column_errors() {
        let path = sample_esvt("badcol.esvt", 8);
        let e = run_query(&format!("load {} | sel nope", path.display())).unwrap_err();
        assert!(e.0.contains("unknown column"), "{e}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let e = run_query("load /nonexistent/trace.esvt | agg count").unwrap_err();
        assert!(e.0.contains("cannot read"), "{e}");
    }
}
