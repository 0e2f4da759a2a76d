//! Hierarchical run statistics: a [`StatsNode`] tree behind the
//! [`ReportStats`] trait.
//!
//! Every component of the simulator (caches, memory controller, DBI,
//! prefetcher, energy meters, whole runs) reports its counters through
//! this one structure instead of ad-hoc structs + `println!`. A node
//! holds ordered named values (counters, gauges, texts) plus ordered
//! child nodes, so a whole-machine report is one tree that can be
//!
//! * rendered for humans ([`StatsNode::render`]),
//! * serialized to JSON ([`StatsNode::to_json`]) for machine-readable
//!   experiment output, and
//! * parsed back ([`StatsNode::from_json`]) and compared bit-for-bit
//!   (`PartialEq`), which is how the sweep runner proves parallel runs
//!   are identical to serial ones.
//!
//! The JSON codec is hand-rolled (the build is fully self-contained —
//! no serde available offline); the schema is documented in
//! `docs/STATS.md`. Ordering is part of a node's identity: two trees
//! are equal only if values and children appear in the same order,
//! which deterministic simulation guarantees.

use std::fmt::Write as _;

/// One named measurement inside a [`StatsNode`].
#[derive(Debug, Clone, PartialEq)]
pub enum StatValue {
    /// A monotonic integer count (events, cycles, bytes).
    Counter(u64),
    /// A derived floating-point measure (rates, joules, seconds).
    Gauge(f64),
    /// A configuration label or annotation.
    Text(String),
}

/// A named node of the statistics tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsNode {
    /// Node name (path segment).
    name: String,
    /// Ordered `(key, value)` pairs.
    values: Vec<(String, StatValue)>,
    /// Ordered child nodes.
    children: Vec<StatsNode>,
}

impl StatsNode {
    /// An empty node named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        StatsNode {
            name: name.into(),
            values: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered values of this node.
    pub fn values(&self) -> &[(String, StatValue)] {
        &self.values
    }

    /// Ordered children of this node.
    pub fn children(&self) -> &[StatsNode] {
        &self.children
    }

    /// Adds (or overwrites) an integer counter. Builder-style.
    pub fn counter(mut self, key: impl Into<String>, v: u64) -> Self {
        self.put(key.into(), StatValue::Counter(v));
        self
    }

    /// Adds (or overwrites) a floating-point gauge. Builder-style.
    pub fn gauge(mut self, key: impl Into<String>, v: f64) -> Self {
        self.put(key.into(), StatValue::Gauge(v));
        self
    }

    /// Adds (or overwrites) a text annotation. Builder-style.
    pub fn text(mut self, key: impl Into<String>, v: impl Into<String>) -> Self {
        self.put(key.into(), StatValue::Text(v.into()));
        self
    }

    /// Appends a child subtree. Builder-style.
    pub fn child(mut self, node: StatsNode) -> Self {
        self.children.push(node);
        self
    }

    /// Appends every node in `nodes` as a child. Builder-style.
    pub fn children_from(mut self, nodes: impl IntoIterator<Item = StatsNode>) -> Self {
        self.children.extend(nodes);
        self
    }

    fn put(&mut self, key: String, v: StatValue) {
        if let Some(slot) = self.values.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = v;
        } else {
            self.values.push((key, v));
        }
    }

    /// Looks up a value by slash-separated path relative to this node,
    /// e.g. `get("dram/reads")` on a run node.
    pub fn get(&self, path: &str) -> Option<&StatValue> {
        let (node, key) = match path.rsplit_once('/') {
            Some((dir, key)) => (self.descend(dir)?, key),
            None => (self, path),
        };
        node.values.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The child subtree at slash-separated `path` (`""` is this node).
    pub fn descend(&self, path: &str) -> Option<&StatsNode> {
        let mut node = self;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            node = node.children.iter().find(|c| c.name == seg)?;
        }
        Some(node)
    }

    /// Counter value at `path`, if present and a counter.
    pub fn counter_at(&self, path: &str) -> Option<u64> {
        match self.get(path)? {
            StatValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value at `path`, if present and a gauge.
    pub fn gauge_at(&self, path: &str) -> Option<f64> {
        match self.get(path)? {
            StatValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    // ---------------------------------------------------------------
    // Human-readable rendering
    // ---------------------------------------------------------------

    /// An indented human-readable rendering of the tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let _ = writeln!(out, "{pad}{}:", self.name);
        let vpad = "  ".repeat(depth + 1);
        for (k, v) in &self.values {
            match v {
                StatValue::Counter(c) => {
                    let _ = writeln!(out, "{vpad}{k:<24} {c}");
                }
                StatValue::Gauge(g) => {
                    let _ = writeln!(out, "{vpad}{k:<24} {g:.6}");
                }
                StatValue::Text(t) => {
                    let _ = writeln!(out, "{vpad}{k:<24} {t}");
                }
            }
        }
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }

    // ---------------------------------------------------------------
    // JSON
    // ---------------------------------------------------------------

    /// Compact single-line JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s, None, 0);
        s
    }

    /// Pretty-printed JSON (two-space indent).
    pub fn to_json_pretty(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s, Some(2), 0);
        s
    }

    fn write_json(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad2, sp) = match indent {
            Some(w) => (
                "\n".to_string(),
                " ".repeat(w * (depth + 1)),
                " ".repeat(w * depth),
                " ",
            ),
            None => (String::new(), String::new(), String::new(), ""),
        };
        let _ = write!(out, "{{{nl}{pad}\"name\":{sp}");
        write_json_string(out, &self.name);
        let _ = write!(out, ",{nl}{pad}\"values\":{sp}{{");
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{nl}{pad}{}", if indent.is_some() { "  " } else { "" });
            write_json_string(out, k);
            let _ = write!(out, ":{sp}");
            match v {
                StatValue::Counter(c) => {
                    let _ = write!(out, "{c}");
                }
                StatValue::Gauge(g) => write_json_gauge(out, *g),
                StatValue::Text(t) => write_json_string(out, t),
            }
        }
        if !self.values.is_empty() {
            let _ = write!(out, "{nl}{pad}");
        }
        let _ = write!(out, "}},{nl}{pad}\"children\":{sp}[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{nl}{pad}{}", if indent.is_some() { "  " } else { "" });
            c.write_json(out, indent, depth + 2);
        }
        if !self.children.is_empty() {
            let _ = write!(out, "{nl}{pad}");
        }
        let _ = write!(out, "]{nl}{pad2}}}");
    }

    /// Parses a tree serialized by [`StatsNode::to_json`] (or the pretty
    /// variant). Numbers with a fractional part, exponent, or the
    /// special texts `"NaN"`/`"inf"`/`"-inf"` parse as gauges; plain
    /// non-negative integers parse as counters.
    pub fn from_json(text: &str) -> Result<StatsNode, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let node = p.parse_node()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the tree"));
        }
        Ok(node)
    }
}

/// Types that expose their measurements as a [`StatsNode`] subtree.
///
/// The node name is chosen by the *caller* (`stats_node("l1")`), so one
/// struct can appear at several places in a tree (per-core caches,
/// per-channel controllers).
pub trait ReportStats {
    /// This component's statistics as a named subtree.
    fn stats_node(&self, name: &str) -> StatsNode;
}

fn write_json_string(out: &mut String, s: &str) {
    // One escaper for every JSON the workspace emits: the generic
    // value writer in `json` owns the escape table.
    crate::json::write_escaped(out, s);
}

/// Gauges always carry a `.`/`e` (or serialize as the special strings
/// below) so the parser can tell them apart from counters; Rust's `f64`
/// formatting is shortest-round-trip, so value identity is preserved.
fn write_json_gauge(out: &mut String, g: f64) {
    if g.is_nan() {
        out.push_str("\"NaN\"");
    } else if g == f64::INFINITY {
        out.push_str("\"inf\"");
    } else if g == f64::NEG_INFINITY {
        out.push_str("\"-inf\"");
    } else {
        let s = format!("{g}");
        out.push_str(&s);
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    }
}

/// A JSON parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    let chunk =
                        std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<StatValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                let s = self.parse_string()?;
                Ok(match s.as_str() {
                    "NaN" => StatValue::Gauge(f64::NAN),
                    "inf" => StatValue::Gauge(f64::INFINITY),
                    "-inf" => StatValue::Gauge(f64::NEG_INFINITY),
                    _ => StatValue::Text(s),
                })
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                let mut fractional = false;
                while let Some(b) = self.peek() {
                    match b {
                        b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                        b'.' | b'e' | b'E' => {
                            fractional = true;
                            self.pos += 1;
                        }
                        _ => break,
                    }
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid number"))?;
                if fractional || text.starts_with('-') {
                    text.parse::<f64>()
                        .map(StatValue::Gauge)
                        .map_err(|_| self.err("invalid number"))
                } else {
                    text.parse::<u64>()
                        .map(StatValue::Counter)
                        .map_err(|_| self.err("invalid counter"))
                }
            }
            _ => Err(self.err("expected a string or number value")),
        }
    }

    fn parse_node(&mut self) -> Result<StatsNode, JsonError> {
        self.skip_ws();
        self.expect_byte(b'{')?;
        let mut node = StatsNode::default();
        let mut first = true;
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(node);
            }
            if !first {
                self.expect_byte(b',')?;
                self.skip_ws();
            }
            first = false;
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            match key.as_str() {
                "name" => node.name = self.parse_string()?,
                "values" => {
                    self.expect_byte(b'{')?;
                    let mut vfirst = true;
                    loop {
                        self.skip_ws();
                        if self.peek() == Some(b'}') {
                            self.pos += 1;
                            break;
                        }
                        if !vfirst {
                            self.expect_byte(b',')?;
                            self.skip_ws();
                        }
                        vfirst = false;
                        let k = self.parse_string()?;
                        self.skip_ws();
                        self.expect_byte(b':')?;
                        let v = self.parse_value()?;
                        node.values.push((k, v));
                    }
                }
                "children" => {
                    self.expect_byte(b'[')?;
                    let mut cfirst = true;
                    loop {
                        self.skip_ws();
                        if self.peek() == Some(b']') {
                            self.pos += 1;
                            break;
                        }
                        if !cfirst {
                            self.expect_byte(b',')?;
                        }
                        cfirst = false;
                        node.children.push(self.parse_node()?);
                    }
                }
                _ => return Err(self.err("unknown node field")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatsNode {
        StatsNode::new("run")
            .counter("cycles", 123_456)
            .gauge("seconds", 0.25)
            .text("label", "GS-DRAM \"gather\"\npath")
            .child(
                StatsNode::new("dram")
                    .counter("reads", 8)
                    .counter("writes", 0)
                    .gauge("row_hit_rate", 0.875),
            )
            .child(StatsNode::new("l1").counter("hits", 7).counter("misses", 1))
    }

    #[test]
    fn builder_and_lookup() {
        let n = sample();
        assert_eq!(n.counter_at("cycles"), Some(123_456));
        assert_eq!(n.counter_at("dram/reads"), Some(8));
        assert_eq!(n.gauge_at("dram/row_hit_rate"), Some(0.875));
        assert_eq!(n.counter_at("l1/hits"), Some(7));
        assert!(n.get("nope/xyz").is_none());
        assert_eq!(n.descend("dram").unwrap().name(), "dram");
    }

    #[test]
    fn overwrite_keeps_one_entry() {
        let n = StatsNode::new("x").counter("a", 1).counter("a", 2);
        assert_eq!(n.values().len(), 1);
        assert_eq!(n.counter_at("a"), Some(2));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let n = sample();
        for text in [n.to_json(), n.to_json_pretty()] {
            let back = StatsNode::from_json(&text).expect("parses");
            assert_eq!(back, n);
        }
    }

    #[test]
    fn json_round_trips_awkward_gauges() {
        let n = StatsNode::new("g")
            .gauge("whole", 2.0)
            .gauge("tiny", 1.25e-17)
            .gauge("neg", -0.5)
            .gauge("nan", f64::NAN)
            .gauge("inf", f64::INFINITY);
        let back = StatsNode::from_json(&n.to_json()).expect("parses");
        assert_eq!(back.gauge_at("whole"), Some(2.0));
        assert_eq!(back.gauge_at("tiny"), Some(1.25e-17));
        assert_eq!(back.gauge_at("neg"), Some(-0.5));
        assert!(back.gauge_at("nan").unwrap().is_nan());
        assert_eq!(back.gauge_at("inf"), Some(f64::INFINITY));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(StatsNode::from_json("").is_err());
        assert!(StatsNode::from_json("{\"name\":\"x\"} trailing").is_err());
        assert!(StatsNode::from_json("{\"bogus\":1}").is_err());
    }

    #[test]
    fn render_mentions_all_values() {
        let text = sample().render();
        for needle in ["run:", "cycles", "dram:", "row_hit_rate", "l1:", "hits"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
