//! The rule engine: named, individually waivable determinism and
//! invariant checks over the lexed workspace.
//!
//! Each rule has an id (`D1`..`D7`, `W0`, `W1`), a one-line summary,
//! and a rationale tied to the repo's determinism contract
//! (`docs/ARCHITECTURE.md` §ordering invariants, `docs/LINTS.md`).
//! Violations carry the file, line, column, and a message naming the
//! offending construct; a matching inline waiver suppresses the
//! violation and is counted instead.

use std::collections::{BTreeMap, BTreeSet};

use gsdram_core::json::Json;

use crate::items::{ItemKind, Receiver};
use crate::lexer::TokKind;
use crate::scan::{FileKind, SourceFile};
use crate::symbols::ItemGraph;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`D1`..`D7`, `W0`, `W1`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    pub msg: String,
}

/// Outcome of a workspace check.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, sorted by `(rel, line, col, rule)`.
    pub violations: Vec<Violation>,
    /// Violations suppressed by a used waiver.
    pub waived: usize,
    /// Source files scanned.
    pub files: usize,
}

/// Static description of one rule, for `--list-rules` and the docs.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// Every rule the engine knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        summary: "no HashMap/HashSet in simulation-crate library code (iteration order \
                  is seeded per-process; use BTreeMap/BTreeSet or sorted keys)",
    },
    RuleInfo {
        id: "D2",
        summary: "no ambient-nondeterminism APIs (std::time, Instant, SystemTime, rand, \
                  thread_rng, RandomState) outside tests",
    },
    RuleInfo {
        id: "D3",
        summary: "no bare `as` casts between integer widths in address/cycle code \
                  (dram/mapping.rs, system/bridge.rs, cache/*); use gsdram_core::cast \
                  or From/TryFrom",
    },
    RuleInfo {
        id: "D4",
        summary: "no unwrap()/expect() in non-test library code without an inline waiver \
                  stating the invariant",
    },
    RuleInfo {
        id: "D5",
        summary: "no float types or literals in simulation-crate library code outside \
                  energy/report/stats leaves (floats never feed timing decisions)",
    },
    RuleInfo {
        id: "D6",
        summary: "every SimEvent variant must be handled in telemetry/collector.rs and \
                  documented in the docs/ARCHITECTURE.md event table",
    },
    RuleInfo {
        id: "D7",
        summary: "no direct clock mutation (`now += 1`-style unit ticking) in \
                  simulation-crate library code outside core/src/time.rs; advance \
                  clocks by leaping to a component's reported next-event bound",
    },
    RuleInfo {
        id: "D8",
        summary: "no shared mutable state or ad-hoc synchronization (`static mut`, \
                  std::sync, atomics, Ordering, thread::spawn, rayon) in \
                  simulation-crate or bench library code outside the waived sweep \
                  runner; parallel ≡ serial stays provable only if sim code is \
                  single-threaded by construction",
    },
    RuleInfo {
        id: "D9",
        summary: "every field of a *Stats/*Breakdown struct with a \
                  `merge(&mut self, &Self)` must be read from the other side inside \
                  it; a silently dropped field corrupts every parallel sweep",
    },
    RuleInfo {
        id: "D10",
        summary: "the per-rule waiver inventory must match the committed \
                  lint_waivers.json baseline; new waivers land as a reviewed diff \
                  and stale entries fail CI",
    },
    RuleInfo {
        id: "W0",
        summary: "every waiver must parse and carry a non-empty reason",
    },
    RuleInfo {
        id: "W1",
        summary: "every waiver must suppress at least one violation (stale waivers rot)",
    },
];

/// Integer type names rule D3 refuses `as` casts into.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Identifiers rule D2 treats as ambient-nondeterminism entry points.
const D2_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "thread_rng",
    "ThreadRng",
    "getrandom",
    "RandomState",
];

/// Identifiers rule D7 treats as clock fields when unit-ticked.
const D7_CLOCKS: &[&str] = &["now", "time", "clock", "cycle", "cycles"];

/// File basenames where rule D5 permits float arithmetic: the energy
/// model, report assembly, and statistics leaves.
const D5_FLOAT_LEAVES: &[&str] = &[
    "energy.rs",
    "report.rs",
    "stats.rs",
    "hist.rs",
    "cost.rs",
    "chrome.rs",
    "json.rs",
];

/// Files rule D3 covers: the address-translation hot spots where a
/// truncating cast silently corrupts an address or cycle count.
fn d3_covers(rel: &str) -> bool {
    rel == "crates/dram/src/mapping.rs"
        || rel == "crates/system/src/bridge.rs"
        || rel.starts_with("crates/cache/src/")
}

/// Synchronization-primitive type names rule D8 bans: everything in
/// `std::sync` a sim crate could reach for, atomics included.
const D8_SYNC_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "Once",
    "OnceLock",
    "LazyLock",
    "Arc",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "mpsc",
];

/// Memory-ordering variants: `Ordering::<one of these>` marks the
/// atomic `Ordering`, never `std::cmp::Ordering` (whose variants are
/// Less/Equal/Greater).
const D8_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Files rule D8 covers: simulation-crate library code (telemetry
/// included — collectors run inside the sim loop) plus the bench
/// crate's library. The one sanctioned parallel site — the sweep
/// runner in `bench/src/sweep.rs` — carries in-place waivers with its
/// proof obligation.
fn d8_covers(f: &SourceFile) -> bool {
    f.class.is_sim_lib(true)
        || (f.class.kind == FileKind::Lib && f.class.crate_name.as_deref() == Some("bench"))
}

/// Checks every per-file rule plus the cross-file rules (D6, D9, D10).
///
/// `arch_md` is `docs/ARCHITECTURE.md`'s `(rel, contents)` when
/// present — D6's event-table leg is skipped without it (fixture
/// trees may omit it deliberately). `waiver_baseline` is the committed
/// `lint_waivers.json` when present — D10 is skipped without it, so a
/// tree that has never generated a baseline is not failed for it.
pub fn check_workspace(
    files: &[SourceFile],
    arch_md: Option<(&str, &str)>,
    waiver_baseline: Option<&str>,
) -> Report {
    let mut report = Report {
        files: files.len(),
        ..Report::default()
    };
    for f in files {
        check_hash_containers(f, &mut report);
        check_ambient_nondeterminism(f, &mut report);
        check_bare_casts(f, &mut report);
        check_panic_paths(f, &mut report);
        check_floats(f, &mut report);
        check_clock_ticking(f, &mut report);
        check_concurrency(f, &mut report);
        check_waiver_syntax(f, &mut report);
    }
    check_sim_event_coverage(files, arch_md, &mut report);
    check_merge_totality(files, &mut report);
    // D10 runs after every waiver-consulting rule so the inventory it
    // audits is the one this very report used.
    check_waiver_debt(files, waiver_baseline, &mut report);
    for f in files {
        check_unused_waivers(f, &mut report);
    }
    report.violations.sort_by(|a, b| {
        (a.rel.as_str(), a.line, a.col, a.rule).cmp(&(b.rel.as_str(), b.line, b.col, b.rule))
    });
    report
}

/// Records a violation at a token position unless a waiver covers it.
fn push(report: &mut Report, f: &SourceFile, rule: &'static str, line: u32, col: u32, msg: String) {
    if f.waived(rule, line) {
        report.waived += 1;
    } else {
        report.violations.push(Violation {
            rule,
            rel: f.rel.clone(),
            line,
            col,
            msg,
        });
    }
}

/// D1: hash containers in simulation-crate library code.
fn check_hash_containers(f: &SourceFile, report: &mut Report) {
    if !f.class.is_sim_lib(true) {
        return;
    }
    for &i in &f.code_tokens() {
        let t = &f.tokens[i];
        if t.kind != TokKind::Ident || f.in_test_region(t.start) {
            continue;
        }
        let name = f.text(t);
        if name == "HashMap" || name == "HashSet" {
            push(
                report,
                f,
                "D1",
                t.line,
                t.col,
                format!("`{name}` in simulation code: iteration order is per-process; use BTree{} or sorted-key iteration", if name == "HashMap" { "Map" } else { "Set" }),
            );
        }
    }
}

/// D2: wall-clock and entropy APIs outside tests.
fn check_ambient_nondeterminism(f: &SourceFile, report: &mut Report) {
    if f.class.kind == FileKind::Test {
        return;
    }
    let code = f.code_tokens();
    for (pos, &i) in code.iter().enumerate() {
        let t = &f.tokens[i];
        if t.kind != TokKind::Ident || f.in_test_region(t.start) {
            continue;
        }
        let name = f.text(t);
        if D2_IDENTS.contains(&name) {
            push(
                report,
                f,
                "D2",
                t.line,
                t.col,
                format!("`{name}` is an ambient-nondeterminism source; simulations must be a pure function of their spec"),
            );
            continue;
        }
        // `std::time` and `rand::` path heads.
        let next_is = |n: usize, s: &str| {
            code.get(pos + n)
                .is_some_and(|&j| f.text(&f.tokens[j]) == s)
        };
        if name == "std" && next_is(1, ":") && next_is(2, ":") && next_is(3, "time") {
            push(
                report,
                f,
                "D2",
                t.line,
                t.col,
                "`std::time` is an ambient-nondeterminism source; model time is the only clock"
                    .to_string(),
            );
        }
        if name == "rand" && next_is(1, ":") && next_is(2, ":") {
            push(
                report,
                f,
                "D2",
                t.line,
                t.col,
                "`rand::` paths are banned; use gsdram_core::rng (seeded SplitMix64)".to_string(),
            );
        }
    }
}

/// D3: bare `as` casts between integer widths in address/cycle code.
fn check_bare_casts(f: &SourceFile, report: &mut Report) {
    if !d3_covers(&f.rel) || f.class.kind == FileKind::Test {
        return;
    }
    let code = f.code_tokens();
    for (pos, &i) in code.iter().enumerate() {
        let t = &f.tokens[i];
        if t.kind != TokKind::Ident || f.text(t) != "as" || f.in_test_region(t.start) {
            continue;
        }
        let Some(&j) = code.get(pos + 1) else {
            continue;
        };
        let target = f.text(&f.tokens[j]);
        if INT_TYPES.contains(&target) {
            push(
                report,
                f,
                "D3",
                t.line,
                t.col,
                format!("bare `as {target}` on an address/cycle value can silently truncate; use gsdram_core::cast or From/TryFrom"),
            );
        }
    }
}

/// D4: `.unwrap()` / `.expect(` in non-test library code.
fn check_panic_paths(f: &SourceFile, report: &mut Report) {
    if f.class.kind != FileKind::Lib {
        return;
    }
    let code = f.code_tokens();
    for (pos, &i) in code.iter().enumerate() {
        let t = &f.tokens[i];
        if t.kind != TokKind::Ident || f.in_test_region(t.start) {
            continue;
        }
        let name = f.text(t);
        if name != "unwrap" && name != "expect" {
            continue;
        }
        let prev_is_dot = pos
            .checked_sub(1)
            .and_then(|p| code.get(p))
            .is_some_and(|&j| f.text(&f.tokens[j]) == ".");
        let next_is_paren = code
            .get(pos + 1)
            .is_some_and(|&j| f.text(&f.tokens[j]) == "(");
        if prev_is_dot && next_is_paren {
            push(
                report,
                f,
                "D4",
                t.line,
                t.col,
                format!("`.{name}()` in library code: return an error, or waive with the invariant that makes the panic unreachable"),
            );
        }
    }
}

/// Whether a `Number` token is a float literal (exponents are
/// recognised outside hex/binary/octal literals; `usize`-style
/// suffixes are not exponents).
fn is_float_literal(s: &str) -> bool {
    if s.starts_with("0x") || s.starts_with("0b") || s.starts_with("0o") {
        return false;
    }
    if s.contains('.') || s.ends_with("f32") || s.ends_with("f64") {
        return true;
    }
    let b = s.as_bytes();
    (1..b.len().saturating_sub(1)).any(|i| {
        (b[i] == b'e' || b[i] == b'E')
            && (b[i - 1].is_ascii_digit() || b[i - 1] == b'_')
            && (b[i + 1].is_ascii_digit() || b[i + 1] == b'+' || b[i + 1] == b'-')
    })
}

/// D5: float types/literals outside the designated leaves.
fn check_floats(f: &SourceFile, report: &mut Report) {
    if !f.class.is_sim_lib(true) {
        return;
    }
    let base = f.rel.rsplit('/').next().unwrap_or(&f.rel);
    if D5_FLOAT_LEAVES.contains(&base) {
        return;
    }
    for &i in &f.code_tokens() {
        let t = &f.tokens[i];
        if f.in_test_region(t.start) {
            continue;
        }
        let flagged = match t.kind {
            TokKind::Ident => matches!(f.text(t), "f32" | "f64"),
            TokKind::Number => is_float_literal(f.text(t)),
            _ => false,
        };
        if flagged {
            push(
                report,
                f,
                "D5",
                t.line,
                t.col,
                format!(
                    "float `{}` outside energy/report/stats leaves; keep simulation state integral",
                    f.text(t)
                ),
            );
        }
    }
}

/// D7: direct clock mutation (`<clock> += <literal>` unit ticking) in
/// simulation-crate library code outside the time-engine module. A
/// clock stepped by a constant bypasses the next-event fold of
/// `gsdram_core::time`, turning leaps back into crawls; clocks must
/// advance via `max(now, to)` toward a component's reported bound.
fn check_clock_ticking(f: &SourceFile, report: &mut Report) {
    if !f.class.is_sim_lib(true) || f.rel == "crates/core/src/time.rs" {
        return;
    }
    let code = f.code_tokens();
    for (pos, &i) in code.iter().enumerate() {
        let t = &f.tokens[i];
        if t.kind != TokKind::Ident || f.in_test_region(t.start) {
            continue;
        }
        let name = f.text(t);
        if !D7_CLOCKS.contains(&name) {
            continue;
        }
        let tok_is = |n: usize, s: &str| {
            code.get(pos + n)
                .is_some_and(|&j| f.text(&f.tokens[j]) == s)
        };
        let rhs_is_literal = code
            .get(pos + 3)
            .is_some_and(|&j| f.tokens[j].kind == TokKind::Number);
        if tok_is(1, "+") && tok_is(2, "=") && rhs_is_literal {
            push(
                report,
                f,
                "D7",
                t.line,
                t.col,
                format!("`{name} += <literal>` ticks a clock by a constant; leap to the component's next-event bound (gsdram_core::time) instead"),
            );
        }
    }
}

/// D8: shared mutable state and ad-hoc synchronization in sim/bench
/// library code. Sweeps run independent simulations on worker
/// threads; "parallel ≡ serial" stays provable only if each
/// simulation is statically barred from `static mut`, `std::sync`
/// primitives, atomics with their memory orderings, and thread
/// spawning. The one sanctioned parallel site — the sweep runner in
/// `bench/src/sweep.rs` — carries in-place waivers tied to its
/// parallel ≡ serial proof.
fn check_concurrency(f: &SourceFile, report: &mut Report) {
    if !d8_covers(f) {
        return;
    }
    let code = f.code_tokens();
    for (pos, &i) in code.iter().enumerate() {
        let t = &f.tokens[i];
        if t.kind != TokKind::Ident || f.in_test_region(t.start) {
            continue;
        }
        let name = f.text(t);
        let tok_is = |n: usize, s: &str| {
            code.get(pos + n)
                .is_some_and(|&j| f.text(&f.tokens[j]) == s)
        };
        let tok_in = |n: usize, set: &[&str]| {
            code.get(pos + n)
                .is_some_and(|&j| set.contains(&f.text(&f.tokens[j])))
        };
        let prev_is = |s: &str| {
            pos.checked_sub(1)
                .and_then(|p| code.get(p))
                .is_some_and(|&j| f.text(&f.tokens[j]) == s)
        };
        let hit = if name == "static" && tok_is(1, "mut") {
            Some("`static mut` is shared mutable state; thread the value through the sim spec instead".to_string())
        } else if D8_SYNC_TYPES.contains(&name) {
            Some(format!(
                "`{name}` is a synchronization primitive; sim code must be single-threaded so parallel \u{2261} serial stays provable"
            ))
        } else if (name == "std" || name == "core")
            && tok_is(1, ":")
            && tok_is(2, ":")
            && (tok_is(3, "sync") || tok_is(3, "thread"))
        {
            Some(format!(
                "`{name}::{}` is banned in sim code; the sweep runner is the one sanctioned parallel site",
                if tok_is(3, "sync") { "sync" } else { "thread" }
            ))
        } else if name == "rayon" || name == "crossbeam" {
            Some(format!(
                "`{name}` introduces work-stealing parallelism; parallelism must go through the sweep runner"
            ))
        } else if name == "thread" && tok_is(1, ":") && tok_is(2, ":") && tok_is(3, "spawn") {
            Some("`thread::spawn` in sim code; the sweep runner owns all threads".to_string())
        } else if name == "spawn" && prev_is(".") && tok_is(1, "(") {
            Some("`.spawn(` starts a thread; the sweep runner owns all threads".to_string())
        } else if name == "Ordering" && tok_is(1, ":") && tok_is(2, ":") && tok_in(3, D8_ORDERINGS)
        {
            Some(
                "atomic memory orderings have no place in sim code; state is single-threaded by construction"
                    .to_string(),
            )
        } else {
            None
        };
        if let Some(msg) = hit {
            push(report, f, "D8", t.line, t.col, msg);
        }
    }
}

/// D9: merge totality. For every `*Stats`/`*Breakdown` struct with
/// named fields and a same-crate `merge(&mut self, &Self)`, each field
/// must be read off the merge's other side — `other.field` for
/// whatever the parameter is named. A merge that silently drops a
/// field makes parallel sweeps under-count without any test noticing
/// until someone hand-writes a per-field assertion; this closes that
/// hole structurally. Violations anchor at the `merge` fn, where the
/// fix goes.
fn check_merge_totality(files: &[SourceFile], report: &mut Report) {
    let graph = ItemGraph::build(files);
    for (name, defs) in &graph.type_defs {
        if !(name.ends_with("Stats") || name.ends_with("Breakdown")) {
            continue;
        }
        for def_id in defs {
            let def = graph.item(def_id);
            if def.kind != ItemKind::Struct
                || def.fields.is_empty()
                || files[def_id.file].class.kind == FileKind::Test
                || files[def_id.file].in_test_region(def.span.0)
            {
                continue;
            }
            for imp_id in graph.impls_of(name, files, def_id.file) {
                let imp_file = &files[imp_id.file];
                if imp_file.class.kind == FileKind::Test {
                    continue;
                }
                let imp = graph.item(imp_id);
                for m in &imp.children {
                    if m.kind != ItemKind::Fn
                        || m.name != "merge"
                        || m.receiver != Receiver::RefMut
                        || m.params.len() != 1
                        || imp_file.in_test_region(m.span.0)
                    {
                        continue;
                    }
                    let Some((bs, be)) = m.body else {
                        continue;
                    };
                    let other = &m.params[0];
                    let reads = field_reads(imp_file, bs, be, other);
                    for fld in &def.fields {
                        if !reads.contains(&fld.name) {
                            push(
                                report,
                                imp_file,
                                "D9",
                                m.line,
                                1,
                                format!(
                                    "`{name}::merge` never reads `{other}.{}`; a merge that drops a field corrupts every parallel sweep",
                                    fld.name
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Field names read as `<param> . <field>` inside a body byte span.
fn field_reads(f: &SourceFile, start: usize, end: usize, param: &str) -> BTreeSet<String> {
    let code: Vec<usize> = f
        .code_tokens()
        .into_iter()
        .filter(|&i| f.tokens[i].start >= start && f.tokens[i].end <= end)
        .collect();
    let mut reads = BTreeSet::new();
    for (pos, &i) in code.iter().enumerate() {
        if f.text(&f.tokens[i]) != param || f.tokens[i].kind != TokKind::Ident {
            continue;
        }
        let dot = code.get(pos + 1);
        let fld = code.get(pos + 2);
        if let (Some(&d), Some(&n)) = (dot, fld) {
            if f.text(&f.tokens[d]) == "." && f.tokens[n].kind == TokKind::Ident {
                reads.insert(f.text(&f.tokens[n]).to_string());
            }
        }
    }
    reads
}

/// The per-rule waiver inventory: rule id → file → count of waiver
/// comments naming that rule. This is what `lint_waivers.json`
/// commits and what D10 audits.
pub fn waiver_inventory(files: &[SourceFile]) -> BTreeMap<String, BTreeMap<String, usize>> {
    let mut inv: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for f in files {
        for w in &f.waivers {
            for r in &w.rules {
                *inv.entry(r.clone())
                    .or_default()
                    .entry(f.rel.clone())
                    .or_insert(0) += 1;
            }
        }
    }
    inv
}

/// The file D10 anchors its violations at.
pub const WAIVER_BASELINE_REL: &str = "lint_waivers.json";

/// D10: waiver-debt accounting. Compares the live waiver inventory
/// against the committed baseline; new waivers must land as a reviewed
/// baseline diff and stale entries must be cleaned up. D10 violations
/// are themselves unwaivable — a waiver for the waiver-audit would be
/// circular.
fn check_waiver_debt(files: &[SourceFile], baseline: Option<&str>, report: &mut Report) {
    let Some(text) = baseline else {
        return;
    };
    const REGEN: &str =
        "regenerate with `gsdram-lint --workspace --write-waivers lint_waivers.json` and justify the diff in review";
    let mut fail = |msg: String| {
        report.violations.push(Violation {
            rule: "D10",
            rel: WAIVER_BASELINE_REL.to_string(),
            line: 1,
            col: 1,
            msg,
        });
    };
    let parsed = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            fail(format!("waiver baseline does not parse: {e}; {REGEN}"));
            return;
        }
    };
    let mut base: BTreeMap<(String, String), usize> = BTreeMap::new();
    if let Some(rules) = parsed.get("rules").and_then(Json::as_object) {
        for (rule, by_file) in rules {
            for (rel, count) in by_file.as_object().unwrap_or(&[]) {
                let n = count.as_u64().unwrap_or(0) as usize;
                base.insert((rule.clone(), rel.clone()), n);
            }
        }
    } else {
        fail(format!("waiver baseline has no `rules` object; {REGEN}"));
        return;
    }
    let mut actual: BTreeMap<(String, String), usize> = BTreeMap::new();
    for (rule, by_file) in waiver_inventory(files) {
        for (rel, n) in by_file {
            actual.insert((rule.clone(), rel), n);
        }
    }
    for ((rule, rel), &n) in &actual {
        match base.get(&(rule.clone(), rel.clone())) {
            None => fail(format!(
                "new waiver debt: {n} waiver(s) for {rule} in {rel} not in the baseline; {REGEN}"
            )),
            Some(&m) if n > m => fail(format!(
                "waiver debt grew: {rule} in {rel} has {n} waiver(s), baseline says {m}; {REGEN}"
            )),
            Some(_) => {}
        }
    }
    for ((rule, rel), &m) in &base {
        let n = actual
            .get(&(rule.clone(), rel.clone()))
            .copied()
            .unwrap_or(0);
        if n < m {
            fail(format!(
                "stale baseline entry: {rule} in {rel} records {m} waiver(s) but {n} exist; {REGEN}"
            ));
        }
    }
}

/// W0: malformed waivers and waivers without a reason.
fn check_waiver_syntax(f: &SourceFile, report: &mut Report) {
    for &line in &f.malformed_waivers {
        report.violations.push(Violation {
            rule: "W0",
            rel: f.rel.clone(),
            line,
            col: 1,
            msg: "malformed waiver: expected `gsdram-lint: allow(<rules>) <reason>`".to_string(),
        });
    }
    for w in &f.waivers {
        if w.reason.is_empty() {
            report.violations.push(Violation {
                rule: "W0",
                rel: f.rel.clone(),
                line: w.line,
                col: 1,
                msg: format!(
                    "waiver for {} has no reason; every exception must be justified",
                    w.rules.join(",")
                ),
            });
        }
    }
}

/// W1: waivers that never suppressed anything.
fn check_unused_waivers(f: &SourceFile, report: &mut Report) {
    for w in &f.waivers {
        if !w.used.get() && !w.reason.is_empty() {
            report.violations.push(Violation {
                rule: "W1",
                rel: f.rel.clone(),
                line: w.line,
                col: 1,
                msg: format!(
                    "unused waiver for {}: the violation it excused is gone, delete it",
                    w.rules.join(",")
                ),
            });
        }
    }
}

/// Extracts the top-level variant names of `enum <name>` from a file's
/// code tokens. Returns `None` when the enum is absent.
fn enum_variants(f: &SourceFile, name: &str) -> Option<Vec<(String, u32)>> {
    let code = f.code_tokens();
    let mut at = None;
    for (pos, &i) in code.iter().enumerate() {
        if f.text(&f.tokens[i]) == "enum"
            && code
                .get(pos + 1)
                .is_some_and(|&j| f.text(&f.tokens[j]) == name)
        {
            at = Some(pos + 2);
            break;
        }
    }
    let mut pos = at?;
    // Find the opening brace.
    while pos < code.len() && f.text(&f.tokens[code[pos]]) != "{" {
        pos += 1;
    }
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut expect_variant = false;
    while pos < code.len() {
        let t = &f.tokens[code[pos]];
        match f.text(t) {
            "{" | "(" | "[" => {
                if f.text(t) == "{" && depth == 0 {
                    expect_variant = true;
                }
                depth += 1;
            }
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => expect_variant = true,
            "#" => {
                // Skip an attribute at variant position.
                if depth == 1
                    && code
                        .get(pos + 1)
                        .is_some_and(|&j| f.text(&f.tokens[j]) == "[")
                {
                    let mut d = 0i32;
                    pos += 1;
                    while pos < code.len() {
                        match f.text(&f.tokens[code[pos]]) {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        pos += 1;
                    }
                }
            }
            word => {
                if depth == 1
                    && expect_variant
                    && t.kind == TokKind::Ident
                    && word.chars().next().is_some_and(char::is_uppercase)
                {
                    variants.push((word.to_string(), t.line));
                    expect_variant = false;
                }
            }
        }
        pos += 1;
    }
    Some(variants)
}

/// D6: every `SimEvent` variant is folded by the telemetry collector
/// and documented in the architecture event table.
fn check_sim_event_coverage(
    files: &[SourceFile],
    arch_md: Option<(&str, &str)>,
    report: &mut Report,
) {
    let Some(port) = files.iter().find(|f| f.rel.ends_with("core/src/port.rs")) else {
        return;
    };
    let Some(variants) = enum_variants(port, "SimEvent") else {
        report.violations.push(Violation {
            rule: "D6",
            rel: port.rel.clone(),
            line: 1,
            col: 1,
            msg: "expected `enum SimEvent` in core/src/port.rs; if it moved, move this rule's anchor too".to_string(),
        });
        return;
    };
    let collector = files
        .iter()
        .find(|f| f.rel.ends_with("telemetry/src/collector.rs"));
    for (v, line) in &variants {
        if let Some(c) = collector {
            if !has_variant_use(c, v) {
                push(
                    report,
                    port,
                    "D6",
                    *line,
                    1,
                    format!("SimEvent::{v} has no arm in telemetry/src/collector.rs; collectors must fold every event"),
                );
            }
        }
        if let Some((arch_rel, arch)) = arch_md {
            // A row mentions the variant in code font, either bare
            // (`CacheFill`) or with its fields (`CacheFill { ... }`).
            let needle = format!("`{v}");
            let in_table = arch.lines().any(|l| {
                l.trim_start().starts_with('|')
                    && l.match_indices(&needle).any(|(at, _)| {
                        l[at + needle.len()..]
                            .chars()
                            .next()
                            .is_none_or(|c| !(c == '_' || c.is_alphanumeric()))
                    })
            });
            if !in_table {
                push(
                    report,
                    port,
                    "D6",
                    *line,
                    1,
                    format!("SimEvent::{v} has no row in the {arch_rel} event table"),
                );
            }
        }
    }
}

/// Whether `f` contains the code-token sequence `SimEvent :: <variant>`.
fn has_variant_use(f: &SourceFile, variant: &str) -> bool {
    let code = f.code_tokens();
    code.iter().enumerate().any(|(pos, &i)| {
        f.text(&f.tokens[i]) == "SimEvent"
            && code
                .get(pos + 1)
                .is_some_and(|&j| f.text(&f.tokens[j]) == ":")
            && code
                .get(pos + 2)
                .is_some_and(|&j| f.text(&f.tokens[j]) == ":")
            && code
                .get(pos + 3)
                .is_some_and(|&j| f.text(&f.tokens[j]) == variant)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from(rel), rel.to_string(), src.to_string())
    }

    fn check_one(rel: &str, src: &str) -> Report {
        check_workspace(&[file(rel, src)], None, None)
    }

    fn rules_of(r: &Report) -> Vec<&'static str> {
        r.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn d1_flags_sim_crates_only() {
        let bad = "use std::collections::HashMap;\n";
        assert_eq!(rules_of(&check_one("crates/cache/src/x.rs", bad)), ["D1"]);
        assert_eq!(
            rules_of(&check_one("crates/telemetry/src/x.rs", bad)),
            ["D1"]
        );
        assert!(rules_of(&check_one("crates/bench/src/x.rs", bad)).is_empty());
        assert!(rules_of(&check_one("crates/cache/tests/x.rs", bad)).is_empty());
    }

    #[test]
    fn d2_flags_time_and_rand() {
        let r = check_one(
            "crates/bench/src/x.rs",
            "use std::time::Instant;\nfn f() { let _ = rand::random::<u8>(); }\n",
        );
        // `std::time` + `Instant` on line 1, `rand::` on line 2.
        assert_eq!(rules_of(&r), ["D2", "D2", "D2"]);
    }

    #[test]
    fn d3_flags_only_covered_files() {
        let bad = "fn f(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(
            rules_of(&check_one("crates/dram/src/mapping.rs", bad)),
            ["D3"]
        );
        assert_eq!(rules_of(&check_one("crates/cache/src/dbi.rs", bad)), ["D3"]);
        assert!(rules_of(&check_one("crates/dram/src/timing.rs", bad)).is_empty());
        // `as f64` is D5's domain, not D3's.
        let float_cast = "fn f(x: u64) -> f64 { x as f64 }\n";
        assert!(!rules_of(&check_one("crates/dram/src/mapping.rs", float_cast)).contains(&"D3"));
    }

    #[test]
    fn d4_flags_lib_not_tests_or_bins() {
        let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_of(&check_one("crates/core/src/x.rs", bad)), ["D4"]);
        assert!(rules_of(&check_one("crates/cli/src/main.rs", bad)).is_empty());
        assert!(rules_of(&check_one("crates/core/tests/x.rs", bad)).is_empty());
        let in_test_mod = "#[cfg(test)]\nmod tests { fn f(x: Option<u8>) { x.unwrap(); } }\n";
        assert!(rules_of(&check_one("crates/core/src/x.rs", in_test_mod)).is_empty());
        let expect = "fn f(x: Option<u8>) -> u8 { x.expect(\"set by caller\") }\n";
        assert_eq!(rules_of(&check_one("crates/core/src/x.rs", expect)), ["D4"]);
        // Not method calls: no flags.
        let ok = "fn f() { let _ = Rc::try_unwrap(x); expect_something(); }\n";
        assert!(rules_of(&check_one("crates/core/src/x.rs", ok)).is_empty());
    }

    #[test]
    fn d5_flags_floats_outside_leaves() {
        let bad = "fn f(x: u64) -> f64 { x as f64 * 1.5 }\n";
        // Return type, cast target, literal: three sites.
        assert_eq!(
            rules_of(&check_one("crates/dram/src/bank.rs", bad)),
            ["D5", "D5", "D5"]
        );
        assert!(rules_of(&check_one("crates/dram/src/energy.rs", bad)).is_empty());
        assert!(rules_of(&check_one("crates/system/src/report.rs", bad)).is_empty());
        assert!(rules_of(&check_one("crates/bench/src/x.rs", bad)).is_empty());
        // Integer exponent-ish suffixes are not floats.
        let ints = "fn f() -> usize { 7usize + 0xEF + 1e3 as usize }\n";
        let r = check_one("crates/dram/src/bank.rs", ints);
        assert_eq!(rules_of(&r), ["D5"], "only the true exponent literal");
    }

    #[test]
    fn d7_flags_unit_ticking_outside_time_engine() {
        let bad = "fn f(&mut self) { self.now += 1; }\n";
        assert_eq!(rules_of(&check_one("crates/dram/src/x.rs", bad)), ["D7"]);
        assert_eq!(rules_of(&check_one("crates/system/src/x.rs", bad)), ["D7"]);
        // The time-engine module itself, non-sim crates, and tests are
        // out of scope.
        assert!(rules_of(&check_one("crates/core/src/time.rs", bad)).is_empty());
        assert!(rules_of(&check_one("crates/bench/src/x.rs", bad)).is_empty());
        assert!(rules_of(&check_one("crates/dram/tests/x.rs", bad)).is_empty());
        // Any watched clock name and any literal step width count.
        let time2 = "fn f(&mut self) { core.time += 2; }\n";
        assert_eq!(
            rules_of(&check_one("crates/system/src/x.rs", time2)),
            ["D7"]
        );
        // Leaping by a computed bound is the sanctioned idiom.
        let leap = "fn f(&mut self) { self.now = self.now.max(to); self.pos += 1; }\n";
        assert!(rules_of(&check_one("crates/dram/src/x.rs", leap)).is_empty());
        // A non-literal step (an op cost, a delta) is not unit ticking.
        let delta = "fn f(&mut self) { self.time += cost; }\n";
        assert!(rules_of(&check_one("crates/system/src/x.rs", delta)).is_empty());
    }

    #[test]
    fn waivers_suppress_and_count() {
        let src = "// gsdram-lint: allow(D4) key inserted above\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let r = check_one("crates/core/src/x.rs", src);
        assert!(r.violations.is_empty());
        assert_eq!(r.waived, 1);
        let trailing =
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // gsdram-lint: allow(D4) fixture key\n";
        let r = check_one("crates/core/src/x.rs", trailing);
        assert!(r.violations.is_empty());
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn w0_and_w1_guard_waiver_hygiene() {
        let no_reason = "// gsdram-lint: allow(D4)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let r = check_one("crates/core/src/x.rs", no_reason);
        // The reasonless waiver is reported and does not suppress.
        assert!(rules_of(&r).contains(&"W0"));
        assert!(rules_of(&r).contains(&"D4"));
        let unused = "// gsdram-lint: allow(D4) nothing here needs this\nfn f() {}\n";
        let r = check_one("crates/core/src/x.rs", unused);
        assert_eq!(rules_of(&r), ["W1"]);
    }

    #[test]
    fn d6_cross_file_coverage() {
        let port = file(
            "crates/core/src/port.rs",
            "pub enum SimEvent {\n    CacheFill { addr: u64 },\n    DramComplete { id: u64, at_mem: u64 },\n}\n",
        );
        let collector_ok = file(
            "crates/telemetry/src/collector.rs",
            "fn fold(ev: &SimEvent) { match ev { SimEvent::CacheFill { .. } => {}, SimEvent::DramComplete { .. } => {} } }\n",
        );
        let arch = "| Event | Emitted by |\n|---|---|\n| `CacheFill` | hier |\n| `DramComplete` | controller |\n";
        let r = check_workspace(
            &[
                file("crates/core/src/port.rs", &port.src),
                file("crates/telemetry/src/collector.rs", &collector_ok.src),
            ],
            Some(("docs/ARCHITECTURE.md", arch)),
            None,
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);

        let collector_missing = file(
            "crates/telemetry/src/collector.rs",
            "fn fold(ev: &SimEvent) { match ev { SimEvent::CacheFill { .. } => {}, _ => {} } }\n",
        );
        let arch_missing = "| Event |\n| `CacheFill` |\n";
        let r = check_workspace(
            &[
                file("crates/core/src/port.rs", &port.src),
                file("crates/telemetry/src/collector.rs", &collector_missing.src),
            ],
            Some(("docs/ARCHITECTURE.md", arch_missing)),
            None,
        );
        assert_eq!(rules_of(&r), ["D6", "D6"], "{:?}", r.violations);
        assert!(r.violations.iter().all(|v| v.msg.contains("DramComplete")));
    }

    #[test]
    fn d8_flags_sync_and_threads_in_sim_and_bench_lib() {
        let bad = concat!(
            "static mut RACY: u64 = 0;\n",
            "use std::sync::atomic::{AtomicUsize, Ordering};\n",
            "fn f() { let _ = x.fetch_add(1, Ordering::Relaxed); }\n",
            "fn g(s: &std::thread::Scope) { s.spawn(|| {}); }\n",
        );
        let r = check_one("crates/dram/src/x.rs", bad);
        assert!(
            rules_of(&r).iter().all(|&v| v == "D8"),
            "{:?}",
            r.violations
        );
        // static mut; std::sync + AtomicUsize; Ordering::Relaxed;
        // std::thread; .spawn(
        assert_eq!(r.violations.len(), 6, "{:?}", r.violations);
        // The bench *library* is covered (it hosts the sweep runner)…
        assert_eq!(
            rules_of(&check_one(
                "crates/bench/src/x.rs",
                "fn f() { let m = Mutex::new(0); }\n"
            )),
            ["D8"]
        );
        // …but tests, bins, and non-sim crates are not.
        assert!(rules_of(&check_one("crates/dram/tests/x.rs", bad)).is_empty());
        assert!(rules_of(&check_one("crates/cli/src/main.rs", bad)).is_empty());
        // `std::cmp::Ordering` is untouched.
        let cmp = "fn f(a: u64, b: u64) -> std::cmp::Ordering { a.cmp(&b) }\n";
        assert!(rules_of(&check_one("crates/dram/src/x.rs", cmp)).is_empty());
        // Waivers suppress, as for every D rule.
        let waived =
            "// gsdram-lint: allow(D8) sanctioned parallel site, proven serial-identical\nuse std::thread;\n";
        let r = check_one("crates/bench/src/x.rs", waived);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn d9_requires_total_merges() {
        let total = concat!(
            "pub struct QueueStats { pub enq: u64, pub deq: u64, pub peak: u64 }\n",
            "impl QueueStats {\n",
            "    pub fn merge(&mut self, other: &Self) {\n",
            "        self.enq += other.enq;\n",
            "        self.deq += other.deq;\n",
            "        if other.peak > self.peak { self.peak = other.peak; }\n",
            "    }\n",
            "}\n",
        );
        assert!(rules_of(&check_one("crates/dram/src/x.rs", total)).is_empty());
        let dropped = total.replace("if other.peak > self.peak { self.peak = other.peak; }", "");
        let r = check_one("crates/dram/src/x.rs", &dropped);
        assert_eq!(rules_of(&r), ["D9"], "{:?}", r.violations);
        assert!(
            r.violations[0].msg.contains("other.peak"),
            "{:?}",
            r.violations
        );
        // The violation anchors at the merge fn.
        assert_eq!(r.violations[0].line, 3);
        // Cross-file within one crate: struct and impl in different files.
        let r = check_workspace(
            &[
                file(
                    "crates/dram/src/stats.rs",
                    "pub struct IoStats { pub n: u64 }\n",
                ),
                file(
                    "crates/dram/src/merge.rs",
                    "impl IoStats { pub fn merge(&mut self, rhs: &Self) { let _ = rhs; } }\n",
                ),
            ],
            None,
            None,
        );
        assert_eq!(rules_of(&r), ["D9"], "{:?}", r.violations);
        assert!(r.violations[0].msg.contains("rhs.n"));
        // Non-merge impls, tuple structs, and differently-named types
        // carry no obligation.
        let no_merge = "pub struct FooStats { pub a: u64 }\nimpl FooStats { fn reset(&mut self) { self.a = 0; } }\n";
        assert!(rules_of(&check_one("crates/dram/src/x.rs", no_merge)).is_empty());
        let not_stats = "pub struct Queue { pub a: u64 }\nimpl Queue { pub fn merge(&mut self, o: &Self) {} }\n";
        assert!(rules_of(&check_one("crates/dram/src/x.rs", not_stats)).is_empty());
    }

    #[test]
    fn d10_audits_waiver_debt_against_the_baseline() {
        let src = "// gsdram-lint: allow(D4) key inserted above\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let files = [file("crates/core/src/x.rs", src)];
        let matching = r#"{"rules": {"D4": {"crates/core/src/x.rs": 1}}}"#;
        let r = check_workspace(&files, None, Some(matching));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // New debt: a waiver the baseline has never seen.
        let empty = r#"{"rules": {}}"#;
        let r = check_workspace(&files, None, Some(empty));
        assert_eq!(rules_of(&r), ["D10"], "{:?}", r.violations);
        assert!(r.violations[0].msg.contains("new waiver debt"));
        assert_eq!(r.violations[0].rel, WAIVER_BASELINE_REL);
        // Stale debt: the baseline records a waiver that is gone.
        let stale =
            r#"{"rules": {"D4": {"crates/core/src/x.rs": 1, "crates/core/src/gone.rs": 2}}}"#;
        let r = check_workspace(&files, None, Some(stale));
        assert_eq!(rules_of(&r), ["D10"]);
        assert!(r.violations[0].msg.contains("stale baseline entry"));
        // No baseline → no audit (fixture trees, fresh checkouts).
        let r = check_workspace(&files, None, None);
        assert!(r.violations.is_empty());
        // Garbage baseline is a violation, not a crash.
        let r = check_workspace(&files, None, Some("{nope"));
        assert_eq!(rules_of(&r), ["D10"]);
    }

    #[test]
    fn waiver_inventory_counts_per_rule_per_file() {
        let files = [
            file(
                "crates/core/src/a.rs",
                "// gsdram-lint: allow(D4) one\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n// gsdram-lint: allow(D4, D5) two\nfn g() {}\n",
            ),
            file("crates/core/src/b.rs", "fn h() {}\n"),
        ];
        let inv = waiver_inventory(&files);
        assert_eq!(inv["D4"]["crates/core/src/a.rs"], 2);
        assert_eq!(inv["D5"]["crates/core/src/a.rs"], 1);
        assert!(!inv.contains_key("D1"));
        assert!(!inv["D4"].contains_key("crates/core/src/b.rs"));
    }

    #[test]
    fn enum_variant_extraction_handles_attrs_and_bodies() {
        let f = file(
            "crates/core/src/port.rs",
            "pub enum SimEvent {\n    #[doc(hidden)]\n    A { x: Vec<u8> },\n    B(u64),\n    C,\n}\n",
        );
        let v = enum_variants(&f, "SimEvent")
            .map(|vs| vs.into_iter().map(|(n, _)| n).collect::<Vec<_>>());
        assert_eq!(
            v.as_deref(),
            Some(&["A".to_string(), "B".to_string(), "C".to_string()][..])
        );
    }
}
