//! The file-local rule families (L2, L3), file classification, and
//! allow-comment suppression.
//!
//! Rules operate on the token stream from [`crate::lexer`], so they can
//! never match inside strings or comments, and they consult a
//! test-region map so `#[cfg(test)]` modules and `#[test]` functions
//! are exempt from the library-code rules. Every rule is a linear token
//! pattern with a small amount of scope tracking — deliberately simple
//! enough to audit by reading, at the cost of being heuristic: a rule
//! that cannot be satisfied at a site that is genuinely correct is
//! silenced with `// aalint: allow(<rule>) -- <justification>`, which
//! the report inventories so suppressions stay visible.

use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::report::{Allow, Diagnostic};

/// Crates whose code makes dedup decisions: chunk boundaries,
/// fingerprints, index placement, container layout. Nondeterminism here
/// breaks the serial≡parallel byte-reproducibility contract (DESIGN §8,
/// §11), so the determinism rules apply to these crates.
pub(crate) const DEDUP_DECISION_CRATES: &[&str] =
    &["core", "chunking", "hashing", "index", "container"];

/// Crates additionally covered by the unordered-iteration rule because
/// they shape report output (metrics) or observability snapshots (obs).
const OUTPUT_SHAPING_CRATES: &[&str] = &["metrics", "obs"];

/// Rules an allow comment may suppress. The allow machinery's own
/// diagnostics are deliberately not suppressible.
const SUPPRESSIBLE: &[&str] = &[
    "nondeterministic-time",
    "unordered-iteration",
    "blocking-under-lock",
    "lock-order-cycle",
    "discarded-fallibility",
];

/// Iterator adapters whose result does not depend on iteration order,
/// and sorted collection targets: a HashMap/HashSet traversal whose
/// statement ends in one of these is order-safe.
const ORDER_INSENSITIVE: &[&str] = &[
    "sum", "count", "min", "max", "min_by", "max_by", "min_by_key", "max_by_key", "all", "any",
    "len", "is_empty", "sort", "sort_unstable", "sort_by", "sort_by_key", "sort_unstable_by",
    "sort_unstable_by_key", "BTreeMap", "BTreeSet", "BinaryHeap",
];

/// Methods that traverse a map/set in hash order.
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "into_keys", "into_values",
    "drain", "retain",
];

/// How a file participates in the scan, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// `crates/<name>/...` → `<name>`; root `src`/`tests` → `aa-dedupe`.
    pub crate_name: String,
    /// Integration tests, benches, examples: no rule applies (panics and
    /// nondeterminism are fine in test harnesses).
    pub test_path: bool,
}

/// Classifies `rel` (workspace-root-relative, `/`-separated). `None`
/// means the file is out of scope: vendored code, build artifacts, and
/// the lint fixture corpus (which exists to violate the rules).
pub fn classify(rel: &str) -> Option<FileClass> {
    if rel.starts_with("target/")
        || rel.starts_with("vendor/")
        || rel.starts_with('.')
        || rel.contains("/fixtures/")
    {
        return None;
    }
    if !rel.ends_with(".rs") {
        return None;
    }
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("aa-dedupe")
        .to_string();
    let test_path = rel.split('/').any(|seg| seg == "tests" || seg == "benches" || seg == "examples");
    Some(FileClass { crate_name, test_path })
}

/// Scans one file's source text with the file-local rule families
/// (L2, L3). The interprocedural rules (L5, L7) need the whole workspace
/// and only run through [`crate::scan_workspace`]. Returns surviving
/// diagnostics plus the inventory of allow comments that suppressed
/// something.
pub fn scan_source(rel: &str, src: &str) -> (Vec<Diagnostic>, Vec<Allow>) {
    let Some(class) = classify(rel) else { return (Vec::new(), Vec::new()) };
    let (toks, comments) = lex(src);
    let test_ranges = test_line_ranges(&toks);
    let mut cands = file_candidates(rel, &class, &toks, &test_ranges);
    let (mut dirs, malformed) = parse_directives(rel, &toks, &comments);
    cands = suppress(cands, &mut dirs);
    cands.extend(malformed);
    let (allows, unused) = directive_hygiene(rel, dirs);
    cands.extend(unused);
    (cands, allows)
}

/// The file-local rule families (L2, L3), before allow suppression.
pub(crate) fn file_candidates(
    rel: &str,
    class: &FileClass,
    toks: &[Tok],
    test_ranges: &[(u32, u32)],
) -> Vec<Diagnostic> {
    let in_test = |line: u32| {
        class.test_path || test_ranges.iter().any(|&(a, b)| line >= a && line <= b)
    };

    let mut cands: Vec<Diagnostic> = Vec::new();
    let diag = |rule: &'static str, line: u32, message: String| Diagnostic {
        rule,
        file: rel.to_string(),
        line,
        message,
    };

    if DEDUP_DECISION_CRATES.contains(&class.crate_name.as_str()) {
        rule_nondet_time(toks, &mut |line, msg| {
            cands.push(diag("nondeterministic-time", line, msg));
        });
    }
    if DEDUP_DECISION_CRATES.contains(&class.crate_name.as_str())
        || OUTPUT_SHAPING_CRATES.contains(&class.crate_name.as_str())
    {
        rule_unordered_iteration(toks, &mut |line, msg| {
            cands.push(diag("unordered-iteration", line, msg));
        });
    }
    rule_blocking_under_lock(toks, &mut |line, msg| {
        cands.push(diag("blocking-under-lock", line, msg));
    });

    // No rule applies inside test code.
    cands.retain(|d| !in_test(d.line));
    cands
}

fn ident_is(t: &Tok, name: &str) -> bool {
    matches!(&t.kind, TokKind::Ident(s) if s == name)
}

pub(crate) fn ident_of(t: &Tok) -> Option<&str> {
    match &t.kind {
        TokKind::Ident(s) => Some(s),
        _ => None,
    }
}

pub(crate) fn punct_is(t: &Tok, c: char) -> bool {
    t.kind == TokKind::Punct(c)
}

/// Line ranges (inclusive) of `#[cfg(test)]` / `#[test]`-attributed
/// items, so library rules skip unit-test modules embedded in src files.
pub(crate) fn test_line_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if punct_is(&toks[i], '#') && i + 1 < toks.len() && punct_is(&toks[i + 1], '[') {
            let start_line = toks[i].line;
            let (attr, after) = balanced(toks, i + 1, '[', ']');
            if attr_marks_test(attr) {
                if let Some(end_line) = item_end_line(toks, after) {
                    ranges.push((start_line, end_line));
                }
            }
            i = after;
            continue;
        }
        i += 1;
    }
    ranges
}

/// True for `#[test]`, `#[xxx::test]`, and `#[cfg(...test...)]` (but
/// not `#[cfg(not(test))]` or `#[cfg_attr(test, ...)]`, which attach to
/// code that is also compiled outside tests).
fn attr_marks_test(attr: &[Tok]) -> bool {
    let mut idents = attr.iter().filter_map(ident_of);
    match idents.next() {
        Some("cfg") => {
            attr.iter().filter_map(ident_of).any(|s| s == "test")
                && !attr.iter().filter_map(ident_of).any(|s| s == "not")
        }
        Some("cfg_attr") | None => false,
        Some(first) => {
            // `#[test]` or a path ending in `::test` before any `(`.
            let mut last = first;
            for t in &attr[1..] {
                match &t.kind {
                    TokKind::Ident(s) => last = s,
                    TokKind::Punct(':') => {}
                    _ => break,
                }
            }
            last == "test"
        }
    }
}

/// Tokens inside one balanced `open..close` pair starting at `start`
/// (which must hold `open`); returns (inner tokens, index after close).
fn balanced(toks: &[Tok], start: usize, open: char, close: char) -> (&[Tok], usize) {
    let mut depth = 0usize;
    let mut i = start;
    while i < toks.len() {
        if punct_is(&toks[i], open) {
            depth += 1;
        } else if punct_is(&toks[i], close) {
            depth -= 1;
            if depth == 0 {
                return (&toks[start + 1..i], i + 1);
            }
        }
        i += 1;
    }
    (&toks[start..start], toks.len())
}

/// Finds the end line of the item following index `i`: skips further
/// attributes, then either a `{...}` body (matching brace) or a `;`.
fn item_end_line(toks: &[Tok], mut i: usize) -> Option<u32> {
    while i + 1 < toks.len() && punct_is(&toks[i], '#') && punct_is(&toks[i + 1], '[') {
        let (_, after) = balanced(toks, i + 1, '[', ']');
        i = after;
    }
    while i < toks.len() {
        if punct_is(&toks[i], ';') {
            return Some(toks[i].line);
        }
        if punct_is(&toks[i], '{') {
            let mut depth = 0usize;
            while i < toks.len() {
                if punct_is(&toks[i], '{') {
                    depth += 1;
                } else if punct_is(&toks[i], '}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some(toks[i].line);
                    }
                }
                i += 1;
            }
            return Some(toks.last()?.line);
        }
        i += 1;
    }
    None
}

/// L2a: wall-clock or thread-identity reads inside dedup-decision
/// crates (`SystemTime::now`, `Instant::now`, `thread::current`).
fn rule_nondet_time(toks: &[Tok], emit: &mut impl FnMut(u32, String)) {
    for i in 0..toks.len().saturating_sub(3) {
        let Some(head) = ident_of(&toks[i]) else { continue };
        if !punct_is(&toks[i + 1], ':') || !punct_is(&toks[i + 2], ':') {
            continue;
        }
        let Some(tail) = ident_of(&toks[i + 3]) else { continue };
        let bad = matches!((head, tail), ("SystemTime", "now") | ("Instant", "now") | ("thread", "current"));
        if bad {
            emit(
                toks[i].line,
                format!(
                    "`{head}::{tail}` in a dedup-decision crate (L2): wall-clock and \
                     thread identity must not influence chunking, fingerprints, index or \
                     container layout; route timing through the obs Recorder gate, or \
                     justify with `// aalint: allow(nondeterministic-time) -- <why>`"
                ),
            );
        }
    }
}

/// L2b: iteration over a `HashMap`/`HashSet` binding with no
/// order-insensitive sink in the same statement.
fn rule_unordered_iteration(toks: &[Tok], emit: &mut impl FnMut(u32, String)) {
    // Pass 1: names declared with a HashMap/HashSet type anywhere in the
    // file — `let m = HashMap::new()`, `m: HashMap<..>` (field, param,
    // or annotated let).
    let mut names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        let Some(name) = ident_of(&toks[i]) else { continue };
        if name == "HashMap" || name == "HashSet" {
            // Walk back past the type context to the introducing ident.
            let mut j = i;
            let mut guard = 0usize;
            while j > 0 && guard < 24 {
                j -= 1;
                guard += 1;
                if let Some(prev) = ident_of(&toks[j]) {
                    if prev == "let" || prev == "mut" {
                        continue;
                    }
                    if prev == "HashMap" || prev == "HashSet" || prev == "impl" || prev == "for" {
                        break;
                    }
                    // `name :` or `name =` introduce the binding.
                    let next_is_intro = toks
                        .get(j + 1)
                        .is_some_and(|t| punct_is(t, ':') || punct_is(t, '='));
                    if next_is_intro && !names.iter().any(|n| n == prev) {
                        names.push(prev.to_string());
                    }
                    break;
                }
                match &toks[j].kind {
                    TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
                    _ => {}
                }
            }
        }
    }

    // Pass 2: traversals of those names.
    for i in 0..toks.len() {
        let Some(name) = ident_of(&toks[i]) else { continue };
        if !names.iter().any(|n| n == name) {
            continue;
        }
        // `name.iter()` and friends.
        let method_hit = toks.get(i + 1).is_some_and(|t| punct_is(t, '.'))
            && toks
                .get(i + 2)
                .and_then(ident_of)
                .is_some_and(|m| ITER_METHODS.contains(&m));
        // `for x in name {` / `for x in &name {` / `&mut name {`.
        let loop_hit = toks.get(i + 1).is_some_and(|t| punct_is(t, '{')) && {
            let mut j = i;
            if j > 0 && ident_is(&toks[j - 1], "mut") {
                j -= 1;
            }
            if j > 0 && punct_is(&toks[j - 1], '&') {
                j -= 1;
            }
            j > 0 && ident_is(&toks[j - 1], "in")
        };
        if !method_hit && !loop_hit {
            continue;
        }
        if method_hit && statement_is_order_insensitive(toks, i) {
            continue;
        }
        emit(
            toks[i].line,
            format!(
                "iteration over hash-ordered `{name}` (L2): anything feeding manifests, \
                 container layout, or report output must sort first (collect + sort, or a \
                 BTree collection), or justify with \
                 `// aalint: allow(unordered-iteration) -- <why>`"
            ),
        );
    }
}

/// Does the statement containing index `i` end in an order-insensitive
/// reduction or a sorted collection — or is the traversal immediately
/// followed by a sorting statement (`let mut v = m.iter()...collect();
/// v.sort();`, the canonical intervening-sort fix)?
fn statement_is_order_insensitive(toks: &[Tok], i: usize) -> bool {
    let mut j = i;
    let mut depth = 0i32;
    let mut semis = 0u8;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            // A bare `{` is a loop/match body: the chain ended without a
            // sink. Braces inside call arguments (closures) sit at
            // depth > 0 and pass through.
            TokKind::Punct('{') => {
                if depth == 0 {
                    break;
                }
                depth += 1;
            }
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth <= 0 => {
                // Look one statement ahead for the intervening sort.
                semis += 1;
                if semis == 2 {
                    break;
                }
            }
            // Past the first `;` only a sort counts: `sum` in the next
            // statement says nothing about this traversal.
            TokKind::Ident(s)
                if ORDER_INSENSITIVE.contains(&s.as_str())
                    && (semis == 0 || s.starts_with("sort")) =>
            {
                return true;
            }
            _ => {}
        }
        j += 1;
    }
    false
}

/// L3: a blocking channel/thread operation (`send`, `recv`,
/// `recv_timeout`, argument-less `join`) while a `MutexGuard` binding
/// is live in the same scope — the deadlock shape the pipeline topology
/// must never grow.
fn rule_blocking_under_lock(toks: &[Tok], emit: &mut impl FnMut(u32, String)) {
    struct Guard {
        name: String,
        depth: i32,
        line: u32,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            TokKind::Ident(kw) if kw == "let" => {
                // `let [mut] name = ...;` — a lock() in the initializer
                // makes `name` a guard; any other initializer shadows it.
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| ident_is(t, "mut")) {
                    j += 1;
                }
                if let Some(name) = toks.get(j).and_then(ident_of) {
                    if toks.get(j + 1).is_some_and(|t| punct_is(t, '=')) {
                        let mut k = j + 2;
                        let mut d = 0i32;
                        let mut lock_seen = false;
                        // `lock()` in tail position (only unwrap/expect/
                        // poison-recovery adapters after it) binds a guard
                        // to `name`; a mid-chain `lock()` produces a
                        // temporary guard that dies at the `;`, so the
                        // binding is NOT tracked — but a blocking call
                        // later in that same chain holds the temporary
                        // across it and flags here.
                        let mut tail = false;
                        let mut chained_block: Option<(u32, String)> = None;
                        while k < toks.len() {
                            match &toks[k].kind {
                                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
                                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
                                TokKind::Punct(';') if d <= 0 => break,
                                TokKind::Ident(m) if k >= 1 && punct_is(&toks[k - 1], '.') => {
                                    if m == "lock" {
                                        lock_seen = true;
                                        tail = true;
                                    } else if lock_seen
                                        && !matches!(
                                            m.as_str(),
                                            "unwrap" | "expect" | "unwrap_or_else" | "into_inner"
                                        )
                                    {
                                        tail = false;
                                        let argless_join = m == "join"
                                            && toks.get(k + 1).is_some_and(|t| punct_is(t, '('))
                                            && toks.get(k + 2).is_some_and(|t| punct_is(t, ')'));
                                        let blocking =
                                            matches!(m.as_str(), "send" | "recv" | "recv_timeout")
                                                || argless_join;
                                        if blocking && chained_block.is_none() {
                                            chained_block = Some((toks[k].line, m.clone()));
                                        }
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        guards.retain(|g| g.name != *name);
                        if lock_seen && tail {
                            guards.push(Guard {
                                name: name.to_string(),
                                depth,
                                line: toks[i].line,
                            });
                        }
                        if let Some((line, m)) = chained_block {
                            emit(
                                line,
                                format!(
                                    "blocking `.{m}()` chained onto a temporary MutexGuard \
                                     (L3): the lock is held across the blocking call; split \
                                     the statement, or justify with \
                                     `// aalint: allow(blocking-under-lock) -- <why>`"
                                ),
                            );
                        }
                        // Resume just after the `=`: the initializer is
                        // re-scanned so a blocking call inside it (`let v
                        // = rx.recv();` under a live guard) still flags.
                        i = j + 2;
                        continue;
                    }
                }
            }
            TokKind::Ident(kw)
                if kw == "drop"
                    && toks.get(i + 1).is_some_and(|t| punct_is(t, '('))
                    && toks.get(i + 3).is_some_and(|t| punct_is(t, ')')) =>
            {
                if let Some(name) = toks.get(i + 2).and_then(ident_of) {
                    guards.retain(|g| g.name != name);
                }
            }
            TokKind::Ident(m)
                if !guards.is_empty()
                    && i >= 1
                    && punct_is(&toks[i - 1], '.')
                    && toks.get(i + 1).is_some_and(|t| punct_is(t, '(')) =>
            {
                let blocking = matches!(m.as_str(), "send" | "recv" | "recv_timeout")
                    || (m == "join" && toks.get(i + 2).is_some_and(|t| punct_is(t, ')')));
                if blocking {
                    let g = &guards[guards.len() - 1];
                    emit(
                        toks[i].line,
                        format!(
                            "blocking `.{m}()` while MutexGuard `{g}` (declared line {l}) is \
                             live (L3): drop the guard first, or justify with \
                             `// aalint: allow(blocking-under-lock) -- <why>`",
                            g = g.name,
                            l = g.line
                        ),
                    );
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// One parsed allow directive. The `used` flag is set by whichever
/// rule family (file-local or interprocedural) the directive ends up
/// suppressing; directives still unused after every pass become
/// `unused-allow` diagnostics in [`directive_hygiene`].
pub(crate) struct Directive {
    pub rule: String,
    pub comment_line: u32,
    pub target_line: u32,
    pub justification: String,
    pub used: bool,
}

/// Parses the allow comments of one file. Returns the directives plus
/// `malformed-allow` diagnostics.
pub(crate) fn parse_directives(
    rel: &str,
    toks: &[Tok],
    comments: &[Comment],
) -> (Vec<Directive>, Vec<Diagnostic>) {
    let mut directives: Vec<Directive> = Vec::new();
    let mut extra: Vec<Diagnostic> = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("aalint:") else { continue };
        let malformed = |msg: &str| Diagnostic {
            rule: "malformed-allow",
            file: rel.to_string(),
            line: c.line,
            message: format!(
                "{msg}; expected `// aalint: allow(<rule>) -- <justification>` with rule \
                 in {SUPPRESSIBLE:?}"
            ),
        };
        let rest = rest.trim();
        let Some(args) = rest.strip_prefix("allow").map(str::trim_start) else {
            extra.push(malformed("unknown aalint directive"));
            continue;
        };
        let Some(open) = args.strip_prefix('(') else {
            extra.push(malformed("missing `(` after allow"));
            continue;
        };
        let Some(close_at) = open.find(')') else {
            extra.push(malformed("unterminated allow(...)"));
            continue;
        };
        let (rule_list, after) = open.split_at(close_at);
        let after = after[1..].trim();
        let Some(justification) = after.strip_prefix("--").map(str::trim) else {
            extra.push(malformed("missing `-- <justification>`"));
            continue;
        };
        if justification.is_empty() {
            extra.push(malformed("empty justification"));
            continue;
        }
        let target_line = if c.trailing {
            c.line
        } else {
            toks.iter().map(|t| t.line).find(|&l| l > c.line).unwrap_or(c.line)
        };
        let mut any = false;
        for rule in rule_list.split(',').map(str::trim).filter(|r| !r.is_empty()) {
            if !SUPPRESSIBLE.contains(&rule) {
                extra.push(malformed(&format!("`{rule}` is not a suppressible rule")));
                continue;
            }
            any = true;
            directives.push(Directive {
                rule: rule.to_string(),
                comment_line: c.line,
                target_line,
                justification: justification.to_string(),
                used: false,
            });
        }
        if !any && rule_list.trim().is_empty() {
            extra.push(malformed("empty rule list"));
        }
    }
    (directives, extra)
}

/// Drops candidates a directive targets, marking those directives used.
pub(crate) fn suppress(mut cands: Vec<Diagnostic>, dirs: &mut [Directive]) -> Vec<Diagnostic> {
    cands.retain(|d| {
        for dir in dirs.iter_mut() {
            if dir.rule == d.rule && dir.target_line == d.line {
                dir.used = true;
                return false;
            }
        }
        true
    });
    cands
}

/// Final accounting for one file's directives: used ones enter the
/// allow inventory, unused ones are diagnostics (this covers the
/// interprocedural rules too — the workspace pass marks the directives
/// it consumed before this runs).
pub(crate) fn directive_hygiene(
    rel: &str,
    dirs: Vec<Directive>,
) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut unused = Vec::new();
    for dir in dirs {
        if dir.used {
            allows.push(Allow {
                rule: dir.rule,
                file: rel.to_string(),
                line: dir.comment_line,
                justification: dir.justification,
            });
        } else {
            unused.push(Diagnostic {
                rule: "unused-allow",
                file: rel.to_string(),
                line: dir.comment_line,
                message: format!(
                    "`allow({})` suppresses nothing on line {}; remove it or move it onto \
                     the offending line",
                    dir.rule, dir.target_line
                ),
            });
        }
    }
    (allows, unused)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(rel: &str, src: &str) -> Vec<(String, u32)> {
        scan_source(rel, src).0.into_iter().map(|d| (d.rule.to_string(), d.line)).collect()
    }

    const CORE: &str = "crates/core/src/x.rs";

    #[test]
    fn classify_scopes_paths() {
        assert!(classify("vendor/bytes/src/lib.rs").is_none());
        assert!(classify("target/debug/build/x.rs").is_none());
        assert!(classify("crates/lint/tests/fixtures/bad.rs").is_none());
        let c = classify("crates/core/src/engine.rs").unwrap();
        assert_eq!(c.crate_name, "core");
        assert!(!c.test_path);
        assert!(classify("tests/end_to_end.rs").unwrap().test_path);
        assert_eq!(classify("src/lib.rs").unwrap().crate_name, "aa-dedupe");
    }

    #[test]
    fn nondet_time_only_in_dedup_crates() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(diags(CORE, src), vec![("nondeterministic-time".into(), 1)]);
        assert!(diags("crates/cloud/src/x.rs", src).is_empty());
        assert!(diags("crates/core/tests/x.rs", src).is_empty());
    }

    #[test]
    fn unordered_iteration_respects_sorted_sinks() {
        let src = "fn f(m: HashMap<u32, u32>) {\n\
                   let a: u32 = m.values().sum();\n\
                   for v in m.values() { emit(v); }\n}\n";
        assert_eq!(diags(CORE, src), vec![("unordered-iteration".into(), 3)]);
    }

    #[test]
    fn collect_then_sort_next_statement_is_accepted() {
        let src = "fn f(m: HashMap<u32, u32>) {\n\
                   let mut v: Vec<u32> = m.keys().copied().collect();\n\
                   v.sort_unstable();\n}\n\
                   fn g(m: HashMap<u32, u32>) {\n\
                   let v: Vec<u32> = m.keys().copied().collect();\n\
                   emit(v);\n}\n";
        assert_eq!(diags(CORE, src), vec![("unordered-iteration".into(), 6)]);
    }

    #[test]
    fn bare_for_loop_over_map_is_flagged() {
        let src = "fn f() { let mut m = HashMap::new(); for x in &m { g(x); } }\n";
        assert_eq!(diags(CORE, src), vec![("unordered-iteration".into(), 1)]);
    }

    #[test]
    fn blocking_under_lock_lifecycle() {
        let src = "fn f() {\n let g = m.lock();\n rx.recv();\n drop(g);\n rx.recv();\n}\n\
                   fn h() {\n { let g = m.lock(); }\n tx.send(1);\n}\n";
        assert_eq!(diags(CORE, src), vec![("blocking-under-lock".into(), 3)]);
    }

    #[test]
    fn midchain_lock_flags_once_and_binding_is_not_a_guard() {
        // The spmc idiom: the temporary guard is held across `.recv()`
        // (flag it at the statement), but `job` is a plain value — a
        // later send must NOT be reported against it.
        let src = "fn f() {\n\
                   let job = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner).recv();\n\
                   tx.send(job);\n}\n";
        assert_eq!(diags(CORE, src), vec![("blocking-under-lock".into(), 2)]);
    }

    #[test]
    fn tail_lock_with_poison_recovery_is_a_guard() {
        let src = "fn f() {\n\
                   let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                   rx.recv();\n}\n";
        assert_eq!(diags(CORE, src), vec![("blocking-under-lock".into(), 3)]);
    }

    #[test]
    fn join_needs_empty_parens() {
        let src = "fn f() { let g = m.lock(); let p = path.join(name); h.join(); }\n";
        assert_eq!(diags(CORE, src), vec![("blocking-under-lock".into(), 1)]);
    }

    #[test]
    fn allow_suppresses_and_is_inventoried() {
        let src = "fn f() {\n\
                   let t = Instant::now(); // aalint: allow(nondeterministic-time) -- telemetry only\n}\n";
        let (d, a) = scan_source(CORE, src);
        assert!(d.is_empty());
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].rule, "nondeterministic-time");
        assert_eq!(a[0].justification, "telemetry only");
    }

    #[test]
    fn standalone_allow_covers_next_line() {
        let src = "fn f(m: HashMap<u32, u32>) {\n\
                   // aalint: allow(unordered-iteration) -- xor-fold is order-insensitive\n\
                   m.keys().fold(0, |a, k| a ^ k);\n}\n";
        let (d, a) = scan_source(CORE, src);
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn malformed_and_unused_allows_are_diagnosed() {
        let src = "// aalint: allow(lock-order-cycle)\n\
                   // aalint: allow(nope) -- x\n\
                   // aalint: allow(unordered-iteration) -- nothing here\nfn f() {}\n";
        let rules: Vec<_> = diags(CORE, src).into_iter().map(|(r, _)| r).collect();
        assert!(rules.contains(&"malformed-allow".to_string()));
        assert!(rules.contains(&"unused-allow".to_string()));
    }

    #[test]
    fn allow_cannot_silence_unsafe() {
        // `unsafe`, `unwrap` and panics on decision paths are the
        // compiler's and clippy's to reject; an allow naming them is
        // malformed, so a stale one cannot linger.
        for rule in ["unsafe-code", "unwrap-in-lib", "panic-path"] {
            let src = format!("fn f() {{}} // aalint: allow({rule}) -- no\n");
            assert_eq!(diags(CORE, &src), vec![("malformed-allow".into(), 1)]);
        }
    }
}
