//! The rules (L2's residual `into_iter` form, L3) and file
//! classification.
//!
//! Rules operate on the token stream from [`crate::lexer`], so they can
//! never match inside strings or comments, and they consult a
//! test-region map so `#[cfg(test)]` modules and `#[test]` functions
//! are exempt from the library-code rules. Every rule is a linear token
//! pattern with a small amount of scope tracking — deliberately simple
//! enough to audit by reading. No comment silences a finding: it is
//! fixed in code.

use crate::lexer::{lex, Tok, TokKind};
use crate::report::Diagnostic;

/// Crates whose code makes dedup decisions: chunk boundaries,
/// fingerprints, index placement, container layout. Nondeterminism here
/// breaks the serial≡parallel byte-reproducibility contract (DESIGN §8,
/// §11), so each carries a `clippy.toml` that disallows the wall clock,
/// thread identity and hash-order traversal.
pub const DEDUP_DECISION_CRATES: &[&str] = &["core", "chunking", "hashing", "index", "container"];

/// Crates whose `clippy.toml` additionally disallows hash-order traversal
/// because they shape report output (metrics) or observability snapshots
/// (obs).
pub const OUTPUT_SHAPING_CRATES: &[&str] = &["metrics", "obs"];

/// Iterator adapters whose result does not depend on iteration order,
/// and sorted collection targets: a HashMap/HashSet traversal whose
/// statement ends in one of these is order-safe.
const ORDER_INSENSITIVE: &[&str] = &[
    "sum", "count", "min", "max", "min_by", "max_by", "min_by_key", "max_by_key", "all", "any",
    "len", "is_empty", "sort", "sort_unstable", "sort_by", "sort_by_key", "sort_unstable_by",
    "sort_unstable_by_key", "BTreeMap", "BTreeSet", "BinaryHeap",
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

/// Scans one file's source text with the rules (L2, L3).
pub fn scan_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let Some(class) = classify(rel) else { return Vec::new() };
    let toks = lex(src);
    let test_ranges = test_line_ranges(&toks);
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

    if DEDUP_DECISION_CRATES.contains(&class.crate_name.as_str())
        || OUTPUT_SHAPING_CRATES.contains(&class.crate_name.as_str())
    {
        rule_hash_into_iter(&toks, &mut |line, msg| {
            cands.push(diag("unordered-iteration", line, msg));
        });
    }
    rule_blocking_under_lock(&toks, &mut |line, msg| {
        cands.push(diag("blocking-under-lock", line, msg));
    });

    // No rule applies inside test code.
    cands.retain(|d| !in_test(d.line));
    cands
}

fn ident_is(t: &Tok, name: &str) -> bool {
    matches!(&t.kind, TokKind::Ident(s) if s == name)
}

fn ident_of(t: &Tok) -> Option<&str> {
    match &t.kind {
        TokKind::Ident(s) => Some(s),
        _ => None,
    }
}

fn punct_is(t: &Tok, c: char) -> bool {
    t.kind == TokKind::Punct(c)
}

/// Line ranges (inclusive) of `#[cfg(test)]` / `#[test]`-attributed
/// items, so library rules skip unit-test modules embedded in src files.
fn test_line_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
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

/// L2: `name.into_iter()` on a `HashMap`/`HashSet` binding with no
/// order-insensitive sink in the same statement. Every other hash-order
/// traversal is clippy's (`disallowed-methods` in the crate's
/// `clippy.toml`, `iter_over_hash_type` for loops); `into_iter` is a trait
/// method, which a `disallowed-methods` path cannot name.
fn rule_hash_into_iter(toks: &[Tok], emit: &mut impl FnMut(u32, String)) {
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

    // Pass 2: `name.into_iter()` on those names.
    for i in 0..toks.len() {
        let Some(name) = ident_of(&toks[i]) else { continue };
        let hit = names.iter().any(|n| n == name)
            && toks.get(i + 1).is_some_and(|t| punct_is(t, '.'))
            && toks.get(i + 2).is_some_and(|t| ident_is(t, "into_iter"));
        if !hit || statement_is_order_insensitive(toks, i) {
            continue;
        }
        emit(
            toks[i].line,
            format!(
                "iteration over hash-ordered `{name}` (L2): anything feeding manifests, \
                 container layout, or report output must sort first (collect + sort, or a \
                 BTree collection)"
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
                        // poison-recovery adapters or a condvar wait after
                        // it, at its depth: a closure argument's field
                        // reads do not count) binds a guard to `name`; a
                        // mid-chain `lock()` produces a temporary guard
                        // that dies at the `;`, so the binding is NOT
                        // tracked — but a blocking call later in that same
                        // chain holds the temporary across it and flags
                        // here.
                        let (mut tail, mut lock_depth) = (false, 0i32);
                        let mut chained_block: Option<(u32, String)> = None;
                        while k < toks.len() {
                            match &toks[k].kind {
                                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
                                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
                                TokKind::Punct(';') if d <= 0 => break,
                                TokKind::Ident(m) if k >= 1 && punct_is(&toks[k - 1], '.') => {
                                    if m == "lock" {
                                        lock_seen = true;
                                        (tail, lock_depth) = (true, d);
                                    } else if lock_seen
                                        && !matches!(
                                            m.as_str(),
                                            "unwrap"
                                                | "expect"
                                                | "unwrap_or_else"
                                                | "into_inner"
                                                | "wait"
                                                | "wait_while"
                                        )
                                    {
                                        tail &= d > lock_depth;
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
                                     the statement"
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
                             live (L3): drop the guard first",
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

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(rel: &str, src: &str) -> Vec<(String, u32)> {
        scan_source(rel, src).into_iter().map(|d| (d.rule.to_string(), d.line)).collect()
    }

    const CORE: &str = "crates/core/src/x.rs";

    /// A file of the workspace this crate lives in.
    fn workspace_file(rel: &str) -> String {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        std::fs::read_to_string(root.join(rel)).unwrap_or_default()
    }

    #[test]
    fn nondet_time_only_in_dedup_crates() {
        // The wall clock is clippy's: aalint stays silent, and the
        // `clippy.toml` of exactly the decision crates disallows it.
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(diags(CORE, src).is_empty());
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort_unstable();
        assert!(names.len() > 10 && names.iter().any(|n| n == "cloud"), "{names:?}");
        for name in &names {
            let toml = workspace_file(&format!("crates/{name}/clippy.toml"));
            let listed = toml.contains("path = \"std::time::Instant::now\"");
            assert_eq!(listed, DEDUP_DECISION_CRATES.contains(&name.as_str()), "crates/{name}");
        }
    }

    #[test]
    fn bare_for_loop_over_map_is_flagged() {
        // A bare `for` over a hash type is clippy's `iter_over_hash_type`,
        // denied in the lint table every member inherits; aalint flags
        // only the explicit `into_iter` form no lint path can name.
        let bare = "fn f() { let mut m = HashMap::new(); for x in &m { g(x); } }\n";
        assert!(diags(CORE, bare).is_empty());
        let explicit = "fn f() { let mut m = HashMap::new(); for x in m.into_iter() { g(x); } }\n";
        assert_eq!(diags(CORE, explicit), vec![("unordered-iteration".into(), 1)]);
        let manifest = workspace_file("Cargo.toml");
        assert!(manifest.lines().any(|l| l == "iter_over_hash_type = \"deny\""));
    }

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
    fn unordered_iteration_respects_sorted_sinks() {
        let src = "fn f(m: HashMap<u32, u32>) {\n\
                   let a: u32 = m.into_iter().map(|(_, v)| v).sum();\n\
                   for v in m.into_iter() { emit(v); }\n}\n";
        assert_eq!(diags(CORE, src), vec![("unordered-iteration".into(), 3)]);
        assert!(diags("crates/cloud/src/x.rs", src).is_empty());
        assert!(diags("crates/core/tests/x.rs", src).is_empty());
    }

    #[test]
    fn collect_then_sort_next_statement_is_accepted() {
        let src = "fn f(m: HashMap<u32, u32>) {\n\
                   let mut v: Vec<(u32, u32)> = m.into_iter().collect();\n\
                   v.sort_unstable();\n}\n\
                   fn g(m: HashMap<u32, u32>) {\n\
                   let v: Vec<(u32, u32)> = m.into_iter().collect();\n\
                   emit(v);\n}\n";
        assert_eq!(diags(CORE, src), vec![("unordered-iteration".into(), 6)]);
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
    fn a_guard_back_from_a_condvar_wait_is_a_guard() {
        let src = "fn f() {\n\
                   let g = m.lock().wait_while(&turn, |a| a.busy);\n\
                   rx.recv();\n}\n";
        assert_eq!(diags(CORE, src), vec![("blocking-under-lock".into(), 3)]);
    }

    #[test]
    fn join_needs_empty_parens() {
        let src = "fn f() { let g = m.lock(); let p = path.join(name); h.join(); }\n";
        assert_eq!(diags(CORE, src), vec![("blocking-under-lock".into(), 1)]);
    }
}
