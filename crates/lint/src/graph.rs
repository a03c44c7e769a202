//! Workspace symbol table, conservative call graph, and the three
//! interprocedural rule families (L5–L7).
//!
//! The graph is built from the same hand-rolled token stream the
//! file-local rules use (no `syn`, air-gap friendly), so it is
//! *conservative by construction* rather than precise:
//!
//! - **Definitions** are `fn` items keyed by (crate, enclosing
//!   impl/trait, name, arity). Bodies are token ranges; nested `fn`
//!   items are carved out of their parent's range.
//! - **Call resolution is name + arity.** A call `x.get(k)` resolves to
//!   *every* visible method named `get` taking one argument — the
//!   lexer has no types, so the graph over-approximates edges rather
//!   than miss one. Visibility is bounded by the declared Cargo
//!   dependency graph (a call in `core` never resolves into `cli`),
//!   which removes most cross-crate collisions; a crate without a
//!   parseable manifest conservatively sees every crate.
//! - Test code (`#[cfg(test)]` regions, `tests/`/`benches/` paths) is
//!   never a resolution target and never reported against.
//!
//! The rules on top:
//!
//! - **L5 `lock-order-cycle`** — every `.lock()` acquisition records the
//!   named lock field and the set of locks already held (guard-liveness
//!   tracking shared in spirit with `blocking-under-lock`, extended
//!   through calls: holding lock A while calling a function that
//!   transitively acquires lock B contributes an A→B edge). Edges
//!   aggregate workspace-wide, keyed by (crate, lock field); any cycle
//!   is a potential deadlock and is reported with both acquisition
//!   sites of every edge.
//! - **L6 `panic-path`** — leaf panic sources (`unwrap`/`expect`,
//!   `panic!`/`assert!`-family macros, indexing with a non-literal
//!   index) outside test code taint their function; taint propagates
//!   caller-ward over the call graph; a public API of a dedup-decision
//!   crate that can reach a leaf is a finding. A leaf suppressed with
//!   `allow(panic-path)` — or `allow(unwrap-in-lib)` for
//!   `unwrap`/`expect`, whose justification already asserts the
//!   can't-panic invariant — stops tainting.
//! - **L7 `discarded-fallibility`** — `ObjectBackend::{put,get,delete}`
//!   definitions seed a "storage-fallible" set that grows through
//!   `Result`-returning callers; at every call site of a
//!   storage-fallible function the `Result` must be propagated
//!   (`?`/`return`/tail), matched, or bound — error-dropping adapters
//!   (`.ok()`, `.unwrap_or*`, `.map_or*`) and `if let Ok(..)` launder
//!   storage errors and are findings. Because `get`/`put`/`delete` are
//!   common method names, unqualified method calls only seed from
//!   receivers named like a backend handle (`BACKEND_RECEIVERS`).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lexer::{Tok, TokKind};
use crate::report::{Diagnostic, GraphStats};
use crate::rules::{ident_of, punct_is, Directive, FileClass, DEDUP_DECISION_CRATES};

/// Receiver identifiers that mark an unqualified `.put/.get/.delete`
/// method call as a storage call for L7 seeding. Field names, not
/// types: the lexer cannot see types, and the workspace's backend
/// handles are consistently named.
const BACKEND_RECEIVERS: &[&str] =
    &["backend", "store", "cloud", "object_store", "objects", "remote"];

/// Storage trait whose `put`/`get`/`delete` seed the L7 root set.
const STORAGE_TRAIT: &str = "ObjectBackend";
const STORAGE_METHODS: &[&str] = &["put", "get", "delete"];

/// Macros that unconditionally or conditionally panic in release code.
const PANIC_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Keywords that look like `ident (` but are not calls.
const NOT_CALLS: &[&str] = &[
    "if", "else", "while", "for", "in", "match", "return", "break", "continue", "loop", "let",
    "fn", "impl", "dyn", "as", "ref", "mut", "move", "box", "where", "const", "static", "enum",
    "struct", "trait", "type", "mod", "crate", "super", "use", "pub", "unsafe", "extern",
];

/// One file, pre-lexed by the workspace walker.
pub(crate) struct FileInput {
    pub rel: String,
    pub class: FileClass,
    pub toks: Vec<Tok>,
    pub test_ranges: Vec<(u32, u32)>,
}

/// How a call site consumes the callee's return value (only meaningful
/// when the callee returns `Result`).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Consume {
    /// `?`, `return`, tail expression, `match`, `if let Err`, a named
    /// `let` binding, or a bool check — the error is observable.
    Handled,
    /// Bare expression statement: the `Result` evaporates.
    Discard,
    /// `if let Ok(..) =`: the `Err` arm is silently dropped.
    IfLetOk,
    /// `.ok()` / `.unwrap_or*` / `.map_or*`: the error is destroyed in
    /// the chain. Carries the adapter name.
    Launder(String),
}

struct Call {
    name: String,
    /// `Type::name(..)` qualifier, with `Self` resolved to the impl type.
    qual: Option<String>,
    /// For `a.b.name(..)`: `b`. `None` for free calls and chained
    /// receivers (`f().name(..)`).
    recv: Option<String>,
    method: bool,
    args: usize,
    line: u32,
    consume: Consume,
    /// (lock field, acquisition line) of guards live at the call.
    held: Vec<(String, u32)>,
}

struct Leaf {
    line: u32,
    kind: &'static str,
}

struct LockAcq {
    lock: String,
    line: u32,
    held: Vec<(String, u32)>,
}

struct FnDef {
    file: usize,
    crate_name: String,
    line: u32,
    name: String,
    /// Enclosing `impl Type`/`trait Name` context.
    impl_ctx: Option<String>,
    /// `impl Trait for Type` → the trait name.
    trait_impl: Option<String>,
    arity: usize,
    has_self: bool,
    is_pub: bool,
    returns_result: bool,
    in_test: bool,
    calls: Vec<Call>,
    leaves: Vec<Leaf>,
    lock_acqs: Vec<LockAcq>,
}

/// Declared crate-dependency closure, parsed from `Cargo.toml`s.
/// `None` for a crate means "no manifest found": it sees everything.
pub(crate) struct CrateDeps {
    vis: BTreeMap<String, Option<BTreeSet<String>>>,
}

impl CrateDeps {
    /// Reads `crates/<dir>/Cargo.toml` (and the root manifest for the
    /// root package) for every crate dir seen in the scan. Parsing is a
    /// line scanner: `name = "..."` under `[package]` and the key of
    /// every `[*dependencies]` entry. Unknown packages are ignored.
    pub(crate) fn load(root: &Path, crate_dirs: &BTreeSet<String>) -> Self {
        let mut pkg_to_dir: BTreeMap<String, String> = BTreeMap::new();
        let mut direct: BTreeMap<String, Option<BTreeSet<String>>> = BTreeMap::new();
        let mut raw: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for dir in crate_dirs {
            let manifest = if dir == "aa-dedupe" {
                root.join("Cargo.toml")
            } else {
                root.join("crates").join(dir).join("Cargo.toml")
            };
            match std::fs::read_to_string(&manifest) {
                Ok(text) => {
                    let (pkg, deps) = parse_manifest(&text);
                    if let Some(pkg) = pkg {
                        pkg_to_dir.insert(pkg, dir.clone());
                    }
                    raw.insert(dir.clone(), deps);
                }
                Err(_) => {
                    direct.insert(dir.clone(), None);
                }
            }
        }
        for (dir, deps) in &raw {
            let set: BTreeSet<String> =
                deps.iter().filter_map(|d| pkg_to_dir.get(d).cloned()).collect();
            direct.insert(dir.clone(), Some(set));
        }
        // Transitive closure over the declared edges.
        let mut vis = direct.clone();
        loop {
            let mut changed = false;
            let keys: Vec<String> = vis.keys().cloned().collect();
            for k in keys {
                let Some(Some(deps)) = vis.get(&k).cloned() else { continue };
                let mut grown = deps.clone();
                for d in &deps {
                    if let Some(Some(dd)) = vis.get(d) {
                        grown.extend(dd.iter().cloned());
                    }
                }
                if grown.len() != deps.len() {
                    changed = true;
                    vis.insert(k, Some(grown));
                }
            }
            if !changed {
                break;
            }
        }
        CrateDeps { vis }
    }

    /// May code in crate `from` call code in crate `to`?
    fn visible(&self, from: &str, to: &str) -> bool {
        if from == to {
            return true;
        }
        match self.vis.get(from) {
            Some(Some(deps)) => deps.contains(to),
            // No manifest (fixture crates): conservatively everything.
            _ => true,
        }
    }
}

/// Extracts the `[package] name` and all dependency keys from a
/// Cargo.toml text.
fn parse_manifest(text: &str) -> (Option<String>, Vec<String>) {
    let mut section = String::new();
    let mut pkg = None;
    let mut deps = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if section == "package" {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    pkg = Some(v.trim().trim_matches('"').to_string());
                }
            }
        } else if section.ends_with("dependencies") && !section.ends_with("dev-dependencies") {
            // dev-dependencies are visible only to test code, which is
            // never a caller in the graph — counting them would let lib
            // code "reach" crates it cannot link against.
            if let Some((key, _)) = line.split_once(['=', '.']) {
                let key = key.trim();
                if !key.is_empty() && key.chars().all(|c| c.is_alphanumeric() || c == '-' || c == '_') {
                    deps.push(key.to_string());
                }
            }
        }
    }
    (pkg, deps)
}

/// Runs the interprocedural rules over the pre-lexed workspace.
/// Marks leaf-suppressing directives used via `dirs` (keyed by file
/// rel path) and returns (diagnostics, graph statistics).
pub(crate) fn interprocedural(
    files: &[FileInput],
    root: &Path,
    dirs: &mut BTreeMap<String, Vec<Directive>>,
) -> (Vec<Diagnostic>, GraphStats) {
    let crate_dirs: BTreeSet<String> =
        files.iter().map(|f| f.class.crate_name.clone()).collect();
    let deps = CrateDeps::load(root, &crate_dirs);

    let mut defs: Vec<FnDef> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        extract_defs(fi, f, &mut defs);
    }

    // Drop leaves whose site carries an applicable allow. An
    // `unwrap-in-lib` allow also neutralizes an unwrap/expect leaf: its
    // justification asserts the can't-panic invariant, and it is
    // already marked used by the file-local pass.
    for d in &mut defs {
        let rel = &files[d.file].rel;
        d.leaves.retain(|leaf| {
            if let Some(list) = dirs.get_mut(rel) {
                for dir in list.iter_mut() {
                    if dir.target_line != leaf.line {
                        continue;
                    }
                    if dir.rule == "panic-path" {
                        dir.used = true;
                        return false;
                    }
                    if dir.rule == "unwrap-in-lib" && (leaf.kind == "unwrap" || leaf.kind == "expect")
                    {
                        return false;
                    }
                }
            }
            true
        });
    }

    if std::env::var_os("AALINT_DUMP_LEAVES").is_some() {
        for d in &defs {
            if d.in_test {
                continue;
            }
            for leaf in &d.leaves {
                eprintln!("LEAF {}:{} {} in {}", files[d.file].rel, leaf.line, leaf.kind, d.name);
            }
        }
    }

    // Name index over non-test definitions (test fns are never
    // resolution targets).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in defs.iter().enumerate() {
        if !d.in_test {
            by_name.entry(&d.name).or_default().push(i);
        }
    }

    // Forward edges, deterministic and deduplicated.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); defs.len()];
    let mut edge_count = 0usize;
    for i in 0..defs.len() {
        let mut targets = BTreeSet::new();
        for c in &defs[i].calls {
            for t in resolve(&defs, &by_name, &deps, &defs[i], c) {
                targets.insert(t);
            }
        }
        edge_count += targets.len();
        edges[i] = targets.into_iter().collect();
    }
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); defs.len()];
    for (i, ts) in edges.iter().enumerate() {
        for &t in ts {
            rev[t].push(i);
        }
    }

    let mut diags = Vec::new();
    let tainted = rule_panic_path(files, &defs, &rev, dirs, &mut diags);
    rule_lock_order(files, &defs, &edges, &by_name, &deps, dirs, &mut diags);
    rule_discarded_fallibility(files, &defs, &by_name, &deps, dirs, &mut diags);

    let stats = GraphStats { nodes: defs.len(), edges: edge_count, panic_tainted: tainted };
    (diags, stats)
}

/// Resolves one call site to candidate definition ids: name + arity,
/// bounded by crate visibility, never into test code.
fn resolve(
    defs: &[FnDef],
    by_name: &BTreeMap<&str, Vec<usize>>,
    deps: &CrateDeps,
    caller: &FnDef,
    c: &Call,
) -> Vec<usize> {
    let Some(cands) = by_name.get(c.name.as_str()) else { return Vec::new() };
    let mut out = Vec::new();
    for &i in cands {
        let d = &defs[i];
        if !deps.visible(&caller.crate_name, &d.crate_name) {
            continue;
        }
        let arity_ok = if c.qual.is_some() {
            // `Type::m(recv, ..)` may pass self positionally.
            c.args == d.arity || (d.has_self && c.args == d.arity + 1)
        } else if c.method {
            d.has_self && c.args == d.arity
        } else {
            !d.has_self && c.args == d.arity
        };
        if !arity_ok {
            continue;
        }
        if let Some(q) = &c.qual {
            // Qualified calls must match the impl/trait context when
            // one exists; module-qualified free fns match by name.
            if let Some(ctx) = &d.impl_ctx {
                if ctx != q && d.trait_impl.as_deref() != Some(q.as_str()) {
                    continue;
                }
            }
        }
        out.push(i);
    }
    out
}

/// L6: propagate may-panic taint caller-ward; report public APIs of
/// dedup-decision crates that can reach a leaf. Returns the number of
/// tainted functions (for the report's graph stats).
fn rule_panic_path(
    files: &[FileInput],
    defs: &[FnDef],
    rev: &[Vec<usize>],
    dirs: &mut BTreeMap<String, Vec<Directive>>,
    diags: &mut Vec<Diagnostic>,
) -> usize {
    // taint[i] = (via, leaf index) where via == i for a fn with its own
    // leaf; BFS gives shortest witness paths deterministically.
    let mut taint: Vec<Option<usize>> = vec![None; defs.len()];
    let mut queue: Vec<usize> = Vec::new();
    for (i, d) in defs.iter().enumerate() {
        if !d.leaves.is_empty() && !d.in_test {
            taint[i] = Some(i);
            queue.push(i);
        }
    }
    let mut head = 0usize;
    while head < queue.len() {
        let cur = queue[head];
        head += 1;
        for &caller in &rev[cur] {
            if taint[caller].is_none() && !defs[caller].in_test {
                taint[caller] = Some(cur);
                queue.push(caller);
            }
        }
    }
    let tainted_count = taint.iter().filter(|t| t.is_some()).count();

    for (i, d) in defs.iter().enumerate() {
        if taint[i].is_none()
            || !d.is_pub
            || d.in_test
            || files[d.file].class.test_path
            || files[d.file].class.bin_path
            || !DEDUP_DECISION_CRATES.contains(&d.crate_name.as_str())
        {
            continue;
        }
        // Reconstruct the witness path down to the leaf holder.
        let mut path = vec![i];
        let mut cur = i;
        while let Some(next) = taint[cur] {
            if next == cur {
                break;
            }
            path.push(next);
            cur = next;
        }
        let holder = &defs[cur];
        let Some(leaf) = holder.leaves.iter().min_by_key(|l| l.line) else { continue };
        let rel = &files[d.file].rel;
        if consume_allow(dirs, rel, d.line, "panic-path") {
            continue;
        }
        let chain: Vec<String> = path
            .iter()
            .map(|&p| {
                let pd = &defs[p];
                match &pd.impl_ctx {
                    Some(c) => format!("{}::{}", c, pd.name),
                    None => pd.name.clone(),
                }
            })
            .collect();
        diags.push(Diagnostic {
            rule: "panic-path",
            file: rel.clone(),
            line: d.line,
            message: format!(
                "public `{}` can reach a panic: {} (`{}` at {}:{}) (L6); make the path \
                 fallible, prove the site can't fire and annotate the leaf, or justify here \
                 with `// aalint: allow(panic-path) -- <why>`",
                d.name,
                chain.join(" -> "),
                leaf.kind,
                files[holder.file].rel,
                leaf.line
            ),
        });
    }
    tainted_count
}

/// A lock: (crate, lock field).
type LockNode = (String, String);
/// A source site: (file, line).
type Site = (String, u32);
/// held → acquired, with one representative site pair (where the held
/// lock was taken, where the inner one was).
type LockGraph = BTreeMap<LockNode, BTreeMap<LockNode, (Site, Site)>>;

/// L5: aggregate acquired-while-holding edges workspace-wide and report
/// lock-order cycles.
#[allow(clippy::too_many_arguments)]
fn rule_lock_order(
    files: &[FileInput],
    defs: &[FnDef],
    edges: &[Vec<usize>],
    by_name: &BTreeMap<&str, Vec<usize>>,
    deps: &CrateDeps,
    dirs: &mut BTreeMap<String, Vec<Directive>>,
    diags: &mut Vec<Diagnostic>,
) {
    // Transitive lock set per fn: lock node -> representative site.
    let mut owned: Vec<BTreeMap<LockNode, Site>> = vec![BTreeMap::new(); defs.len()];
    for (i, d) in defs.iter().enumerate() {
        for a in &d.lock_acqs {
            owned[i]
                .entry((d.crate_name.clone(), a.lock.clone()))
                .or_insert_with(|| (files[d.file].rel.clone(), a.line));
        }
    }
    loop {
        let mut changed = false;
        for i in 0..defs.len() {
            for &t in &edges[i] {
                if t == i {
                    continue;
                }
                let add: Vec<_> = owned[t]
                    .iter()
                    .filter(|(k, _)| !owned[i].contains_key(*k))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                if !add.is_empty() {
                    changed = true;
                    owned[i].extend(add);
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut graph: LockGraph = BTreeMap::new();
    let mut add_edge = |from: LockNode, to: LockNode, ha: Site, aa: Site| {
        if from == to {
            return; // re-acquisition of one field is out of scope here
        }
        graph.entry(from).or_default().entry(to).or_insert((ha, aa));
    };
    for (i, d) in defs.iter().enumerate() {
        if d.in_test {
            continue;
        }
        let rel = &files[d.file].rel;
        let krate = &d.crate_name;
        for a in &d.lock_acqs {
            for (h, hline) in &a.held {
                add_edge(
                    (krate.clone(), h.clone()),
                    (krate.clone(), a.lock.clone()),
                    (rel.clone(), *hline),
                    (rel.clone(), a.line),
                );
            }
        }
        for c in &d.calls {
            if c.held.is_empty() {
                continue;
            }
            // Resolve *this* call site only: using the fn's whole edge
            // set here would charge every callee's locks to every held
            // call, and self-recursive resolution would fabricate
            // cycles out of a single fn's sequential acquisitions.
            for t in resolve(defs, by_name, deps, d, c) {
                if t == i {
                    continue;
                }
                // Locks the callee may transitively take.
                for (node, site) in &owned[t] {
                    for (h, hline) in &c.held {
                        add_edge(
                            (krate.clone(), h.clone()),
                            node.clone(),
                            (rel.clone(), *hline),
                            site.clone(),
                        );
                    }
                }
            }
        }
    }

    // Shortest cycle through each node, deduplicated by node set.
    let mut seen: BTreeSet<Vec<LockNode>> = BTreeSet::new();
    let nodes: Vec<LockNode> = graph.keys().cloned().collect();
    for start in &nodes {
        let Some(cycle) = shortest_cycle(&graph, start) else { continue };
        let mut key: Vec<LockNode> = cycle.clone();
        key.sort();
        if !seen.insert(key) {
            continue;
        }
        // Materialize the edge list with sites.
        let mut legs = Vec::new();
        for w in 0..cycle.len() {
            let from = &cycle[w];
            let to = &cycle[(w + 1) % cycle.len()];
            let (ha, aa) = graph[from][to].clone();
            legs.push((from.clone(), to.clone(), ha, aa));
        }
        // An allow on any acquisition site of the cycle suppresses it.
        let suppressed = legs.iter().any(|(_, _, ha, aa)| {
            consume_allow(dirs, &ha.0, ha.1, "lock-order-cycle")
                || consume_allow(dirs, &aa.0, aa.1, "lock-order-cycle")
        });
        if suppressed {
            continue;
        }
        let desc: Vec<String> = legs
            .iter()
            .map(|((fc, fl), (tc, tl), ha, aa)| {
                format!(
                    "{fc}::{fl} (held at {}:{}) -> {tc}::{tl} (acquired at {}:{})",
                    ha.0, ha.1, aa.0, aa.1
                )
            })
            .collect();
        let anchor = &legs[0].3;
        diags.push(Diagnostic {
            rule: "lock-order-cycle",
            file: anchor.0.clone(),
            line: anchor.1,
            message: format!(
                "lock-order cycle: {} (L5); a concurrent interleaving can deadlock — impose \
                 one acquisition order, or justify with \
                 `// aalint: allow(lock-order-cycle) -- <why>`",
                desc.join("; ")
            ),
        });
    }
}

/// BFS for the shortest path start → ... → start in the lock graph.
fn shortest_cycle(graph: &LockGraph, start: &LockNode) -> Option<Vec<LockNode>> {
    let mut prev: BTreeMap<LockNode, LockNode> = BTreeMap::new();
    let mut queue = vec![start.clone()];
    let mut head = 0;
    while head < queue.len() {
        let cur = queue[head].clone();
        head += 1;
        let Some(outs) = graph.get(&cur) else { continue };
        for next in outs.keys() {
            if next == start {
                // Unwind cur back to start.
                let mut path = vec![cur.clone()];
                let mut p = cur.clone();
                while &p != start {
                    p = prev[&p].clone();
                    path.push(p.clone());
                }
                path.reverse();
                return Some(path);
            }
            if !prev.contains_key(next) && next != &cur {
                prev.insert(next.clone(), cur.clone());
                queue.push(next.clone());
            }
        }
    }
    None
}

/// L7: storage errors must stay propagatable from
/// `ObjectBackend::{put,get,delete}` all the way up.
fn rule_discarded_fallibility(
    files: &[FileInput],
    defs: &[FnDef],
    by_name: &BTreeMap<&str, Vec<usize>>,
    deps: &CrateDeps,
    dirs: &mut BTreeMap<String, Vec<Directive>>,
    diags: &mut Vec<Diagnostic>,
) {
    // Roots: the trait's own method declarations plus every impl.
    let mut fallible: Vec<bool> = defs
        .iter()
        .map(|d| {
            STORAGE_METHODS.contains(&d.name.as_str())
                && (d.impl_ctx.as_deref() == Some(STORAGE_TRAIT)
                    || d.trait_impl.as_deref() == Some(STORAGE_TRAIT))
        })
        .collect();

    // A call participates in L7 only when it can be tied to storage:
    // non-root names resolve normally; the ambiguous root names
    // (`get` on a HashMap…) additionally need a backend-shaped
    // receiver or an explicit qualifier.
    let storage_call = |caller: &FnDef, c: &Call, fallible: &[bool]| -> bool {
        if STORAGE_METHODS.contains(&c.name.as_str()) && c.method && c.qual.is_none() {
            match &c.recv {
                Some(r) if BACKEND_RECEIVERS.contains(&r.as_str()) => {}
                _ => return false,
            }
        }
        resolve(defs, by_name, deps, caller, c).iter().any(|&t| fallible[t])
    };

    // Grow the fallible set through Result-returning callers.
    loop {
        let mut changed = false;
        for i in 0..defs.len() {
            if fallible[i] || !defs[i].returns_result || defs[i].in_test {
                continue;
            }
            if defs[i].calls.iter().any(|c| storage_call(&defs[i], c, &fallible)) {
                fallible[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for d in defs {
        if d.in_test || files[d.file].class.test_path {
            continue;
        }
        let rel = &files[d.file].rel;
        for c in &d.calls {
            if !storage_call(d, c, &fallible) {
                continue;
            }
            let problem = match &c.consume {
                Consume::Handled => continue,
                Consume::Discard => "the `Result` is discarded".to_string(),
                Consume::IfLetOk => {
                    "`if let Ok(..)` silently drops the error arm".to_string()
                }
                Consume::Launder(adapter) => {
                    format!("`.{adapter}(..)` destroys the error")
                }
            };
            if consume_allow(dirs, rel, c.line, "discarded-fallibility") {
                continue;
            }
            diags.push(Diagnostic {
                rule: "discarded-fallibility",
                file: rel.clone(),
                line: c.line,
                message: format!(
                    "call to storage-fallible `{}` but {} (L7); propagate the `Result` \
                     (`?`, return it, or match both arms), or justify with \
                     `// aalint: allow(discarded-fallibility) -- <why>`",
                    c.name, problem
                ),
            });
        }
    }
}

/// Marks a matching directive used and reports whether one existed.
fn consume_allow(
    dirs: &mut BTreeMap<String, Vec<Directive>>,
    rel: &str,
    line: u32,
    rule: &str,
) -> bool {
    if let Some(list) = dirs.get_mut(rel) {
        for d in list.iter_mut() {
            if d.rule == rule && d.target_line == line {
                d.used = true;
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Definition extraction and body analysis
// ---------------------------------------------------------------------

/// impl/trait context regions: (start token, end token, type/trait
/// name, trait name for `impl Trait for Type`).
fn impl_regions(toks: &[Tok]) -> Vec<(usize, usize, String, Option<String>)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let kw = ident_of(&toks[i]);
        if kw != Some("impl") && kw != Some("trait") {
            i += 1;
            continue;
        }
        let is_trait_decl = kw == Some("trait");
        // Collect path idents (outside generics) until the body `{`.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut names: Vec<String> = Vec::new();
        let mut for_at: Option<usize> = None;
        let mut found_open = None;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle -= 1,
                TokKind::Punct('{') if angle <= 0 => {
                    found_open = Some(j);
                    break;
                }
                TokKind::Punct(';') if angle <= 0 => break,
                TokKind::Ident(s) if angle <= 0 => {
                    if s == "for" {
                        for_at = Some(names.len());
                    } else if s == "where" {
                        // stop collecting names; still seek the `{`
                    } else {
                        names.push(s.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = found_open else {
            i = j + 1;
            continue;
        };
        let (_, after) = balanced_brace(toks, open);
        let (ctx, trait_name) = if is_trait_decl {
            (names.first().cloned().unwrap_or_default(), None)
        } else if let Some(split) = for_at {
            // `impl Trait for Type`: context is the concrete type.
            let t = names.get(split..).and_then(|s| s.last()).cloned().unwrap_or_default();
            let tr = names.get(..split).and_then(|s| s.last()).cloned();
            (t, tr)
        } else {
            (names.last().cloned().unwrap_or_default(), None)
        };
        if !ctx.is_empty() {
            out.push((open, after, ctx, trait_name));
        }
        i = open + 1; // descend: nested impls inside fns still register
    }
    out
}

/// Balanced `{}` starting at `open` (which holds `{`): returns
/// (close index, index after close).
fn balanced_brace(toks: &[Tok], open: usize) -> (usize, usize) {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return (i, i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    (toks.len().saturating_sub(1), toks.len())
}

/// Finds every `fn` definition in one file and analyzes its body.
fn extract_defs(file_idx: usize, f: &FileInput, defs: &mut Vec<FnDef>) {
    let toks = &f.toks;
    let regions = impl_regions(toks);
    let in_test = |line: u32| {
        f.class.test_path || f.test_ranges.iter().any(|&(a, b)| line >= a && line <= b)
    };

    // Pass 1: signatures and body ranges.
    struct Sig {
        kw: usize,
        line: u32,
        name: String,
        impl_ctx: Option<String>,
        trait_impl: Option<String>,
        arity: usize,
        has_self: bool,
        is_pub: bool,
        returns_result: bool,
        body: Option<(usize, usize)>,
    }
    let mut sigs: Vec<Sig> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !matches!(ident_of(&toks[i]), Some("fn")) {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(ident_of) else {
            i += 1;
            continue;
        };
        let mut j = i + 2;
        // Skip generic params.
        if toks.get(j).is_some_and(|t| punct_is(t, '<')) {
            let mut angle = 0i32;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if !toks.get(j).is_some_and(|t| punct_is(t, '(')) {
            i += 1;
            continue;
        }
        let (params_start, mut depth, mut k) = (j + 1, 1i32, j + 1);
        while k < toks.len() && depth > 0 {
            match &toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        let params = &toks[params_start..k.saturating_sub(1)];
        let (arity, has_self) = param_shape(params);
        // Return type & body/semicolon.
        let mut returns_result = false;
        let mut m = k;
        let mut body = None;
        while m < toks.len() {
            match &toks[m].kind {
                TokKind::Punct('{') => {
                    let (close, _) = balanced_brace(toks, m);
                    body = Some((m, close));
                    break;
                }
                TokKind::Punct(';') => break,
                TokKind::Ident(s) if s == "Result" => returns_result = true,
                _ => {}
            }
            m += 1;
        }
        // Visibility: back-scan over fn qualifiers.
        let mut p = i;
        let mut is_pub = false;
        while p > 0 {
            p -= 1;
            match &toks[p].kind {
                TokKind::Ident(s)
                    if matches!(s.as_str(), "const" | "unsafe" | "extern" | "async") => {}
                TokKind::Lit => {} // extern "C"
                TokKind::Punct(')') => {
                    // `pub(crate)` and friends: restricted, not public.
                    break;
                }
                TokKind::Ident(s) if s == "pub" => {
                    is_pub = true;
                    break;
                }
                _ => break,
            }
        }
        let region = regions.iter().rfind(|(s, e, _, _)| *s < i && i < *e);
        sigs.push(Sig {
            kw: i,
            line: toks[i].line,
            name: name.to_string(),
            impl_ctx: region.map(|(_, _, c, _)| c.clone()),
            trait_impl: region.and_then(|(_, _, _, t)| t.clone()),
            arity,
            has_self,
            is_pub,
            returns_result,
            body,
        });
        i = match body {
            Some((open, _)) => open + 1, // descend into the body (nested fns)
            None => m + 1,
        };
    }

    // Nested fn spans to skip while analyzing an enclosing body.
    let spans: Vec<(usize, usize)> = sigs
        .iter()
        .filter_map(|s| s.body.map(|(_, close)| (s.kw, close)))
        .collect();

    for s in sigs {
        let mut def = FnDef {
            file: file_idx,
            crate_name: f.class.crate_name.clone(),
            line: s.line,
            name: s.name,
            impl_ctx: s.impl_ctx,
            trait_impl: s.trait_impl,
            arity: s.arity,
            has_self: s.has_self,
            is_pub: s.is_pub,
            returns_result: s.returns_result,
            in_test: in_test(s.line),
            calls: Vec::new(),
            leaves: Vec::new(),
            lock_acqs: Vec::new(),
        };
        if let Some((open, close)) = s.body {
            analyze_body(toks, open, close, s.kw, &spans, &mut def);
        }
        defs.push(def);
    }
}

/// (arity excluding self, has self receiver) from a param token slice.
fn param_shape(params: &[Tok]) -> (usize, bool) {
    if params.is_empty() {
        return (0, false);
    }
    let mut depth = 0i32;
    let mut segments = 1usize;
    let mut last_was_comma = false;
    for t in params {
        match &t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') | TokKind::Punct('<') => {
                depth += 1;
                last_was_comma = false;
            }
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') | TokKind::Punct('>') => {
                depth -= 1;
                last_was_comma = false;
            }
            TokKind::Punct(',') if depth == 0 => {
                segments += 1;
                last_was_comma = true;
            }
            _ => last_was_comma = false,
        }
    }
    if last_was_comma {
        segments -= 1; // trailing comma
    }
    // Self receiver: an ident `self` in the first segment.
    let mut has_self = false;
    let mut d = 0i32;
    for t in params {
        match &t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => d += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => d -= 1,
            TokKind::Punct(',') if d == 0 => break,
            TokKind::Ident(s) if s == "self" => {
                has_self = true;
                break;
            }
            _ => {}
        }
    }
    (segments.saturating_sub(usize::from(has_self)), has_self)
}

/// Walks one fn body: calls (with consumption + held locks), panic
/// leaves, and lock acquisitions with the held-set at each.
fn analyze_body(
    toks: &[Tok],
    open: usize,
    close: usize,
    own_kw: usize,
    nested: &[(usize, usize)],
    def: &mut FnDef,
) {
    struct Guard {
        binding: String,
        lock: String,
        line: u32,
        depth: i32,
    }
    let mut guards: Vec<Guard> = Vec::new();
    // Statement temporaries: (lock, line, depth at creation).
    let mut temps: Vec<(String, u32, i32)> = Vec::new();
    let mut depth = 0i32;

    let held_now = |guards: &[Guard], temps: &[(String, u32, i32)]| -> Vec<(String, u32)> {
        let mut held: Vec<(String, u32)> =
            guards.iter().map(|g| (g.lock.clone(), g.line)).collect();
        held.extend(temps.iter().map(|(l, ln, _)| (l.clone(), *ln)));
        held
    };

    let mut i = open;
    while i <= close {
        // Carve out nested fn items.
        if let Some(&(_, end)) = nested.iter().find(|&&(kw, _)| kw == i && kw != own_kw) {
            i = end + 1;
            continue;
        }
        match &toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                temps.retain(|(_, _, d)| *d <= depth);
            }
            TokKind::Punct(';') => {
                temps.retain(|(_, _, d)| *d < depth);
            }
            TokKind::Punct('[') => {
                let indexing = i > open
                    && match &toks[i - 1].kind {
                        TokKind::Ident(s) => !NOT_CALLS.contains(&s.as_str()) && s != "_",
                        TokKind::Punct(')') | TokKind::Punct(']') => true,
                        _ => false,
                    };
                if indexing {
                    let (inner, _) = balanced_sq(toks, i);
                    let non_literal =
                        inner.iter().any(|t| matches!(&t.kind, TokKind::Ident(_)));
                    if !inner.is_empty() && non_literal {
                        def.leaves.push(Leaf { line: toks[i].line, kind: "index" });
                    }
                }
            }
            TokKind::Ident(kw) if kw == "let" => {
                // Track tail-position `.lock()` bindings as live guards
                // (same discipline as blocking-under-lock).
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| matches!(ident_of(t), Some("mut"))) {
                    j += 1;
                }
                if let (Some(name), true) = (
                    toks.get(j).and_then(ident_of),
                    toks.get(j + 1).is_some_and(|t| punct_is(t, '=')),
                ) {
                    let mut k = j + 2;
                    let mut d = 0i32;
                    let mut lock_tail: Option<(String, u32)> = None;
                    while k < toks.len() {
                        match &toks[k].kind {
                            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                                d += 1;
                            }
                            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                                d -= 1;
                            }
                            TokKind::Punct(';') if d <= 0 => break,
                            TokKind::Ident(m) if k >= 1 && punct_is(&toks[k - 1], '.') => {
                                if m == "lock"
                                    && toks.get(k + 1).is_some_and(|t| punct_is(t, '('))
                                {
                                    lock_tail =
                                        Some((lock_name(toks, k), toks[k].line));
                                } else if !matches!(
                                    m.as_str(),
                                    "unwrap" | "expect" | "unwrap_or_else" | "into_inner"
                                ) {
                                    lock_tail = None;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    guards.retain(|g| g.binding != *name);
                    if let Some((lock, line)) = lock_tail {
                        guards.push(Guard {
                            binding: name.to_string(),
                            lock,
                            line,
                            depth,
                        });
                    }
                    // fall through: the initializer is re-scanned for
                    // calls/locks/leaves from j+2 onward.
                    i = j + 2;
                    continue;
                }
            }
            TokKind::Ident(kw)
                if kw == "drop"
                    && toks.get(i + 1).is_some_and(|t| punct_is(t, '('))
                    && toks.get(i + 3).is_some_and(|t| punct_is(t, ')')) =>
            {
                if let Some(name) = toks.get(i + 2).and_then(ident_of) {
                    guards.retain(|g| g.binding != name);
                }
            }
            TokKind::Ident(name) => {
                let next_open = toks.get(i + 1).is_some_and(|t| punct_is(t, '('));
                let is_macro = toks.get(i + 1).is_some_and(|t| punct_is(t, '!'));
                if is_macro && PANIC_MACROS.contains(&name.as_str()) {
                    def.leaves.push(Leaf {
                        line: toks[i].line,
                        kind: match name.as_str() {
                            "panic" => "panic!",
                            "assert" | "assert_eq" | "assert_ne" => "assert!",
                            "unreachable" => "unreachable!",
                            _ => "todo!",
                        },
                    });
                } else if next_open && !NOT_CALLS.contains(&name.as_str()) {
                    let method = i > 0 && punct_is(&toks[i - 1], '.');
                    if method && (name == "lock" || name == "try_lock") {
                        // `.lock()` anywhere: an acquisition. Tail
                        // bindings are handled by the `let` arm; every
                        // occurrence also records the edge source and a
                        // statement-scoped temporary.
                        let lname = lock_name(toks, i);
                        def.lock_acqs.push(LockAcq {
                            lock: lname.clone(),
                            line: toks[i].line,
                            held: held_now(&guards, &temps),
                        });
                        temps.push((lname, toks[i].line, depth));
                    } else {
                        if method && (name == "unwrap" || name == "expect") {
                            def.leaves.push(Leaf {
                                line: toks[i].line,
                                kind: if name == "unwrap" { "unwrap" } else { "expect" },
                            });
                        }
                        let qual = if !method
                            && i >= 2
                            && punct_is(&toks[i - 1], ':')
                            && punct_is(&toks[i - 2], ':')
                        {
                            toks.get(i.wrapping_sub(3)).and_then(ident_of).map(|q| {
                                if q == "Self" {
                                    def.impl_ctx.clone().unwrap_or_else(|| q.to_string())
                                } else {
                                    q.to_string()
                                }
                            })
                        } else {
                            None
                        };
                        let recv = if method && i >= 2 {
                            ident_of(&toks[i - 2]).map(str::to_string)
                        } else {
                            None
                        };
                        let (args, close_paren) = count_args(toks, i + 1);
                        let consume = classify_consume(toks, open, close, i, close_paren);
                        def.calls.push(Call {
                            name: name.clone(),
                            qual,
                            recv,
                            method,
                            args,
                            line: toks[i].line,
                            consume,
                            held: held_now(&guards, &temps),
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// The lock field name for a `.lock()` at token `k` (`k` holds `lock`):
/// the ident two tokens back (`state.lock()` → `state`).
fn lock_name(toks: &[Tok], k: usize) -> String {
    if k >= 2 {
        if let Some(n) = ident_of(&toks[k - 2]) {
            return n.to_string();
        }
    }
    "<expr>".to_string()
}

/// Inner tokens of a balanced `[..]` at `open`.
fn balanced_sq(toks: &[Tok], open: usize) -> (&[Tok], usize) {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (&toks[open + 1..i], i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    (&toks[open..open], toks.len())
}

/// Argument count of the call whose `(` is at `popen`; returns
/// (args, index of the closing paren). Closure parameter pipes at the
/// top level are skipped so `f(|a, b| ..)` counts one argument.
fn count_args(toks: &[Tok], popen: usize) -> (usize, usize) {
    let mut depth = 0i32;
    let mut i = popen;
    let mut commas = 0usize;
    let mut any = false;
    let mut in_pipes = false;
    let mut prev_sig = ' ';
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    let args = if any { commas + 1 } else { 0 };
                    return (args, i);
                }
            }
            // Closure params start right after `(`/`,` (or `move`).
            TokKind::Punct('|')
                if depth == 1
                    && (in_pipes || prev_sig == '(' || prev_sig == ',' || prev_sig == 'm') =>
            {
                in_pipes = !in_pipes;
            }
            // Trailing commas don't add an argument.
            TokKind::Punct(',')
                if depth == 1
                    && !in_pipes
                    && !toks.get(i + 1).is_some_and(|t| punct_is(t, ')')) =>
            {
                commas += 1;
            }
            _ => {}
        }
        if i > popen && depth >= 1 {
            match &toks[i].kind {
                TokKind::Punct(c) if depth == 1 => prev_sig = *c,
                TokKind::Ident(s) if depth == 1 => {
                    prev_sig = if s == "move" { 'm' } else { 'i' };
                    any = true;
                }
                _ => {
                    if depth == 1 {
                        prev_sig = 'x';
                    }
                    any = true;
                }
            }
            if depth > 1 {
                any = true;
            }
        } else if i == popen {
            prev_sig = '(';
        }
        i += 1;
    }
    (if any { commas + 1 } else { 0 }, toks.len().saturating_sub(1))
}

/// How the statement around the call consumes its value.
fn classify_consume(
    toks: &[Tok],
    body_open: usize,
    body_close: usize,
    call_idx: usize,
    close_paren: usize,
) -> Consume {
    // Forward: follow the method chain from the closing paren.
    let mut i = close_paren + 1;
    loop {
        match toks.get(i).map(|t| &t.kind) {
            Some(TokKind::Punct('?')) => return Consume::Handled,
            Some(TokKind::Punct('.')) => {
                let Some(m) = toks.get(i + 1).and_then(ident_of) else { break };
                if matches!(
                    m,
                    "ok" | "unwrap_or"
                        | "unwrap_or_default"
                        | "unwrap_or_else"
                        | "map_or"
                        | "map_or_else"
                ) {
                    return Consume::Launder(m.to_string());
                }
                if matches!(m, "is_err" | "is_ok" | "err" | "expect" | "unwrap") {
                    // Bool checks observe the outcome; unwrap/expect are
                    // L1/L6 territory, not laundering.
                    return Consume::Handled;
                }
                // Other adapter (`map_err`, `and_then`…): skip its
                // argument list and keep walking the chain.
                if toks.get(i + 2).is_some_and(|t| punct_is(t, '(')) {
                    let (_, after) = count_args(toks, i + 2);
                    i = after + 1;
                    continue;
                }
                i += 2;
            }
            _ => break,
        }
    }

    // Backward: find the statement head.
    let mut j = call_idx;
    let mut sdepth = 0i32;
    while j > body_open {
        j -= 1;
        match &toks[j].kind {
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => sdepth += 1,
            TokKind::Punct('(') | TokKind::Punct('[') => {
                if sdepth == 0 {
                    break; // call is inside an argument list / condition
                }
                sdepth -= 1;
            }
            TokKind::Punct('{') => {
                if sdepth == 0 {
                    break;
                }
                sdepth -= 1;
            }
            TokKind::Punct(';') | TokKind::Punct(',') if sdepth == 0 => break,
            TokKind::Punct('=') if sdepth == 0 => {
                // `let x = call(..)` / `x = call(..)`: look further left
                // for the binder.
                let mut k = j;
                while k > body_open {
                    k -= 1;
                    match &toks[k].kind {
                        TokKind::Ident(s) if s == "let" => {
                            // `if let PAT =` / `while let PAT =`
                            let pat = toks.get(k + 1).and_then(ident_of);
                            if pat == Some("Ok") {
                                return Consume::IfLetOk;
                            }
                            let binds_underscore = pat == Some("_");
                            if binds_underscore {
                                return Consume::Discard;
                            }
                            return Consume::Handled;
                        }
                        TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => {
                            return Consume::Handled; // plain assignment
                        }
                        _ => {}
                    }
                }
                return Consume::Handled;
            }
            TokKind::Ident(s)
                if sdepth == 0
                    && matches!(s.as_str(), "return" | "match" | "break") =>
            {
                return Consume::Handled;
            }
            _ => {}
        }
    }
    if j <= body_open || punct_is(&toks[j], '{') || punct_is(&toks[j], ';') {
        // Statement position: either a bare discard (`call(..);`) or
        // the fn's tail expression (no `;` before the body close).
        let mut m = close_paren + 1;
        let mut fdepth = 0i32;
        while m <= body_close {
            match &toks[m].kind {
                TokKind::Punct('.') => {
                    // chain continues; forward pass already classified
                    return Consume::Handled;
                }
                TokKind::Punct(';') if fdepth == 0 => return Consume::Discard,
                TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => fdepth += 1,
                TokKind::Punct(']') | TokKind::Punct(')') => fdepth -= 1,
                TokKind::Punct('}') => {
                    if fdepth == 0 {
                        return Consume::Handled; // tail expression
                    }
                    fdepth -= 1;
                }
                _ => {}
            }
            m += 1;
        }
        return Consume::Handled;
    }
    // Inside a larger expression (argument, condition, binop…): the
    // value flows somewhere observable. Conservatively handled.
    Consume::Handled
}
