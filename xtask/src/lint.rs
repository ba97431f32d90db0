//! The concurrency & numeric-discipline lint pass (`cargo xtask lint`).
//!
//! A dependency-free, token-level analyzer (built on [`crate::lexer`])
//! that enforces repo-specific rules clippy cannot express. Five rule
//! families, deny-by-default:
//!
//! * **Atomics-ordering discipline** — `Ordering::{Relaxed, Acquire,
//!   Release, AcqRel, SeqCst}` may only appear in allowlisted modules
//!   ([`ATOMICS_MODULES`]) and every use must carry an adjacent
//!   `// ordering:` justification comment. Relaxed *stores* (the
//!   cross-thread publish idiom) are further restricted to the
//!   documented trace-ring protocol ([`RELAXED_PUBLISH_MODULES`];
//!   see DESIGN.md "trace-ring publish protocol").
//! * **Lock-order analysis** — every `.lock()` acquisition site is
//!   extracted per function, a static lock-acquisition graph is built
//!   across the workspace (including one level of call-graph
//!   propagation), and any cycle — a deadlock schedule waiting to
//!   happen — is denied.
//! * **Float-comparison discipline** — direct comparison operators with
//!   a float-literal operand and any `partial_cmp` use outside approved
//!   modules ([`FLOAT_CMP_MODULES`]) are denied: use `total_cmp` (the
//!   PR 4 signed-zero bug class) or justify with `// float-cmp:`.
//! * **Truncating-cast audit** — bare `as u32`/`as usize`-style
//!   narrowing in the `graph`/`core` hot paths (where u32 vertex/edge
//!   ids silently wrap past 2³²) must be `try_from` or carry a
//!   `// cast:` justification.
//! * **Bare-`thread::spawn` ban** — all thread creation goes through
//!   `parallel::pool`; `thread::spawn`/`thread::Builder` anywhere else
//!   is denied.
//!
//! Pre-existing, human-reviewed sites are pinned by the committed
//! ratchet file `xtask/lint.baseline`: the gate recomputes per-file
//! finding counts and fails on **any** drift — new findings *and* stale
//! pins — so the baseline always matches the tree. Regenerate with
//! `cargo xtask lint --update-baseline` (and review the diff). A single
//! site can alternatively be waived in place with a
//! `// lint: allow(<rule-id>) <reason>` comment on the same or the
//! preceding line. Every finding (pinned or not) is written to
//! `target/lint/findings.txt` so CI can upload the full picture.
//!
//! Test code (`#[cfg(test)]` regions, `tests/`, `benches/`,
//! `examples/`) is exempt, as are `vendor/` and `xtask` itself. The
//! rule catalog with examples lives in VERIFICATION.md.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token, TokenKind};

/// Modules allowed to use atomic memory orderings at all. Everything
/// else must go through these abstractions instead of rolling its own
/// atomics.
const ATOMICS_MODULES: &[&str] = &["core::telemetry::trace", "parallel::pool", "bench::alloc"];

/// Modules allowed to publish with `store(..., Ordering::Relaxed)` —
/// exactly the single-writer trace-ring protocol, where the relaxed
/// slot stores are ordered by the release store of the ring cursor.
const RELAXED_PUBLISH_MODULES: &[&str] = &["core::telemetry::trace"];

/// Modules where direct float comparison is the domain (quality scores,
/// generator weight ranges) and a literal-bound comparison is idiomatic.
const FLOAT_CMP_MODULES: &[&str] = &["core::evaluate", "graph::generate"];

/// Modules allowed to create OS threads.
const SPAWN_MODULES: &[&str] = &["parallel::pool"];

/// Cast targets the truncating-cast audit flags: every one of these can
/// silently drop bits on at least one supported platform.
const NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// The atomic-ordering variant names rule `atomics-*` matches after
/// `Ordering::`.
const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Comparison operators the float rule inspects.
const CMP_OPS: &[&str] = &["==", "!=", "<", ">", "<=", ">="];

/// Callee names excluded from lock-graph call propagation: ubiquitous
/// std/constructor names that would alias unrelated first-party
/// functions (e.g. every `Box::new` aliasing `WorkerPool::new`, whose
/// spawned worker loop locks on *another* thread). `lock` itself is
/// excluded because acquisition sites are already modeled directly.
const CALL_EXCLUSIONS: &[&str] =
    &["lock", "new", "default", "clone", "drop", "from", "into", "fmt"];

/// One lint finding at a source location.
#[derive(Clone, Debug)]
pub(crate) struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub(crate) file: String,
    /// 1-based line.
    pub(crate) line: usize,
    /// 1-based byte column.
    pub(crate) col: usize,
    /// Stable rule identifier (the baseline key).
    pub(crate) rule: &'static str,
    /// Human-readable explanation.
    pub(crate) message: String,
}

impl Finding {
    fn display(&self) -> String {
        format!("{}:{}:{}: [{}] {}", self.file, self.line, self.col, self.rule, self.message)
    }
}

/// A source position within one file.
#[derive(Clone, Copy, Debug)]
struct Site {
    line: usize,
    col: usize,
}

/// Lock-acquisition facts extracted from one file, later merged into
/// the workspace-wide lock graph.
#[derive(Default, Debug)]
struct LockFacts {
    /// `(fn name, lock class)` — direct acquisitions.
    direct: Vec<(String, String)>,
    /// `(fn name, callee name)` — every call, for transitive closure.
    calls: Vec<(String, String)>,
    /// `(held class, acquired class, site)` — a second lock taken while
    /// the first's guard is live in the same function.
    edges: Vec<(String, String, Site)>,
    /// `(held classes, callee, site)` — a call made under a live guard.
    held_calls: Vec<(Vec<String>, String, Site)>,
}

/// Everything the analyzer produced for one file.
struct FileAnalysis {
    findings: Vec<Finding>,
    locks: LockFacts,
}

/// Derives the logical module path of a workspace-relative file path:
/// `crates/core/src/telemetry/trace.rs` → `core::telemetry::trace`,
/// `src/bin/linkclust.rs` → `linkclust::bin::linkclust`. Inline `mod`
/// blocks are not tracked — the file is the granularity of every
/// allowlist.
fn module_path(rel: &str) -> String {
    let mut parts: Vec<&str> = rel.split('/').collect();
    let file = parts.pop().unwrap_or_default();
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    let mut segs: Vec<&str> = Vec::new();
    if parts.first() == Some(&"crates") {
        segs.extend(parts.iter().skip(1).filter(|s| **s != "src"));
    } else {
        segs.push("linkclust");
        segs.extend(parts.iter().filter(|s| **s != "src"));
    }
    if !matches!(stem, "lib" | "mod" | "main") {
        segs.push(stem);
    }
    segs.join("::")
}

/// `true` if `module` is under the truncating-cast audit (the id-heavy
/// `graph` and `core` hot paths).
fn cast_audited(module: &str) -> bool {
    ["core", "graph"].iter().any(|c| module == *c || module.starts_with(&format!("{c}::")))
}

/// Analyzes one file's source text. `rel` is the workspace-relative
/// path (used in findings and to derive the module for allowlists).
fn analyze_source(rel: &str, text: &str) -> FileAnalysis {
    let module = module_path(rel);
    let tokens = lex(text);

    // Comment text per starting line, for justifications and waivers.
    let mut comments: HashMap<usize, String> = HashMap::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        comments.entry(t.line).or_default().push_str(&t.text);
    }
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();

    let mut cx = Cx {
        rel,
        module: &module,
        code,
        comments,
        findings: Vec::new(),
        locks: LockFacts::default(),
    };
    cx.walk();
    FileAnalysis { findings: cx.findings, locks: cx.locks }
}

/// A live lock guard tracked by the per-function scanner.
struct Held {
    class: String,
    /// `Some(depth)` for a `let`-bound guard (lives until its block
    /// closes), `None` for a temporary (lives until the statement ends).
    let_depth: Option<usize>,
}

/// Per-file analysis state.
struct Cx<'a> {
    rel: &'a str,
    module: &'a str,
    code: Vec<&'a Token>,
    comments: HashMap<usize, String>,
    findings: Vec<Finding>,
    locks: LockFacts,
}

impl Cx<'_> {
    /// `true` if a comment containing `marker` sits on `line` or one of
    /// the two lines above it (a trailing or immediately-preceding
    /// justification).
    fn justified(&self, line: usize, marker: &str) -> bool {
        (line.saturating_sub(2)..=line)
            .any(|l| self.comments.get(&l).is_some_and(|c| c.contains(marker)))
    }

    /// `true` if a `// lint: allow(<rule>)` waiver comment sits on
    /// `line` or the line above.
    fn waived(&self, line: usize, rule: &str) -> bool {
        let needle = format!("lint: allow({rule})");
        (line.saturating_sub(1)..=line)
            .any(|l| self.comments.get(&l).is_some_and(|c| c.contains(&needle)))
    }

    fn push(&mut self, t: &Token, rule: &'static str, message: String) {
        if self.waived(t.line, rule) {
            return;
        }
        self.findings.push(Finding {
            file: self.rel.to_string(),
            line: t.line,
            col: t.col,
            rule,
            message,
        });
    }

    fn is(&self, i: usize, text: &str) -> bool {
        self.code.get(i).is_some_and(|t| t.text == text)
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        self.code.get(i).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.as_str())
    }

    #[allow(clippy::too_many_lines)] // one linear pass; splitting it would scatter the state machine
    fn walk(&mut self) {
        let n = self.code.len();
        let mut depth = 0usize;
        let mut test_regions: Vec<usize> = Vec::new();
        let mut pending_test = false;
        let mut fn_stack: Vec<(String, usize)> = Vec::new();
        let mut pending_fn: Option<String> = None;
        let mut held: Vec<Held> = Vec::new();
        let mut stmt_has_let = false;

        let mut i = 0usize;
        while i < n {
            let t = self.code[i];
            // Attributes are consumed whole: their contents are neither
            // code (for the rules) nor braces (for depth tracking).
            if t.text == "#"
                && (self.is(i + 1, "[") || (self.is(i + 1, "!") && self.is(i + 2, "[")))
            {
                let open = if self.is(i + 1, "[") { i + 1 } else { i + 2 };
                let mut j = open + 1;
                let mut brackets = 1usize;
                let mut mentions_test = false;
                while j < n && brackets > 0 {
                    match self.code[j].text.as_str() {
                        "[" => brackets += 1,
                        "]" => brackets -= 1,
                        "test" if self.code[j].kind == TokenKind::Ident => mentions_test = true,
                        _ => {}
                    }
                    j += 1;
                }
                if mentions_test {
                    pending_test = true;
                }
                i = j;
                continue;
            }

            let in_test = !test_regions.is_empty();
            match t.text.as_str() {
                "{" => {
                    if pending_test {
                        test_regions.push(depth);
                        pending_test = false;
                        pending_fn = None;
                    } else if let Some(name) = pending_fn.take() {
                        fn_stack.push((name, depth));
                    }
                    depth += 1;
                    stmt_has_let = false;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    while test_regions.last() == Some(&depth) {
                        test_regions.pop();
                    }
                    while fn_stack.last().is_some_and(|&(_, d)| d == depth) {
                        fn_stack.pop();
                    }
                    held.retain(|h| h.let_depth.is_some_and(|d| d <= depth));
                    stmt_has_let = false;
                }
                ";" => {
                    held.retain(|h| h.let_depth.is_some());
                    stmt_has_let = false;
                    // Trait method declarations (`fn f();`) and
                    // attribute-on-item-without-body (`#[cfg(test)] mod t;`)
                    // never get a `{`.
                    pending_fn = None;
                    pending_test = false;
                }
                "let" if t.kind == TokenKind::Ident => stmt_has_let = true,
                "fn" if t.kind == TokenKind::Ident => {
                    if let Some(name) = self.ident_at(i + 1) {
                        pending_fn = Some(name.to_string());
                    }
                }
                _ => {}
            }

            if in_test {
                i += 1;
                continue;
            }

            // --- rule (a): atomics-ordering discipline -----------------
            if t.text == "Ordering"
                && self.is(i + 1, "::")
                && self.ident_at(i + 2).is_some_and(|v| ORDERING_VARIANTS.contains(&v))
            {
                let site = self.code[i + 2];
                let variant = site.text.clone();
                if !ATOMICS_MODULES.contains(&self.module) {
                    self.push(
                        site,
                        "atomics-module",
                        format!(
                            "`Ordering::{variant}` in module `{}`: atomics are restricted to \
                             {ATOMICS_MODULES:?} — use the pool/telemetry abstractions instead",
                            self.module
                        ),
                    );
                } else if !self.justified(site.line, "ordering:") {
                    self.push(
                        site,
                        "atomics-justify",
                        format!(
                            "`Ordering::{variant}` without an adjacent `// ordering:` \
                             justification comment"
                        ),
                    );
                }
            }

            // --- rule (a): relaxed cross-thread publish ----------------
            if t.text == "." && self.is(i + 1, "store") && self.is(i + 2, "(") {
                let mut j = i + 3;
                let mut parens = 1usize;
                let mut relaxed = false;
                while j < n && parens > 0 {
                    match self.code[j].text.as_str() {
                        "(" => parens += 1,
                        ")" => parens -= 1,
                        "Relaxed"
                            if j >= 2 && self.is(j - 1, "::") && self.is(j - 2, "Ordering") =>
                        {
                            relaxed = true;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if relaxed && !RELAXED_PUBLISH_MODULES.contains(&self.module) {
                    let site = self.code[i + 1];
                    self.push(
                        site,
                        "relaxed-publish",
                        format!(
                            "relaxed store in module `{}`: a cross-thread Relaxed publish is \
                             only sanctioned inside the trace-ring protocol \
                             ({RELAXED_PUBLISH_MODULES:?}) — use Release or a stronger \
                             abstraction",
                            self.module
                        ),
                    );
                }
            }

            // --- rule (b): lock acquisition & call extraction ----------
            if t.text == "." && self.is(i + 1, "lock") && self.is(i + 2, "(") && self.is(i + 3, ")")
            {
                let recv = if i > 0 && self.code[i - 1].kind == TokenKind::Ident {
                    self.code[i - 1].text.clone()
                } else {
                    "expr".to_string()
                };
                let class = format!("{}::{recv}", self.module);
                let site = Site { line: self.code[i + 1].line, col: self.code[i + 1].col };
                let fn_name =
                    fn_stack.last().map_or_else(|| "<file>".to_string(), |(f, _)| f.clone());
                if !self.waived(site.line, "lock-cycle") {
                    for h in &held {
                        self.locks.edges.push((h.class.clone(), class.clone(), site));
                    }
                    self.locks.direct.push((fn_name, class.clone()));
                    held.push(Held { class, let_depth: stmt_has_let.then_some(depth) });
                }
                i += 4;
                continue;
            }
            if t.kind == TokenKind::Ident
                && self.is(i + 1, "(")
                && !matches!(
                    t.text.as_str(),
                    "fn" | "if" | "while" | "for" | "match" | "return" | "loop" | "move"
                )
                && !CALL_EXCLUSIONS.contains(&t.text.as_str())
            {
                if let Some((f, _)) = fn_stack.last() {
                    self.locks.calls.push((f.clone(), t.text.clone()));
                    if !held.is_empty() {
                        let held_classes: Vec<String> =
                            held.iter().map(|h| h.class.clone()).collect();
                        self.locks.held_calls.push((
                            held_classes,
                            t.text.clone(),
                            Site { line: t.line, col: t.col },
                        ));
                    }
                }
            }

            // --- rule (c): float-comparison discipline -----------------
            if t.kind == TokenKind::Punct && CMP_OPS.contains(&t.text.as_str()) {
                let prev_float = i > 0 && self.code[i - 1].is_float_literal();
                let next_float = self.code.get(i + 1).is_some_and(|x| x.is_float_literal())
                    || (self.is(i + 1, "-")
                        && self.code.get(i + 2).is_some_and(|x| x.is_float_literal()));
                if (prev_float || next_float)
                    && !FLOAT_CMP_MODULES.contains(&self.module)
                    && !self.justified(t.line, "float-cmp:")
                {
                    let op = t.text.clone();
                    self.push(
                        t,
                        "float-cmp",
                        format!(
                            "direct float comparison `{op}` with a float-literal operand: \
                             use `total_cmp`/an epsilon, or justify with `// float-cmp:`"
                        ),
                    );
                }
            }
            if t.text == "partial_cmp"
                && t.kind == TokenKind::Ident
                && !FLOAT_CMP_MODULES.contains(&self.module)
                && !self.justified(t.line, "float-cmp:")
            {
                self.push(
                    t,
                    "float-partial-cmp",
                    "`partial_cmp` outside approved modules: NaN makes it partial — \
                     sort/compare floats with `total_cmp` (the PR 4 signed-zero bug class)"
                        .to_string(),
                );
            }

            // --- rule (d): truncating-cast audit -----------------------
            if t.text == "as"
                && t.kind == TokenKind::Ident
                && cast_audited(self.module)
                && self.ident_at(i + 1).is_some_and(|v| NARROWING_TARGETS.contains(&v))
                && !self.justified(t.line, "cast:")
            {
                let target = self.code[i + 1].text.clone();
                self.push(
                    t,
                    "cast-truncate",
                    format!(
                        "bare `as {target}` in an id hot path can silently truncate \
                         (CSR wraps past 2^32 edges): use `try_from` or justify with `// cast:`"
                    ),
                );
            }

            // --- rule (e): bare thread::spawn ban ----------------------
            if t.text == "thread"
                && self.is(i + 1, "::")
                && self.ident_at(i + 2).is_some_and(|v| v == "spawn" || v == "Builder")
                && !SPAWN_MODULES.contains(&self.module)
            {
                let site = self.code[i + 2];
                let what = site.text.clone();
                self.push(
                    site,
                    "bare-spawn",
                    format!(
                        "`thread::{what}` in module `{}`: all thread creation goes through \
                         `parallel::pool::WorkerPool`",
                        self.module
                    ),
                );
            }

            i += 1;
        }
    }
}

/// Builds the workspace lock graph from per-file facts and returns one
/// finding per acquisition cycle.
fn lock_cycle_findings(per_file: &[(String, LockFacts)]) -> Vec<Finding> {
    // Transitive closure of "calling this function may acquire these
    // lock classes", keyed by bare function name (collisions merge —
    // conservative, see CALL_EXCLUSIONS).
    let mut may: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (_, facts) in per_file {
        for (f, class) in &facts.direct {
            may.entry(f.clone()).or_default().insert(class.clone());
        }
        for (f, callee) in &facts.calls {
            calls.entry(f.clone()).or_default().insert(callee.clone());
        }
    }
    loop {
        let mut changed = false;
        for (f, callees) in &calls {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for c in callees {
                if let Some(s) = may.get(c) {
                    add.extend(s.iter().cloned());
                }
            }
            if !add.is_empty() {
                let entry = may.entry(f.clone()).or_default();
                let before = entry.len();
                entry.extend(add);
                changed |= entry.len() != before;
            }
        }
        if !changed {
            break;
        }
    }

    // Edge set: direct nested acquisitions plus calls-under-guard into
    // functions that may acquire.
    let mut edges: BTreeMap<String, BTreeMap<String, (String, Site)>> = BTreeMap::new();
    for (rel, facts) in per_file {
        for (from, to, site) in &facts.edges {
            edges
                .entry(from.clone())
                .or_default()
                .entry(to.clone())
                .or_insert_with(|| (rel.clone(), *site));
        }
        for (held, callee, site) in &facts.held_calls {
            if let Some(acquired) = may.get(callee) {
                for h in held {
                    for to in acquired {
                        // A call-derived edge back into the held class is
                        // suppressed: with bare-name call matching it is
                        // overwhelmingly a std-method alias (`Vec::push`
                        // vs a locking first-party `push`). Direct
                        // recursive acquisition in one function still
                        // produces a self-loop via `facts.edges` above.
                        if h == to {
                            continue;
                        }
                        edges
                            .entry(h.clone())
                            .or_default()
                            .entry(to.clone())
                            .or_insert_with(|| (rel.clone(), *site));
                    }
                }
            }
        }
    }

    // Enumerate elementary cycles: DFS from each start node, visiting
    // only nodes ≥ start so each cycle is found once, rotated to its
    // smallest node. The graph has a handful of nodes; no need for
    // Johnson's algorithm.
    fn dfs(
        start: &str,
        cur: &str,
        edges: &BTreeMap<String, BTreeMap<String, (String, Site)>>,
        path: &mut Vec<String>,
        cycles: &mut BTreeSet<Vec<String>>,
    ) {
        let Some(nexts) = edges.get(cur) else { return };
        for next in nexts.keys() {
            if next == start {
                cycles.insert(path.clone());
            } else if next.as_str() > start && !path.contains(next) && path.len() < 32 {
                path.push(next.clone());
                dfs(start, next, edges, path, cycles);
                path.pop();
            }
        }
    }
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in edges.keys() {
        let mut path = vec![start.clone()];
        dfs(start, start, &edges, &mut path, &mut cycles);
    }

    let mut findings = Vec::new();
    for cycle in cycles {
        let mut route = String::new();
        for c in &cycle {
            let _ = write!(route, "{c} -> ");
        }
        let _ = write!(route, "{}", cycle[0]);
        let mut sites = String::new();
        for (a, b) in cycle.iter().zip(cycle.iter().cycle().skip(1)) {
            if let Some((rel, site)) = edges.get(a).and_then(|m| m.get(b)) {
                let _ = write!(sites, " [{a} -> {b} at {rel}:{}:{}]", site.line, site.col);
            }
        }
        let (file, site) = edges
            .get(&cycle[0])
            .and_then(|m| m.get(cycle.get(1).unwrap_or(&cycle[0])))
            .cloned()
            .unwrap_or_else(|| (String::from("<workspace>"), Site { line: 1, col: 1 }));
        findings.push(Finding {
            file,
            line: site.line,
            col: site.col,
            rule: "lock-cycle",
            message: format!(
                "potential deadlock: lock-acquisition cycle {route} —{sites}; break the cycle \
                 or restructure so one lock is never held across the other"
            ),
        });
    }
    findings
}

/// Collects the lintable `.rs` files: `crates/*/src/**` plus the root
/// `src/**` (the same roots the forbidden-pattern scanner covers).
fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }
    files.sort();
    Ok(files)
}

/// The committed ratchet file, relative to the workspace root.
const BASELINE_PATH: &str = "xtask/lint.baseline";

/// Parses the baseline file: `<rule> <path> <count>` lines, `#` comments.
fn parse_baseline(text: &str) -> Result<BTreeMap<(String, String), usize>, String> {
    let mut map = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(rule), Some(path), Some(count), None) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            return Err(format!("{BASELINE_PATH}:{}: expected `<rule> <path> <count>`", idx + 1));
        };
        let count: usize =
            count.parse().map_err(|e| format!("{BASELINE_PATH}:{}: bad count: {e}", idx + 1))?;
        if map.insert((rule.to_string(), path.to_string()), count).is_some() {
            return Err(format!("{BASELINE_PATH}:{}: duplicate entry", idx + 1));
        }
    }
    Ok(map)
}

/// Serializes per-(rule, file) counts as the baseline file.
fn format_baseline(counts: &BTreeMap<(String, String), usize>) -> String {
    let mut out = String::new();
    out.push_str(
        "# Lint ratchet baseline — pins the human-reviewed, pre-existing findings of\n\
         # `cargo xtask lint` per (rule, file). The gate fails on ANY drift, in either\n\
         # direction; after reviewing, regenerate with:\n\
         #\n\
         #     cargo xtask lint --update-baseline\n\
         #\n\
         # Prefer shrinking these counts (fix the site or add an inline justification\n\
         # comment) over growing them. Rule catalog: VERIFICATION.md.\n",
    );
    for ((rule, path), count) in counts {
        let _ = writeln!(out, "{rule} {path} {count}");
    }
    out
}

/// The outcome of a full workspace lint run, before baseline comparison.
struct LintRun {
    findings: Vec<Finding>,
    files_scanned: usize,
}

/// Lints every first-party file and appends the workspace-level
/// lock-cycle findings.
fn lint_workspace(root: &Path) -> std::io::Result<LintRun> {
    let files = collect_files(root)?;
    let mut findings = Vec::new();
    let mut lock_facts: Vec<(String, LockFacts)> = Vec::new();
    let files_scanned = files.len();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = fs::read_to_string(&file)?;
        let analysis = analyze_source(&rel, &text);
        findings.extend(analysis.findings);
        lock_facts.push((rel, analysis.locks));
    }
    findings.extend(lock_cycle_findings(&lock_facts));
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(LintRun { findings, files_scanned })
}

/// Groups findings by `(rule, file)`.
fn count_by_key(findings: &[Finding]) -> BTreeMap<(String, String), usize> {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in findings {
        *counts.entry((f.rule.to_string(), f.file.clone())).or_default() += 1;
    }
    counts
}

/// Writes the full findings list (pinned and new) to
/// `target/lint/findings.txt` so CI can upload it as an artifact.
fn write_artifact(root: &Path, run: &LintRun, baseline: &BTreeMap<(String, String), usize>) {
    let dir = root.join("target").join("lint");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let mut out = String::new();
    let counts = count_by_key(&run.findings);
    let _ = writeln!(
        out,
        "# cargo xtask lint — {} findings across {} files ({} (rule, file) keys, {} pinned)",
        run.findings.len(),
        run.files_scanned,
        counts.len(),
        counts.iter().filter(|(k, v)| baseline.get(*k) == Some(v)).count(),
    );
    for f in &run.findings {
        let key = (f.rule.to_string(), f.file.clone());
        let status = if baseline.get(&key).copied().unwrap_or(0) > 0 { "pinned" } else { "NEW" };
        let _ = writeln!(out, "{status:<6} {}", f.display());
    }
    let _ = fs::write(dir.join("findings.txt"), out);
}

/// Runs the lint gate: analyze, compare against the committed baseline,
/// fail on any drift. This is what `cargo xtask lint` (and the `lint`
/// gate of `check`/`fast`) executes.
pub(crate) fn run_gate(root: &Path) -> Result<(), String> {
    let run = lint_workspace(root).map_err(|e| format!("lint I/O error: {e}"))?;
    let baseline_text = fs::read_to_string(root.join(BASELINE_PATH)).unwrap_or_default();
    let baseline = parse_baseline(&baseline_text)?;
    write_artifact(root, &run, &baseline);

    let counts = count_by_key(&run.findings);
    let mut drift: Vec<String> = Vec::new();
    let mut new_findings = 0usize;
    for (key, &actual) in &counts {
        let pinned = baseline.get(key).copied().unwrap_or(0);
        if actual > pinned {
            new_findings += actual - pinned;
            drift.push(format!(
                "{} [{}]: {actual} findings, {pinned} pinned — new violations:",
                key.1, key.0
            ));
            for f in run.findings.iter().filter(|f| f.rule == key.0 && f.file == key.1) {
                drift.push(format!("    {}", f.display()));
            }
        } else if actual < pinned {
            drift.push(format!(
                "{} [{}]: {actual} findings but {pinned} pinned — stale baseline \
                 (you fixed sites: ratchet down with `cargo xtask lint --update-baseline`)",
                key.1, key.0
            ));
        }
    }
    for (key, &pinned) in &baseline {
        if !counts.contains_key(key) {
            drift.push(format!(
                "{} [{}]: 0 findings but {pinned} pinned — stale baseline \
                 (ratchet down with `cargo xtask lint --update-baseline`)",
                key.1, key.0
            ));
        }
    }

    eprintln!(
        "lint: {} files, {} findings ({} pinned by {}), {} drift entries",
        run.files_scanned,
        run.findings.len(),
        run.findings.len() - new_findings,
        BASELINE_PATH,
        drift.len(),
    );
    if drift.is_empty() {
        Ok(())
    } else {
        for d in &drift {
            eprintln!("{d}");
        }
        Err(format!(
            "{} baseline drift entries — fix the new sites (or justify them in place) and/or \
             regenerate the ratchet with `cargo xtask lint --update-baseline` after review",
            drift.len()
        ))
    }
}

/// Regenerates the committed baseline from the current tree
/// (`cargo xtask lint --update-baseline`). The diff is the review
/// artifact: growing counts need a justification in the PR.
pub(crate) fn run_update(root: &Path) -> Result<(), String> {
    let run = lint_workspace(root).map_err(|e| format!("lint I/O error: {e}"))?;
    let counts = count_by_key(&run.findings);
    fs::write(root.join(BASELINE_PATH), format_baseline(&counts))
        .map_err(|e| format!("cannot write {BASELINE_PATH}: {e}"))?;
    write_artifact(root, &run, &counts);
    eprintln!(
        "lint: baseline regenerated at {BASELINE_PATH}: {} findings across {} (rule, file) keys \
         — review the diff before committing",
        run.findings.len(),
        counts.len(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shorthand: analyze fixture text under a given module path.
    fn findings(rel: &str, text: &str) -> Vec<Finding> {
        analyze_source(rel, text).findings
    }

    fn rules(fs: &[Finding]) -> Vec<&'static str> {
        fs.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn module_paths_derive_from_file_paths() {
        assert_eq!(module_path("crates/core/src/telemetry/trace.rs"), "core::telemetry::trace");
        assert_eq!(module_path("crates/parallel/src/pool.rs"), "parallel::pool");
        assert_eq!(module_path("crates/graph/src/lib.rs"), "graph");
        assert_eq!(module_path("src/lib.rs"), "linkclust");
        assert_eq!(module_path("src/bin/linkclust.rs"), "linkclust::bin::linkclust");
        assert!(cast_audited("core::flatacc"));
        assert!(cast_audited("graph"));
        assert!(!cast_audited("bench::alloc"));
        assert!(!cast_audited("corpus::stats"));
    }

    // ---- rule family (a): atomics-ordering discipline ----------------

    #[test]
    fn atomics_rules_fire_on_the_seeded_fixture() {
        let text = include_str!("../fixtures/lint/atomics.rs");
        // In a non-allowlisted module every use is a module violation.
        let fs = findings("crates/core/src/fixture.rs", text);
        assert!(fs.iter().filter(|f| f.rule == "atomics-module").count() >= 3, "{fs:?}");
        // In an allowlisted module the unjustified sites and the relaxed
        // publish are what fire.
        let fs = findings("crates/parallel/src/pool.rs", text);
        let rs = rules(&fs);
        assert!(rs.contains(&"atomics-justify"), "{fs:?}");
        assert!(rs.contains(&"relaxed-publish"), "{fs:?}");
        assert!(!rs.contains(&"atomics-module"), "{fs:?}");
        // The justified load in the fixture does not fire.
        assert!(
            !fs.iter().any(|f| f.rule == "atomics-justify" && f.line == 8),
            "justified site must not fire: {fs:?}"
        );
    }

    #[test]
    fn relaxed_publish_is_sanctioned_only_in_the_trace_ring() {
        let text = "fn f(x: &AtomicU64) { x.store(1, Ordering::Relaxed); // ordering: test\n}\n";
        let fs = findings("crates/core/src/telemetry/trace.rs", text);
        assert!(rules(&fs).is_empty(), "{fs:?}");
        let fs = findings("crates/bench/src/alloc.rs", text);
        assert_eq!(rules(&fs), vec!["relaxed-publish"], "{fs:?}");
    }

    #[test]
    fn atomics_in_strings_comments_and_tests_are_exempt() {
        let text = "// Ordering::SeqCst in a comment\nfn f() { let s = \"Ordering::SeqCst\"; }\n";
        assert!(findings("crates/core/src/x.rs", text).is_empty());
        let text = "#[cfg(test)]\nmod tests {\n    fn f(x: &AtomicU64) -> u64 { \
                    x.load(Ordering::SeqCst) }\n}\n";
        assert!(findings("crates/core/src/x.rs", text).is_empty());
    }

    // ---- rule family (b): lock-order analysis ------------------------

    #[test]
    fn lock_cycle_fires_on_the_seeded_fixture() {
        let text = include_str!("../fixtures/lint/lock_order.rs");
        let analysis = analyze_source("crates/core/src/fixture.rs", text);
        let cycles =
            lock_cycle_findings(&[("crates/core/src/fixture.rs".to_string(), analysis.locks)]);
        assert!(!cycles.is_empty(), "the AB/BA fixture must produce a cycle");
        assert!(cycles.iter().all(|f| f.rule == "lock-cycle"));
        assert!(cycles[0].message.contains("alpha"), "{}", cycles[0].message);
        assert!(cycles[0].message.contains("beta"), "{}", cycles[0].message);
    }

    #[test]
    fn lock_cycle_fires_across_function_calls() {
        // `outer` holds alpha and calls a helper that locks beta;
        // `other` holds beta and calls a helper that locks alpha.
        let text = "fn outer(&self) { let a = self.alpha.lock(); self.grab_beta(); }\n\
                    fn grab_beta(&self) { let b = self.beta.lock(); }\n\
                    fn other(&self) { let b = self.beta.lock(); self.grab_alpha(); }\n\
                    fn grab_alpha(&self) { let a = self.alpha.lock(); }\n";
        let analysis = analyze_source("crates/core/src/fx.rs", text);
        let cycles = lock_cycle_findings(&[("crates/core/src/fx.rs".to_string(), analysis.locks)]);
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0].message.contains("potential deadlock"));
    }

    #[test]
    fn ordered_lock_acquisition_is_clean() {
        // Consistent A-then-B order everywhere: no cycle.
        let text = "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
                    fn g(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n";
        let analysis = analyze_source("crates/core/src/fx.rs", text);
        let cycles = lock_cycle_findings(&[("crates/core/src/fx.rs".to_string(), analysis.locks)]);
        assert!(cycles.is_empty(), "{cycles:?}");
    }

    #[test]
    fn guard_scope_ends_with_its_block_or_statement() {
        // Guards dropped before the second lock: no edge, no cycle.
        let text = "fn f(&self) { { let a = self.alpha.lock(); } let b = self.beta.lock(); }\n\
                    fn g(&self) { { let b = self.beta.lock(); } let a = self.alpha.lock(); }\n\
                    fn h(&self) { self.alpha.lock().x(); self.beta.lock().y(); }\n\
                    fn i(&self) { self.beta.lock().y(); self.alpha.lock().x(); }\n";
        let analysis = analyze_source("crates/core/src/fx.rs", text);
        assert!(analysis.locks.edges.is_empty(), "{:?}", analysis.locks.edges);
    }

    // ---- rule family (c): float-comparison discipline ----------------

    #[test]
    fn float_rules_fire_on_the_seeded_fixture() {
        let text = include_str!("../fixtures/lint/float_cmp.rs");
        let fs = findings("crates/core/src/fixture.rs", text);
        let rs = rules(&fs);
        assert!(rs.contains(&"float-cmp"), "{fs:?}");
        assert!(rs.contains(&"float-partial-cmp"), "{fs:?}");
        // The justified comparison and the integer comparison are clean.
        assert_eq!(rs.iter().filter(|r| **r == "float-cmp").count(), 2, "{fs:?}");
        // Approved modules are exempt wholesale.
        assert!(findings("crates/core/src/evaluate.rs", text).is_empty());
    }

    #[test]
    fn negative_float_literals_and_both_sides_are_caught() {
        let fs = findings("crates/core/src/x.rs", "fn f(x: f64) -> bool { x > -0.5 }\n");
        assert_eq!(rules(&fs), vec!["float-cmp"]);
        let fs = findings("crates/core/src/x.rs", "fn f(x: f64) -> bool { 0.5 <= x }\n");
        assert_eq!(rules(&fs), vec!["float-cmp"]);
        // Integer comparisons never fire.
        assert!(findings("crates/core/src/x.rs", "fn f(x: u32) -> bool { x > 5 }\n").is_empty());
    }

    // ---- rule family (d): truncating-cast audit ----------------------

    #[test]
    fn cast_rule_fires_on_the_seeded_fixture() {
        let text = include_str!("../fixtures/lint/casts.rs");
        let fs = findings("crates/graph/src/fixture.rs", text);
        // Two bare narrowing casts; the justified one and the widening
        // `as u64`/`as f64` are clean.
        assert_eq!(rules(&fs), vec!["cast-truncate", "cast-truncate"], "{fs:?}");
        // Outside the audited crates the rule is silent.
        assert!(findings("crates/bench/src/fixture.rs", text).is_empty());
    }

    // ---- rule family (e): bare thread::spawn ban ---------------------

    #[test]
    fn spawn_ban_fires_on_the_seeded_fixture() {
        let text = include_str!("../fixtures/lint/spawn.rs");
        let fs = findings("crates/core/src/fixture.rs", text);
        assert_eq!(rules(&fs), vec!["bare-spawn", "bare-spawn"], "{fs:?}");
        // The pool module is the sanctioned home of thread creation.
        assert!(findings("crates/parallel/src/pool.rs", text).is_empty());
    }

    // ---- clean fixture, waivers, baseline ----------------------------

    #[test]
    fn clean_fixture_produces_zero_findings() {
        let text = include_str!("../fixtures/lint/clean.rs");
        let analysis = analyze_source("crates/parallel/src/pool.rs", text);
        assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
        let cycles =
            lock_cycle_findings(&[("crates/parallel/src/pool.rs".to_string(), analysis.locks)]);
        assert!(cycles.is_empty(), "{cycles:?}");
    }

    #[test]
    fn inline_waiver_suppresses_a_single_site() {
        let text = "fn f(n: usize) -> u32 {\n    // lint: allow(cast-truncate) bounded by caller\n\
                    \x20   n as u32\n}\nfn g(n: usize) -> u32 { n as u32 }\n";
        let fs = findings("crates/graph/src/x.rs", text);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 5);
    }

    #[test]
    fn baseline_roundtrip_and_drift() {
        let mut counts = BTreeMap::new();
        counts.insert(("cast-truncate".to_string(), "crates/graph/src/csr.rs".to_string()), 16);
        counts.insert(("float-cmp".to_string(), "crates/core/src/model.rs".to_string()), 6);
        let text = format_baseline(&counts);
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed, counts);
        assert!(parse_baseline("bad line here extra").is_err());
        assert!(parse_baseline("rule path notanumber").is_err());
        assert!(parse_baseline("# comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn findings_carry_line_and_column() {
        let fs = findings("crates/core/src/x.rs", "fn f(n: usize) -> u32 {\n    n as u32\n}\n");
        assert_eq!(fs.len(), 1);
        assert_eq!((fs[0].line, fs[0].col), (2, 7));
        assert!(fs[0].display().contains("crates/core/src/x.rs:2:7"));
    }
}
