//! The three lint families and the suppression-comment machinery.
//!
//! Rule ids are stable strings (`family::rule`); the ratchet baseline and
//! the suppression comments both key on them, so renaming a rule is a
//! breaking change to the baseline format.

use crate::context::{token_contexts, FileContexts};
use crate::lexer::{lex, Comment, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One lint finding. Ordering is (path, line, column, rule) so reports are
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub column: u32,
    pub rule: String,
    pub message: String,
}

/// A parsed lock-hierarchy manifest entry: locks must be acquired in
/// ascending level order within a function.
#[derive(Debug, Clone)]
pub struct LockLevel {
    /// The manifest line the entry is on (1-based).
    pub line: u32,
    pub level: u32,
    /// The identifier the guard is acquired through (`wal` in `wal.lock()`).
    pub name: String,
    /// Substring the file path must contain for the entry to apply; `None`
    /// applies everywhere.
    pub path_filter: Option<String>,
}

/// Parses the lock-order manifest: one entry per line, `level name
/// [path-substring]`, `#` comments, blank lines ignored.
pub fn parse_manifest(text: &str) -> Result<Vec<LockLevel>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(level), Some(name)) = (parts.next(), parts.next()) else {
            return Err(format!("manifest line {}: expected `level name [path]`", lineno + 1));
        };
        let level: u32 = level
            .parse()
            .map_err(|_| format!("manifest line {}: bad level {level:?}", lineno + 1))?;
        let path_filter = parts.next().map(str::to_owned);
        if parts.next().is_some() {
            return Err(format!("manifest line {}: trailing tokens", lineno + 1));
        }
        let line = u32::try_from(lineno + 1).unwrap_or(u32::MAX);
        out.push(LockLevel { line, level, name: name.to_owned(), path_filter });
    }
    Ok(out)
}

/// Where findings about the lock manifest itself are reported.
pub const MANIFEST_PATH: &str = "lock-order.manifest";

/// Analyzer configuration: currently just the lock manifest.
#[derive(Debug, Default)]
pub struct AnalysisConfig {
    pub lock_manifest: Vec<LockLevel>,
}

/// The single homes of the protocol decisions every deployment shares: the
/// cluster rules (routing, replica targets, recovery source, election), the
/// row codec — which parses every row a WAL, a checkpoint or the network
/// hands back — the epoch state and what a fence does to it and to a
/// replica, the shared phase workers, the node every deployment runs (its
/// phase jobs, takeover catch-up and recovery copy), and the cluster driver
/// — which indexes per-node tables with ids read off the network. They are in determinism
/// *and* panic-freedom scope in full, keyed by file: a renamed or newly
/// added function cannot silently drop out of scope the way a function-name
/// list lets it.
const PROTOCOL_HOMES: &[&str] = &[
    "crates/common/src/config.rs",
    "crates/common/src/packed.rs",
    "crates/core/src/failure.rs",
    "crates/core/src/exec.rs",
    "crates/core/src/node.rs",
    "crates/serverd/src/coordinator.rs",
];

/// Determinism scope: `crates/net`, `crates/chaos` and `crates/core` in
/// full, plus the [`PROTOCOL_HOMES`] outside them. The engine's timed path
/// reads the clock at a handful of reasoned `allow` sites (the `run_for`
/// window, the `PhaseBudget::Deadline` handling, latency telemetry).
fn determinism_in_scope(path: &str) -> bool {
    ["crates/net/src/", "crates/chaos/src/", "crates/core/src/"]
        .iter()
        .any(|prefix| path.starts_with(prefix))
        || PROTOCOL_HOMES.contains(&path)
}

/// Whether a function puts its body in panic-freedom scope: recovery,
/// election, and WAL-replay code must not be able to panic, and neither may
/// anything in the [`PROTOCOL_HOMES`] or in the wire-protocol crate — every
/// byte it decodes arrives from the network, so malformed input must surface
/// as a typed `DecodeError`, never a crash.
fn panic_in_scope(path: &str, fn_name: Option<&str>) -> bool {
    if path.starts_with("crates/proto/src/") || PROTOCOL_HOMES.contains(&path) {
        return true;
    }
    let Some(f) = fn_name else { return false };
    f.contains("recover")
        || f.contains("election")
        || f.contains("replay")
        || matches!(f, "classify" | "current_master" | "effective_primary" | "master")
}

/// A suppression parsed from a `// star-lint: allow(<rule>) -- <reason>`
/// comment. It silences matching findings on its own line and the next.
#[derive(Debug)]
struct Suppression {
    line: u32,
    rule: String,
}

fn parse_suppressions(
    comments: &[Comment],
    path: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        let Some(at) = c.text.find("star-lint:") else { continue };
        let rest = c.text[at + "star-lint:".len()..].trim_start();
        let parsed = rest.strip_prefix("allow(").and_then(|r| {
            let (rule, tail) = r.split_once(')')?;
            let reason = tail.trim_start().strip_prefix("--")?.trim();
            if rule.trim().is_empty() || reason.is_empty() {
                return None;
            }
            Some(rule.trim().to_owned())
        });
        match parsed {
            Some(rule) => out.push(Suppression { line: c.line, rule }),
            None => findings.push(Finding {
                path: path.to_owned(),
                line: c.line,
                column: 1,
                rule: "suppression::malformed".to_owned(),
                message: "malformed suppression; expected `star-lint: allow(<rule>) -- <reason>`"
                    .to_owned(),
            }),
        }
    }
    out
}

fn suppressed(supps: &[Suppression], rule: &str, line: u32) -> bool {
    supps.iter().any(|s| {
        (s.line == line || s.line + 1 == line)
            && (s.rule == rule || rule.starts_with(&format!("{}::", s.rule)))
    })
}

/// Output of analyzing one or more files.
#[derive(Debug, Default)]
pub struct AnalysisOutput {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub suppressions_used: usize,
    /// Indexes of the manifest entries whose name is an identifier in
    /// non-test code of some scanned file in the entry's path scope.
    pub lock_entries_named: BTreeSet<usize>,
}

/// Runs every lint family over one file, appending to `out`.
pub fn analyze_source(path: &str, source: &str, cfg: &AnalysisConfig, out: &mut AnalysisOutput) {
    let lexed = lex(source);
    let ctxs = token_contexts(&lexed.tokens);
    let mut raw: Vec<Finding> = Vec::new();

    determinism_pass(path, &lexed.tokens, &ctxs, &mut raw);
    panic_pass(path, &lexed.tokens, &ctxs, &mut raw);
    lock_order_pass(path, &lexed.tokens, &ctxs, cfg, &mut raw);
    note_named_lock_entries(path, &lexed.tokens, &ctxs, cfg, &mut out.lock_entries_named);

    let mut findings = Vec::new();
    let supps = parse_suppressions(&lexed.comments, path, &mut findings);
    let before = raw.len();
    raw.retain(|f| !suppressed(&supps, &f.rule, f.line));
    out.suppressions_used += before - raw.len();
    findings.extend(raw);
    out.files_scanned += 1;
    out.findings.extend(findings);
}

fn finding(path: &str, t: &Token, rule: &str, message: String) -> Finding {
    Finding {
        path: path.to_owned(),
        line: t.line,
        column: t.column,
        rule: rule.to_owned(),
        message,
    }
}

/// Determinism: wall-clock reads and hash-ordered collections are banned in
/// simulation-facing code — they make replays diverge from the recorded run.
fn determinism_pass(path: &str, tokens: &[Token], ctxs: &FileContexts, out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || ctxs.ctx[i].in_test {
            continue;
        }
        if !determinism_in_scope(path) {
            continue;
        }
        let path_call_now = |name: &str| {
            t.is_ident(name)
                && tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && tokens.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && tokens.get(i + 3).is_some_and(|a| a.is_ident("now"))
        };
        if path_call_now("Instant") {
            out.push(finding(
                path,
                t,
                "determinism::instant-now",
                "Instant::now() in simulation-facing code; wall-clock time breaks deterministic replay".to_owned(),
            ));
        } else if path_call_now("SystemTime") {
            out.push(finding(
                path,
                t,
                "determinism::system-time-now",
                "SystemTime::now() in simulation-facing code; wall-clock time breaks deterministic replay".to_owned(),
            ));
        } else if t.is_ident("HashMap") {
            out.push(finding(
                path,
                t,
                "determinism::hash-map",
                "HashMap in simulation-facing code; iteration order is nondeterministic — use BTreeMap".to_owned(),
            ));
        } else if t.is_ident("HashSet") {
            out.push(finding(
                path,
                t,
                "determinism::hash-set",
                "HashSet in simulation-facing code; iteration order is nondeterministic — use BTreeSet".to_owned(),
            ));
        }
    }
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Panic-freedom: recovery/election/replay functions run exactly when the
/// system is least able to tolerate a crash-on-crash, and the wire-protocol
/// crate parses untrusted network bytes, so they must return errors instead
/// of panicking.
fn panic_pass(path: &str, tokens: &[Token], ctxs: &FileContexts, out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if ctxs.ctx[i].in_test || !panic_in_scope(path, ctxs.fn_name(i)) {
            continue;
        }
        let fn_name = ctxs.fn_name(i).unwrap_or("?");
        match t.kind {
            TokenKind::Ident => {
                let method_call = |name: &str| {
                    t.is_ident(name)
                        && i > 0
                        && tokens[i - 1].is_punct('.')
                        && tokens.get(i + 1).is_some_and(|a| a.is_punct('('))
                };
                if method_call("unwrap") {
                    out.push(finding(
                        path,
                        t,
                        "panic::unwrap",
                        format!("unwrap() in panic-free function `{fn_name}`"),
                    ));
                } else if method_call("expect") {
                    out.push(finding(
                        path,
                        t,
                        "panic::expect",
                        format!("expect() in panic-free function `{fn_name}`"),
                    ));
                } else if PANIC_MACROS.contains(&t.text.as_str())
                    && tokens.get(i + 1).is_some_and(|a| a.is_punct('!'))
                {
                    out.push(finding(
                        path,
                        t,
                        "panic::panic",
                        format!("{}! in panic-free function `{fn_name}`", t.text),
                    ));
                }
            }
            TokenKind::Punct('[') => {
                // An opening bracket after an ident, `)` or `]` is an index
                // expression (attributes `#[..]`, macros `vec![..]`, array
                // types `[u8; 4]` and literals `[a, b]` all differ in the
                // preceding token).
                let indexes = i > 0
                    && matches!(
                        tokens[i - 1].kind,
                        TokenKind::Ident | TokenKind::Punct(')') | TokenKind::Punct(']')
                    );
                if indexes {
                    out.push(finding(
                        path,
                        t,
                        "panic::slice-index",
                        format!("slice/map index in panic-free function `{fn_name}`; use .get()"),
                    ));
                }
            }
            _ => {}
        }
    }
}

const LOCK_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Lock hierarchy: within a function, manifest-declared locks must be
/// acquired in ascending level order. This is name-based and per-function
/// (it cannot see through calls or guard drops); the dynamic lock-witness
/// covers what this pass cannot.
fn lock_order_pass(
    path: &str,
    tokens: &[Token],
    ctxs: &FileContexts,
    cfg: &AnalysisConfig,
    out: &mut Vec<Finding>,
) {
    if cfg.lock_manifest.is_empty() {
        return;
    }
    // Acquisition sites in order of appearance, grouped by enclosing fn.
    let mut by_fn: BTreeMap<u32, Vec<(u32, &str, u32, u32)>> = BTreeMap::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || ctxs.ctx[i].in_test {
            continue;
        }
        let Some(fn_idx) = ctxs.ctx[i].fn_idx else { continue };
        let is_acquire = tokens.get(i + 1).is_some_and(|a| a.is_punct('.'))
            && tokens.get(i + 2).is_some_and(|a| {
                a.kind == TokenKind::Ident && LOCK_METHODS.contains(&a.text.as_str())
            })
            && tokens.get(i + 3).is_some_and(|a| a.is_punct('('));
        if !is_acquire {
            continue;
        }
        let entry = cfg.lock_manifest.iter().find(|l| {
            l.name == t.text && l.path_filter.as_deref().map_or(true, |f| path.contains(f))
        });
        if let Some(l) = entry {
            by_fn.entry(fn_idx).or_default().push((l.level, &l.name, t.line, t.column));
        }
    }
    for sites in by_fn.values() {
        let mut reported: BTreeSet<(&str, &str)> = BTreeSet::new();
        for (j, &(level_j, name_j, line_j, col_j)) in sites.iter().enumerate() {
            // The worst earlier acquisition still textually before this one.
            let Some(&(level_i, name_i, line_i, _)) =
                sites[..j].iter().filter(|s| s.1 != name_j).max_by_key(|s| s.0)
            else {
                continue;
            };
            if level_i > level_j && reported.insert((name_i, name_j)) {
                out.push(Finding {
                    path: path.to_owned(),
                    line: line_j,
                    column: col_j,
                    rule: "lock::order".to_owned(),
                    message: format!(
                        "`{name_j}` (level {level_j}) acquired after `{name_i}` (level {level_i}, line {line_i}); \
                         the manifest requires ascending levels"
                    ),
                });
            }
        }
    }
}

/// Records which manifest entries `path` names: an entry is named when its
/// name is an identifier in the file's non-test code and the file is in the
/// entry's path scope.
fn note_named_lock_entries(
    path: &str,
    tokens: &[Token],
    ctxs: &FileContexts,
    cfg: &AnalysisConfig,
    named: &mut BTreeSet<usize>,
) {
    for (index, entry) in cfg.lock_manifest.iter().enumerate() {
        let in_scope = entry.path_filter.as_deref().map_or(true, |f| path.contains(f));
        if in_scope
            && tokens.iter().zip(&ctxs.ctx).any(|(t, ctx)| !ctx.in_test && t.is_ident(&entry.name))
        {
            named.insert(index);
        }
    }
}

/// Stale manifest entries: once every file is analyzed, an entry no file
/// named orders a lock that no longer exists, and would silently order a
/// new lock that happens to reuse the name. Reported against the manifest
/// line.
pub fn stale_lock_entries(cfg: &AnalysisConfig, out: &mut AnalysisOutput) {
    for (index, entry) in cfg.lock_manifest.iter().enumerate() {
        if out.lock_entries_named.contains(&index) {
            continue;
        }
        let scope = entry.path_filter.as_deref().unwrap_or("the workspace");
        out.findings.push(Finding {
            path: MANIFEST_PATH.to_owned(),
            line: entry.line,
            column: 1,
            rule: "lock::stale-entry".to_owned(),
            message: format!(
                "manifest entry `{} {}` names no identifier in non-test code of {scope}; \
                 remove it",
                entry.level, entry.name
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str, cfg: &AnalysisConfig) -> Vec<Finding> {
        let mut out = AnalysisOutput::default();
        analyze_source(path, src, cfg, &mut out);
        let mut f = out.findings;
        f.sort();
        f
    }

    fn rules(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    // --- planted-violation self-tests, one per family ---

    #[test]
    fn planted_determinism_violation_is_caught_with_span() {
        let src = "use std::time::Instant;\nfn deliver() {\n    let t = Instant::now();\n}\n";
        let f = run("crates/net/src/endpoint.rs", src, &AnalysisConfig::default());
        assert_eq!(rules(&f), vec!["determinism::instant-now"]);
        assert_eq!((f[0].line, f[0].column), (3, 13));
    }

    #[test]
    fn planted_panic_violation_is_caught_with_span() {
        let src = "fn recover_node(x: Option<u32>) {\n    let _v = x.unwrap();\n}\n";
        let f = run("crates/core/src/engine.rs", src, &AnalysisConfig::default());
        assert_eq!(rules(&f), vec!["panic::unwrap"]);
        assert_eq!((f[0].line, f[0].column), (2, 16));
    }

    #[test]
    fn planted_lock_order_violation_is_caught_with_span() {
        let cfg = AnalysisConfig { lock_manifest: parse_manifest("10 low\n20 high\n").unwrap() };
        let src = "fn swap() {\n    let a = high.lock();\n    let b = low.lock();\n}\n";
        let f = run("crates/core/src/engine.rs", src, &cfg);
        assert_eq!(rules(&f), vec!["lock::order"]);
        assert_eq!((f[0].line, f[0].column), (3, 13));
        assert!(f[0].message.contains("`low` (level 10) acquired after `high` (level 20"));
    }

    // --- determinism scope and variants ---

    #[test]
    fn determinism_rules_cover_all_four_sources() {
        let src = "fn f() { let a = Instant::now(); let b = SystemTime::now(); \
                   let c: HashMap<u32, u32> = HashMap::new(); let d: HashSet<u32> = HashSet::new(); }";
        let f = run("crates/chaos/src/driver.rs", src, &AnalysisConfig::default());
        assert_eq!(
            rules(&f),
            vec![
                "determinism::instant-now",
                "determinism::system-time-now",
                "determinism::hash-map",
                "determinism::hash-map",
                "determinism::hash-set",
                "determinism::hash-set",
            ]
        );
    }

    #[test]
    fn determinism_ignores_out_of_scope_crates_and_tests() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(run("crates/bench/src/main.rs", src, &AnalysisConfig::default()).is_empty());
        let test_src = "#[cfg(test)] mod tests { fn f() { let t = Instant::now(); } }";
        assert!(run("crates/net/src/endpoint.rs", test_src, &AnalysisConfig::default()).is_empty());
    }

    #[test]
    fn determinism_scope_follows_files_not_function_names() {
        // Whatever a function is called — a rename must not drop it out of
        // scope — a clock read in the engine, the shared phase workers, the
        // node, the cluster rules or the cluster driver is a finding.
        let src = "impl E { fn any_name_at_all(&self) { let t = Instant::now(); } }";
        for path in [
            "crates/core/src/engine.rs",
            "crates/core/src/exec.rs",
            "crates/core/src/node.rs",
            "crates/core/src/failure.rs",
            "crates/common/src/config.rs",
            "crates/serverd/src/coordinator.rs",
        ] {
            assert_eq!(
                rules(&run(path, src, &AnalysisConfig::default())),
                vec!["determinism::instant-now"],
                "{path}"
            );
        }
        // The rest of `crates/common` (clocks, stats) and of `crates/serverd`
        // (the node's fence barrier polls a deadline) stays out of scope.
        for path in ["crates/common/src/stats.rs", "crates/serverd/src/node.rs"] {
            assert!(run(path, src, &AnalysisConfig::default()).is_empty(), "{path}");
        }
    }

    #[test]
    fn bare_instant_type_is_allowed() {
        let src = "fn f(deadline: Instant) -> Instant { deadline }";
        assert!(run("crates/net/src/endpoint.rs", src, &AnalysisConfig::default()).is_empty());
    }

    // --- panic-freedom scope and variants ---

    #[test]
    fn panic_rules_cover_expect_macros_and_indexing() {
        let src = "fn replay_wal(v: Vec<u32>, o: Option<u32>) {\n\
                   let a = o.expect(\"msg\");\n\
                   let b = v[0];\n\
                   panic!(\"boom\");\n\
                   unreachable!();\n}\n";
        let f = run("crates/replication/src/recovery.rs", src, &AnalysisConfig::default());
        assert_eq!(
            rules(&f),
            vec!["panic::expect", "panic::slice-index", "panic::panic", "panic::panic"]
        );
    }

    #[test]
    fn panic_scope_is_name_based() {
        let src = "fn fast_path(v: Vec<u32>) { let a = v[0].clone(); let b = v.first().unwrap(); }";
        assert!(run("crates/core/src/engine.rs", src, &AnalysisConfig::default()).is_empty());
    }

    #[test]
    fn proto_crate_is_panic_free_in_every_function() {
        // The wire-protocol crate decodes network input and the protocol
        // homes decide routing, election and recovery, so they are in scope
        // in full regardless of function name — even a `fast_path`.
        let src = "fn fast_path(v: Vec<u32>) { let a = v[0].clone(); let b = v.first().unwrap(); }";
        let proto = ["crates/proto/src/message.rs", "crates/proto/src/codec.rs"];
        for path in PROTOCOL_HOMES.iter().chain(&proto) {
            let f = run(path, src, &AnalysisConfig::default());
            assert_eq!(rules(&f), vec!["panic::slice-index", "panic::unwrap"], "{path}");
        }
        // The row codec decodes WAL, checkpoint and network bytes: its home
        // is one of them, the in-memory row type beside it is not.
        assert!(PROTOCOL_HOMES.contains(&"crates/common/src/packed.rs"));
        assert!(run("crates/common/src/row.rs", src, &AnalysisConfig::default()).is_empty());
        // Test modules inside them stay exempt.
        let test_src = "#[cfg(test)] mod tests { fn f(o: Option<u32>) { o.unwrap(); } }";
        assert!(run("crates/proto/src/message.rs", test_src, &AnalysisConfig::default()).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn recover_node(o: Option<bool>) -> bool { o.unwrap_or(false) }";
        assert!(run("crates/core/src/engine.rs", src, &AnalysisConfig::default()).is_empty());
    }

    #[test]
    fn array_types_attrs_and_macros_are_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S;\n\
                   fn recover_node(x: [u8; 4]) { let v = vec![1, 2]; let s = S; let _ = (x, v, s); }";
        assert!(run("crates/core/src/engine.rs", src, &AnalysisConfig::default()).is_empty());
    }

    // --- lock hierarchy ---

    #[test]
    fn ascending_acquisition_is_clean() {
        let cfg = AnalysisConfig { lock_manifest: parse_manifest("10 low\n20 high").unwrap() };
        let src = "fn ok() { let a = low.lock(); let b = high.write(); }";
        assert!(run("crates/x/src/l.rs", src, &cfg).is_empty());
    }

    #[test]
    fn path_filters_scope_manifest_entries() {
        let cfg = AnalysisConfig {
            lock_manifest: parse_manifest("10 low crates/a\n20 high crates/a").unwrap(),
        };
        let src = "fn swap() { let a = high.lock(); let b = low.lock(); }";
        assert!(run("crates/b/src/l.rs", src, &cfg).is_empty());
        assert_eq!(rules(&run("crates/a/src/l.rs", src, &cfg)), vec!["lock::order"]);
    }

    #[test]
    fn unmanifested_names_are_ignored() {
        let cfg = AnalysisConfig { lock_manifest: parse_manifest("10 low").unwrap() };
        // `record.read()` is an optimistic read, not a lock acquisition.
        let src = "fn ok() { let a = record.read(); let b = low.lock(); }";
        assert!(run("crates/x/src/l.rs", src, &cfg).is_empty());
    }

    #[test]
    fn duplicate_inversions_report_once_per_pair() {
        let cfg = AnalysisConfig { lock_manifest: parse_manifest("10 low\n20 high").unwrap() };
        let src = "fn swap() { let a = high.lock(); let b = low.lock(); let c = low.lock(); }";
        assert_eq!(rules(&run("crates/x/src/l.rs", src, &cfg)), vec!["lock::order"]);
    }

    #[test]
    fn manifest_entries_unnamed_in_their_scope_are_stale() {
        let cfg = AnalysisConfig {
            lock_manifest: parse_manifest("10 low crates/a\n20 high\n30 gone crates/a\n").unwrap(),
        };
        let mut out = AnalysisOutput::default();
        // `gone` appears only in test code and outside its scope; `high` is
        // named anywhere, which is its scope.
        let src =
            "fn f() { let a = low.lock(); }\n#[cfg(test)] mod tests { fn t() { gone.lock(); } }";
        analyze_source("crates/a/src/l.rs", src, &cfg, &mut out);
        analyze_source(
            "crates/b/src/l.rs",
            "fn g() { let b = high.lock(); gone(); }",
            &cfg,
            &mut out,
        );
        stale_lock_entries(&cfg, &mut out);
        assert_eq!(rules(&out.findings), vec!["lock::stale-entry"]);
        let stale = &out.findings[0];
        assert_eq!((stale.path.as_str(), stale.line), (MANIFEST_PATH, 3));
        assert!(stale.message.contains("`30 gone`"), "{}", stale.message);
    }

    #[test]
    fn manifest_parse_errors_are_reported() {
        assert!(parse_manifest("ten low").is_err());
        assert!(parse_manifest("10").is_err());
        assert!(parse_manifest("10 low crates/a extra").is_err());
        assert_eq!(parse_manifest("# comment\n\n10 low # tail\n").unwrap().len(), 1);
    }

    // --- suppressions ---

    #[test]
    fn suppression_silences_own_and_next_line() {
        let src = "fn f() {\n\
                   // star-lint: allow(determinism::instant-now) -- CLI timing only\n\
                   let t = Instant::now();\n}\n";
        let mut out = AnalysisOutput::default();
        analyze_source("crates/net/src/endpoint.rs", src, &AnalysisConfig::default(), &mut out);
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressions_used, 1);

        let tail =
            "fn f() {\n    let t = Instant::now(); // star-lint: allow(determinism) -- timing\n}\n";
        let f = run("crates/net/src/endpoint.rs", tail, &AnalysisConfig::default());
        assert!(f.is_empty());
    }

    #[test]
    fn suppression_requires_matching_rule() {
        let src = "fn f() {\n\
                   // star-lint: allow(panic::unwrap) -- wrong family\n\
                   let t = Instant::now();\n}\n";
        let f = run("crates/net/src/endpoint.rs", src, &AnalysisConfig::default());
        assert_eq!(rules(&f), vec!["determinism::instant-now"]);
    }

    #[test]
    fn malformed_suppression_is_a_finding() {
        let src = "fn f() {\n// star-lint: allow(determinism::instant-now)\nlet t = 1;\n}\n";
        let f = run("crates/net/src/endpoint.rs", src, &AnalysisConfig::default());
        assert_eq!(rules(&f), vec!["suppression::malformed"]);
        assert_eq!(f[0].line, 2);
    }
}
