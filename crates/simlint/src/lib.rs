//! `ull-simlint` — workspace-wide determinism & sim-purity static analysis.
//!
//! The scientific claim of this repository is that the paper's ULL curves
//! *emerge deterministically* from calibrated mechanisms: identical configs
//! must reproduce identical reports bit-for-bit, or no two benchmark
//! trajectories are comparable across PRs. Hidden nondeterminism — HashMap
//! iteration order, ambient RNG, wall-clock leakage, float time
//! accumulation — silently invalidates every figure. simlint makes those
//! hazards machine-checkable:
//!
//! The analyzer runs in two phases. Phase 1 is lexical and per-file:
//! `source` strips comments/literals, [`lexer`] tokenizes, and
//! [`symbols`] parses item signatures (type aliases, struct fields, fn
//! signatures, `use` renames) — all dependency-free, no `syn`. Phase 2
//! ([`resolve`]) joins every file's symbols into a per-crate
//! [`resolve::CrateContext`] that propagates "unordered-map", "interior-
//! mutable" and "timestamp" taints through aliases, fields and function
//! boundaries, which is what makes S003 type-level and powers the
//! shard-safety family S011-S014. docs/STATIC_ANALYSIS.md walks the
//! architecture.
//!
//! | rule | forbids |
//! |------|---------|
//! | S000 | malformed `simlint:` directives (unknown rule codes, empty justifications) |
//! | S001 | wall-clock access (`std::time::Instant`, `SystemTime`) in sim crates |
//! | S002 | ambient/unseeded RNG (`thread_rng`, `rand::random`, `OsRng`, ...) |
//! | S003 | order-dependent iteration over `HashMap`/`HashSet`, even through type aliases, struct fields and fn boundaries |
//! | S004 | `f64` round-trips in simulation-time arithmetic |
//! | S005 | threading/blocking primitives inside the event-loop crates (`ull-exec`, the sanctioned sweep driver, excepted) |
//! | S006 | `unwrap()`/`expect()`/`panic!` in library code of the core layers |
//! | S007 | floating-point accumulation across iterations (`x += ...` on an f32/f64 binding) |
//! | S008 | ambient entropy or wall-clock seeding inside fault-injection paths (fork the lottery from `FaultPlan::stream(salt)` instead) |
//! | S009 | wall clocks and unordered maps — even without iteration — in observability paths (the `ull-probe` crate and trace/probe modules) |
//! | S010 | per-I/O `String` allocation (`format!`, `.to_string()`, `String::from`) in the request hot path (flash/ssd/nvme/stack and the `ull-workload` engine loops) |
//! | S011 | shared mutable statics / interior mutability (`static mut`, `Cell`, `RefCell`, `Mutex`, atomics, ...) outside the sanctioned `ull-exec` driver |
//! | S012 | address/identity-based ordering or hashing (`ptr::eq`, references cast to `usize`) |
//! | S013 | `unsafe` without a `// simlint: justify(...)` directive |
//! | S014 | `pub` `*Event` structs carrying a `SimTime` without a total order (`derive(Ord)`/`impl Ord` or an explicit `seq` key) |
//!
//! Escape hatch: `// simlint: allow(SNNN): <justification>` on (or directly
//! above) the offending line; `// simlint: allow-file(SNNN): <why>` for a
//! whole file; `// simlint: justify(<why>)` / `justify-file(<why>)` for
//! S013's unsafe-block contract. Every allow must carry a justification —
//! reviewers treat an unjustified allow as a finding, and S000 rejects
//! directives whose rule codes or justification text are missing.
//!
//! The analyzer ships three ways: this library API, the `ull-simlint`
//! binary (human + `--json` output), and the tier-1 integration test
//! `tests/simlint_gate.rs` which fails `cargo test` on any finding.
//!
//! # Examples
//!
//! ```
//! use ull_simlint::{check_source, Finding};
//!
//! let findings = check_source("ssd", "crates/ssd/src/x.rs",
//!     "fn f(t: u64) { let _ = std::time::Instant::now(); }");
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "S001");
//! ```

#![warn(missing_docs)]

pub mod lexer;
mod report;
pub mod resolve;
mod rules;
mod source;
pub mod symbols;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use report::{
    diff_against_baseline, parse_baseline_counts, render_human, render_json, rule_counts,
    BaselineDiff, Finding,
};
pub use rules::{RuleInfo, PANIC_FREE_CRATES, RULES, SIM_CRATES};
pub use source::SourceFile;

/// Result of analyzing a workspace: the findings plus scan statistics.
#[derive(Debug)]
pub struct Analysis {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Analyzes one source string as if it were `path` inside `crate_name`
/// (the directory under `crates/`, or `"root"` for the workspace package).
/// The resolution context is built from this file alone; use
/// [`check_crate`] to resolve aliases and signatures across files.
pub fn check_source(crate_name: &str, path: &str, text: &str) -> Vec<Finding> {
    check_crate(crate_name, &[(path.to_string(), text.to_string())])
}

/// Analyzes all of one crate's files together: phase 1 parses each file's
/// symbols, phase 2 resolves them into a shared [`resolve::CrateContext`],
/// and the rules then see type information that crosses file boundaries
/// (an alias defined in `types.rs`, a tainted fn return used in
/// `engine.rs`). Findings come back sorted by (path, line, rule).
pub fn check_crate(crate_name: &str, files: &[(String, String)]) -> Vec<Finding> {
    let parsed: Vec<(SourceFile, symbols::FileSymbols)> = files
        .iter()
        .map(|(path, text)| {
            let sf = SourceFile::parse(path.clone(), text);
            let sym = symbols::parse(&sf);
            (sf, sym)
        })
        .collect();
    let ctx = resolve::CrateContext::build(parsed.iter().map(|(_, s)| s));
    let mut findings = Vec::new();
    for (sf, sym) in &parsed {
        findings.extend(rules::check_file(crate_name, sf, sym, &ctx));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Walks a workspace rooted at `root` (the directory holding the top-level
/// `Cargo.toml`) and analyzes `src/` of the root package and of every crate
/// under `crates/`. Test (`tests/`), bench (`benches/`) and example trees
/// are outside the purity scope by design — they drive or measure the
/// simulator rather than define it.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut targets: Vec<(String, PathBuf)> = vec![("root".into(), root.join("src"))];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<String> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort(); // deterministic walk order, naturally
        for name in names {
            targets.push((name.clone(), crates_dir.join(&name).join("src")));
        }
    }

    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for (crate_name, src) in targets {
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        // All of a crate's files are analyzed together so the resolution
        // pass sees aliases and signatures across module boundaries.
        let mut crate_files = Vec::with_capacity(files.len());
        for f in &files {
            let text = fs::read_to_string(f)?;
            let rel = f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .replace('\\', "/");
            crate_files.push((rel, text));
            files_scanned += 1;
        }
        findings.extend(check_crate(&crate_name, &crate_files));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Analysis {
        findings,
        files_scanned,
    })
}

/// Finds the workspace root by walking up from `start` until a directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_has_no_findings() {
        let src = "use std::collections::BTreeMap;\n\
                   pub fn f(m: &BTreeMap<u64, u64>) -> u64 { m.values().sum() }\n";
        assert!(check_source("ssd", "crates/ssd/src/x.rs", src).is_empty());
    }

    #[test]
    fn scope_gates_rules_by_crate() {
        let wall = "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n";
        // A crate outside SIM_CRATES (a measurement harness, say) may
        // read the wall clock.
        assert!(check_source("bench", "crates/bench/src/lib.rs", wall).is_empty());
        assert_eq!(
            check_source("stack", "crates/stack/src/x.rs", wall).len(),
            1
        );
        // unwrap is a finding only in the panic-free crates.
        let uw = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(check_source("workload", "crates/workload/src/x.rs", uw).is_empty());
        assert_eq!(
            check_source("nvme", "crates/nvme/src/x.rs", uw)[0].rule,
            "S006"
        );
    }

    #[test]
    fn workspace_root_detection_walks_up() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent);
        let found = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
        assert_eq!(found.as_deref(), root);
    }
}
