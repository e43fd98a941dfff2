//! The sim-purity rule catalogue, S000-S014.
//!
//! Each rule walks the stripped [`SourceFile`] lines — and, since the
//! type-aware upgrade, the per-crate [`CrateContext`] resolved from every
//! file's symbols — and reports [`Finding`]s. The scope of every rule,
//! which crates and paths it applies to and why, is part of the rule
//! definition, so the catalogue below is the single source of truth that
//! docs/DETERMINISM.md documents and the tier-1 gate enforces.

use crate::report::Finding;
use crate::resolve::CrateContext;
use crate::source::{token_positions, DirectiveKind, SourceFile};
use crate::symbols::{AdtKind, FileSymbols};

/// Crates whose `src/` trees are simulation code: everything that feeds
/// simulated time, ordering or randomness. `simlint` is absent from the
/// purity scopes but still walked for S000/S003. `exec` is
/// simulation-adjacent: it must stay free of wall clocks, ambient RNG and
/// float time (S001, S002, S004, S007), but it is the one sanctioned
/// host-parallel driver, so the threading ban (S005) and the shared-state
/// ban (S011) are carved out for it (see `check_file`).
pub const SIM_CRATES: [&str; 13] = [
    "simkit", "faults", "probe", "flash", "ssd", "nvme", "stack", "netblock", "nexus", "workload",
    "core", "exec", "root",
];

/// Crates whose library code must not contain panicking escape hatches
/// (S006): the layers every experiment sits on.
pub const PANIC_FREE_CRATES: [&str; 6] = ["simkit", "faults", "probe", "ssd", "nvme", "stack"];

/// Static description of one rule, for `--list-rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule code, e.g. `"S001"`.
    pub code: &'static str,
    /// One-line gist, short enough for a docs table row. The drift guard
    /// (`tests/docs_drift.rs`) asserts docs/DETERMINISM.md carries these
    /// verbatim, so edits here must land there too.
    pub brief: &'static str,
    /// Full summary: what is forbidden and what to do instead.
    pub summary: &'static str,
    /// Which files the rule applies to, in words.
    pub scope: &'static str,
}

/// The rule catalogue. S000 (directive hygiene) leads: a malformed
/// directive can silently disable any other rule, so it is checked first
/// and cannot itself be suppressed.
pub const RULES: [RuleInfo; 15] = [
    RuleInfo {
        code: "S000",
        brief: "malformed simlint directives (unknown rule codes, empty justifications)",
        summary: "every `// simlint: allow(...)` must list known rule codes and every \
                  `justify(...)` must carry non-empty text; a typo in a directive would \
                  otherwise silently disable enforcement",
        scope: "src/ of every workspace crate; not suppressible",
    },
    RuleInfo {
        code: "S001",
        brief: "no wall-clock access in simulation code",
        summary: "no wall-clock access (std::time::Instant / SystemTime) in simulation code; \
                  all timing must flow through SimTime/SimDuration",
        scope: "src/ of simulation crates (simkit, flash, ssd, nvme, stack, netblock, workload, core, root)",
    },
    RuleInfo {
        code: "S002",
        brief: "no ambient or OS-seeded randomness in simulation code",
        summary: "no ambient or OS-seeded randomness (thread_rng, rand::random, from_entropy, \
                  OsRng, getrandom, RandomState); every stream must fork from a seeded SplitMix64",
        scope: "src/ of simulation crates",
    },
    RuleInfo {
        code: "S003",
        brief: "no order-dependent iteration over unordered maps, even through aliases and fn boundaries",
        summary: "no order-dependent iteration over HashMap/HashSet (.iter/.keys/.values/.drain/\
                  .retain/for-in), including maps reached through type aliases, struct fields \
                  and function return values; iterated maps must be BTreeMap/BTreeSet or sorted first",
        scope: "src/ of every workspace crate",
    },
    RuleInfo {
        code: "S004",
        brief: "no f64 round-trips in simulation-time arithmetic",
        summary: "no f64 round-trips in simulation-time arithmetic (as_nanos() as f64, \
                  from_micros_f64(x.as_micros_f64()*...)); use the integer ops or the \
                  as_*_f64() reporting accessors one-way only",
        scope: "src/ of simulation crates, except simkit/src/time.rs which defines the accessors",
    },
    RuleInfo {
        code: "S005",
        brief: "no host threading or blocking primitives inside the event-loop crates",
        summary: "no host threading or blocking primitives (thread::spawn/sleep, Mutex, RwLock, \
                  Condvar, mpsc) inside the event-loop crates; the simulator is single-threaded \
                  by construction",
        scope: "src/ of simulation crates, except ull-exec — the sanctioned host-parallel sweep \
                driver (its determinism argument lives in docs/DETERMINISM.md)",
    },
    RuleInfo {
        code: "S006",
        brief: "no panicking escape hatches in library code of the core layers",
        summary: "no unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! in library code \
                  paths; return Result or justify the invariant with an allow directive",
        scope: "src/ of simkit, ssd, nvme, stack (tests and benches exempt)",
    },
    RuleInfo {
        code: "S007",
        brief: "no floating-point accumulation across iterations in simulation code",
        summary: "no floating-point accumulation across iterations (`x += ...` / `-=` / `*=` on \
                  an f32/f64 binding) in simulation code; the running value depends on summation \
                  order, so accumulate in integer units (nanoseconds, nanojoules, counts) or \
                  justify the fixed order with an allow directive",
        scope: "src/ of simulation crates, except simkit/src/time.rs which defines the integer \
                time arithmetic",
    },
    RuleInfo {
        code: "S008",
        brief: "no ambient entropy or wall-clock seeding in fault-injection paths",
        summary: "no ambient entropy or wall-clock seeding in fault-injection paths (SystemTime, \
                  DefaultHasher, env::var, process::id, thread_rng, ...); every fault lottery \
                  must fork from the plan's seeded SplitMix64 streams so a fault run replays \
                  byte-identically",
        scope: "src/ files of simulation crates whose path mentions faults (the ull-faults crate \
                and any fault_*.rs module)",
    },
    RuleInfo {
        code: "S009",
        brief: "no wall clocks or unordered maps in observability paths",
        summary: "no wall clocks and no unordered maps (HashMap/HashSet, even without iteration) \
                  in observability paths; span/metric state must live in Vec/BTreeMap so traced \
                  output is byte-identical across --jobs values and replays",
        scope: "src/ files of the ull-probe crate and any trace/probe-named module in other \
                crates (trace.rs, *_trace.rs, probe.rs, *_probe.rs)",
    },
    RuleInfo {
        code: "S010",
        brief: "no per-I/O String allocation in the request hot path",
        summary: "no per-I/O String allocation (format!, .to_string(), String::from) in the \
                  request hot path; labels must be &'static str or ull_simkit::Label, and \
                  error text belongs on cold paths with a justified allow directive",
        scope: "src/ of the per-I/O crates flash, ssd, nvme (except admin.rs — admin commands \
                are not per-I/O) and stack, plus ull-workload's engine loops \
                (runner.rs, pattern.rs, trace.rs)",
    },
    RuleInfo {
        code: "S011",
        brief: "no shared mutable statics or interior mutability outside the exec driver",
        summary: "no shared mutable state in simulation code: `static mut`, thread_local!, \
                  Cell/RefCell/UnsafeCell, OnceCell/OnceLock/LazyLock, Mutex/RwLock and atomics \
                  are all banned — including when laundered through a type alias — because any \
                  of them lets two shards observe each other; state must be owned by the shard \
                  or passed explicitly",
        scope: "src/ of simulation crates, except ull-exec — the sanctioned host-parallel \
                driver owns the cross-worker machinery",
    },
    RuleInfo {
        code: "S012",
        brief: "no address- or identity-based ordering or hashing in simulation code",
        summary: "no address- or identity-based ordering or hashing: ptr::eq / ptr::hash for \
                  ordering decisions, references or as_ptr() cast to usize — allocation \
                  addresses differ across runs and shards, so any order derived from them is \
                  nondeterministic; compare and hash by value or by explicit id",
        scope: "src/ of simulation crates (including ull-exec: identity ordering is \
                nondeterministic on any thread count)",
    },
    RuleInfo {
        code: "S013",
        brief: "every unsafe block in sim crates carries a justify directive",
        summary: "every `unsafe` occurrence in simulation code must carry a \
                  `// simlint: justify(<why the invariant holds>)` directive on or above the \
                  line (or `justify-file(...)` for an FFI shim module); the workspace also \
                  denies unsafe_code via Cargo lints, so this rule documents the exceptions \
                  wherever that deny is ever relaxed",
        scope: "src/ of simulation crates",
    },
    RuleInfo {
        code: "S014",
        brief: "timestamped event structs exchanged across modules derive a total order",
        summary: "pub structs named *Event carrying a SimTime field must define a total order \
                  for shard-merge determinism: derive(Ord) / impl Ord, or carry an explicit \
                  sequence key (a `seq` field alongside the timestamp) so ties break the same \
                  way on every shard count",
        scope: "src/ of simulation crates",
    },
];

/// Runs every applicable rule over one parsed file belonging to
/// `crate_name` (the directory under `crates/`, or `"root"`), using the
/// crate-wide resolution context built from all of its files' symbols.
pub fn check_file(
    crate_name: &str,
    file: &SourceFile,
    sym: &FileSymbols,
    ctx: &CrateContext,
) -> Vec<Finding> {
    let sim = SIM_CRATES.contains(&crate_name);
    let panic_free = PANIC_FREE_CRATES.contains(&crate_name);
    let is_time_rs = file.path.ends_with("simkit/src/time.rs");

    let mut out = Vec::new();
    check_s000(file, &mut out);
    if sim {
        check_tokens(file, "S001", &S001_TOKENS, S001_MSG, &mut out);
        check_tokens(file, "S002", &S002_TOKENS, S002_MSG, &mut out);
        // `exec` is the scoped worker pool that runs independent sweep
        // cells on host threads — the one place threading and shared
        // cross-worker state are the point.
        if crate_name != "exec" {
            check_tokens(file, "S005", &S005_TOKENS, S005_MSG, &mut out);
            check_tokens(file, "S011", &S011_TOKENS, S011_MSG, &mut out);
            check_s011_resolved(file, sym, ctx, &mut out);
        }
        if !is_time_rs {
            check_s004(file, &mut out);
            check_s007(file, &mut out);
        }
        // Fault-plan paths carry the strictest seeding discipline: the
        // whole point of ull-faults is byte-identical replay, so any
        // ambient seed source — not just the S001/S002 classics —
        // breaks the contract.
        if is_fault_path(&file.path) {
            check_tokens(file, "S008", &S008_TOKENS, S008_MSG, &mut out);
        }
        check_s012(file, &mut out);
        check_s013(file, &mut out);
        check_s014(file, sym, ctx, &mut out);
    }
    check_s003(file, sym, ctx, &mut out);
    // Observability paths (the ull-probe crate and trace/probe modules in
    // any crate) promise byte-identical output across `--jobs` values and
    // replays, so they ban wall clocks and unordered maps *outright*:
    // S003 only catches iteration, but a HashMap's mere presence in a
    // span/metric structure invites one.
    if is_probe_path(&file.path) {
        check_tokens(file, "S009", &S009_TIME_TOKENS, S009_TIME_MSG, &mut out);
        check_tokens(file, "S009", &S009_MAP_TOKENS, S009_MAP_MSG, &mut out);
    }
    // Per-I/O hot paths promise a steady state free of String churn: one
    // format! in a million-IOPS loop is an allocator call per simulated
    // I/O, and such calls dominated the early hot-path profiles
    // (docs/PERFORMANCE.md).
    if is_hot_path(crate_name, &file.path) {
        check_tokens(file, "S010", &S010_TOKENS, S010_MSG, &mut out);
    }
    if panic_free {
        check_s006(file, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

const S001_TOKENS: [&str; 4] = ["std::time", "Instant::now", "SystemTime", "clock_gettime"];
const S001_MSG: &str =
    "wall-clock access in simulation code; derive all timing from SimTime/SimDuration";

const S002_TOKENS: [&str; 6] = [
    "thread_rng",
    "rand::random",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
];
const S002_MSG: &str = "ambient/unseeded randomness; fork a seeded SplitMix64 stream instead";

const S005_TOKENS: [&str; 7] = [
    "thread::spawn",
    "thread::sleep",
    "thread::Builder",
    "Mutex",
    "RwLock",
    "Condvar",
    "mpsc::",
];
const S005_MSG: &str = "host threading/blocking primitive inside the single-threaded event loop";

/// Whether a path belongs to the fault-injection subsystem: the
/// `ull-faults` crate itself, or a `fault`-named module in any layer
/// (`faults.rs`, `fault_state.rs`, ...).
fn is_fault_path(path: &str) -> bool {
    let file = path.rsplit('/').next().unwrap_or(path);
    path.contains("crates/faults/") || file.starts_with("fault")
}

const S008_TOKENS: [&str; 10] = [
    "SystemTime",
    "Instant::now",
    "DefaultHasher",
    "RandomState",
    "env::var",
    "env::vars",
    "process::id",
    "thread_rng",
    "from_entropy",
    "OsRng",
];
const S008_MSG: &str = "ambient seed source in a fault-injection path; fork the lottery from \
                        FaultPlan::stream(salt) so the same plan replays the same faults";

/// Whether a path belongs to the observability subsystem: the `ull-probe`
/// crate itself, or a trace/probe-named module in any layer (`trace.rs`,
/// `chrome_trace.rs`, `host_probe.rs`, ...).
fn is_probe_path(path: &str) -> bool {
    let file = path.rsplit('/').next().unwrap_or(path);
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    path.contains("crates/probe/")
        || stem == "trace"
        || stem == "probe"
        || stem.ends_with("_trace")
        || stem.ends_with("_probe")
}

const S009_TIME_TOKENS: [&str; 4] = ["std::time", "Instant::now", "SystemTime", "clock_gettime"];
const S009_TIME_MSG: &str = "wall-clock access in an observability path; spans and metrics must \
                             carry sim time only, or traced runs stop replaying byte-identically";

/// Whether a path belongs to the per-I/O request hot path (S010 scope):
/// everything a 4 KB I/O touches between the engine loop and the flash
/// timing model. `nvme/src/admin.rs` is carved out — identify/log-page
/// commands run once per device, not once per I/O — as is the rest of
/// `ull-workload` (spec building and report assembly run once per job).
fn is_hot_path(crate_name: &str, path: &str) -> bool {
    let file = path.rsplit('/').next().unwrap_or(path);
    match crate_name {
        "flash" | "ssd" | "stack" => true,
        "nvme" => file != "admin.rs",
        "workload" => matches!(file, "runner.rs" | "pattern.rs" | "trace.rs"),
        _ => false,
    }
}

// NB: the method token is spelled without the leading dot — the
// word-boundary scan requires a non-identifier byte before a match, and
// `.to_string()` is always preceded by an identifier. `to_string()` after
// a `.` passes the boundary check; `into_string()` does not false-positive
// because its `t` is preceded by `_`.
const S010_TOKENS: [&str; 3] = ["format!", "to_string()", "String::from("];
const S010_MSG: &str = "String allocation on a per-I/O hot path; use &'static str or \
                        ull_simkit::Label for labels, or justify a cold branch (error \
                        reporting, setup) with `// simlint: allow(S010): <why>`";

const S009_MAP_TOKENS: [&str; 2] = ["HashMap", "HashSet"];
const S009_MAP_MSG: &str = "unordered map in an observability path; key span/metric state with \
                            Vec or BTreeMap/BTreeSet so merge and serialization order is \
                            deterministic across --jobs values";

fn check_tokens(
    file: &SourceFile,
    rule: &'static str,
    tokens: &[&str],
    msg: &str,
    out: &mut Vec<Finding>,
) {
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test || file.allowed(lineno, rule) {
            continue;
        }
        for tok in tokens {
            if crate::source::contains_token(&line.code, tok) {
                out.push(Finding::new(
                    rule,
                    &file.path,
                    lineno,
                    &line.raw,
                    format!("`{tok}`: {msg}"),
                ));
                break; // one finding per line per rule
            }
        }
    }
}

// ------------------------------------------------------------------ S000

fn check_s000(file: &SourceFile, out: &mut Vec<Finding>) {
    let known = |code: &str| RULES.iter().any(|r| r.code == code);
    for d in file.directives() {
        let raw = file
            .lines
            .get(d.line.wrapping_sub(1))
            .map(|l| l.raw.as_str())
            .unwrap_or("");
        match d.kind {
            DirectiveKind::Allow | DirectiveKind::AllowFile => {
                if d.codes.is_empty() {
                    out.push(Finding::new(
                        "S000",
                        &file.path,
                        d.line,
                        raw,
                        "simlint allow directive lists no rule codes; write \
                         `allow(SNNN): <why>`"
                            .to_string(),
                    ));
                }
                for code in &d.codes {
                    if !known(code) {
                        out.push(Finding::new(
                            "S000",
                            &file.path,
                            d.line,
                            raw,
                            format!(
                                "unknown rule code `{code}` in simlint directive; a typo here \
                                 silently disables nothing — see --list-rules for the catalogue"
                            ),
                        ));
                    }
                }
            }
            DirectiveKind::Justify | DirectiveKind::JustifyFile => {
                if d.text.is_empty() {
                    out.push(Finding::new(
                        "S000",
                        &file.path,
                        d.line,
                        raw,
                        "empty simlint justify directive; state why the unsafe invariant \
                         holds — `justify(<why>)`"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

// ------------------------------------------------------------------ S003

/// Methods whose result order leaks HashMap/HashSet bucket order.
const ORDER_METHODS: [&str; 10] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

fn check_s003(file: &SourceFile, sym: &FileSymbols, ctx: &CrateContext, out: &mut Vec<Finding>) {
    // Tainted names: the lexical pass (`name: HashMap<..>`, `name =
    // HashMap::new()`), crate-wide fields/statics resolved by type, and
    // this file's params and lets (kept file-local so a name collision in
    // another file cannot taint unrelated code).
    let mut hash_names = collect_hash_bindings(file);
    hash_names.extend(ctx.unordered_bindings.iter().cloned());
    for f in &sym.fns {
        for p in &f.params {
            if !p.in_test && ctx.is_unordered(sym, &p.ty) {
                hash_names.insert(p.name.clone());
            }
        }
    }
    for l in &sym.lets {
        if l.in_test {
            continue;
        }
        let tainted = ctx.is_unordered(sym, &l.ty)
            || match l.init.as_slice() {
                [] => false,
                // `let m = build();` — a call of a fn returning unordered.
                [single] => ctx.unordered_fns.contains(single),
                // `let m = Frontier::new();` / `frontier::build()` — either
                // the leading type resolves unordered or the trailing fn
                // is known to return one.
                [head, .., last] => {
                    ctx.is_unordered_name(sym, head) || ctx.unordered_fns.contains(last)
                }
            };
        if tainted {
            hash_names.insert(l.name.clone());
        }
    }

    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test || file.allowed(lineno, "S003") {
            continue;
        }
        let code = &line.code;
        let mut hit: Option<String> = None;
        for m in ORDER_METHODS {
            for pos in find_all(code, m) {
                if let Some(name) = ident_ending_at(code, pos) {
                    if hash_names.contains(name) {
                        hit = Some(format!("`{name}{m}`"));
                    }
                } else if let Some(callee) = call_result_ident(code, pos) {
                    // `build_frontier().iter()` — iterating the unordered
                    // result of a call, never stored in a binding.
                    if ctx.unordered_fns.contains(callee) {
                        hit = Some(format!("`{callee}(){m}`"));
                    }
                }
            }
        }
        // for PAT in [&[mut]] NAME ... | for PAT in NAME(...)
        if hit.is_none() {
            for pos in token_positions(code, "for") {
                if let Some((name, is_call)) = for_loop_iterable(code, pos) {
                    let flagged = if is_call {
                        ctx.unordered_fns.contains(name.as_str())
                    } else {
                        hash_names.contains(name.as_str())
                    };
                    if flagged {
                        hit = Some(format!("`for _ in {name}`"));
                    }
                }
            }
        }
        if let Some(what) = hit {
            out.push(Finding::new(
                "S003",
                &file.path,
                lineno,
                &line.raw,
                format!(
                    "{what} iterates a HashMap/HashSet in bucket order; switch the map to \
                     BTreeMap/BTreeSet or sort before iterating"
                ),
            ));
        }
    }
}

/// Collects identifiers bound to a HashMap/HashSet anywhere in the file:
/// `name: HashMap<..>` (fields, params, typed lets) and
/// `[let [mut]] name = HashMap::new()/with_capacity/from(..)`.
fn collect_hash_bindings(file: &SourceFile) -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    for line in &file.lines {
        let code = &line.code;
        for ty in ["HashMap", "HashSet"] {
            for pos in token_positions(code, ty) {
                // Walk back over `std::collections::` / whitespace.
                let mut head = code[..pos].trim_end();
                if let Some(stripped) = head.strip_suffix("std::collections::") {
                    head = stripped.trim_end();
                } else if let Some(stripped) = head.strip_suffix("collections::") {
                    head = stripped.trim_end();
                }
                if let Some(rest) = head.strip_suffix(':') {
                    // `name: HashMap<..>` — reject `::` paths.
                    let rest = rest.strip_suffix(':').map(|_| "").unwrap_or(rest);
                    if let Some(name) = trailing_ident(rest.trim_end()) {
                        names.insert(name.to_string());
                    }
                } else if let Some(rest) = head.strip_suffix('=') {
                    // `name = HashMap::new()` / `let mut name = HashMap::...`.
                    if let Some(name) = trailing_ident(rest.trim_end()) {
                        names.insert(name.to_string());
                    }
                }
            }
        }
    }
    names
}

/// The iterable of a `for PAT in EXPR` header starting at the `for`
/// token: a plain (possibly `&`/`&mut`/`self.`-prefixed) identifier, or a
/// direct call `name(...)` — the bool is true for the call form.
fn for_loop_iterable(code: &str, for_pos: usize) -> Option<(String, bool)> {
    let after = &code[for_pos + 3..];
    let in_rel = token_positions(after, "in").into_iter().next()?;
    let mut rest = after[in_rel + 2..].trim_start();
    rest = rest.strip_prefix("&mut ").unwrap_or(rest);
    rest = rest.strip_prefix('&').unwrap_or(rest).trim_start();
    rest = rest.strip_prefix("self.").unwrap_or(rest);
    let end = rest
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    let name = &rest[..end];
    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    // `map.keys()` is handled by the method pass; `m[0]`, `0..n` are not
    // idents; `name(...)` is the call form.
    let follow = rest[end..].trim_start();
    if follow.starts_with('(') {
        return Some((name.to_string(), true));
    }
    if follow.starts_with('.') || follow.starts_with('[') {
        return None;
    }
    Some((name.to_string(), false))
}

/// If the text before byte `end` is a call `callee(...)`, returns the
/// callee identifier — used for `build().iter()`-style chains.
fn call_result_ident(code: &str, end: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    if end == 0 || bytes[end - 1] != b')' {
        return None;
    }
    let mut depth = 0i32;
    let mut i = end;
    while i > 0 {
        i -= 1;
        match bytes[i] {
            b')' => depth += 1,
            b'(' => {
                depth -= 1;
                if depth == 0 {
                    return ident_ending_at(code, i);
                }
            }
            _ => {}
        }
    }
    None
}

fn find_all(code: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = code[from..].find(needle) {
        out.push(from + p);
        from += p + needle.len();
    }
    out
}

/// The identifier a string ends with, if any.
fn trailing_ident(s: &str) -> Option<&str> {
    ident_ending_at(s, s.len())
}

/// The identifier (last path segment) ending right before byte `end`.
fn ident_ending_at(code: &str, end: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut start = end;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    if start == end {
        return None;
    }
    Some(&code[start..end])
}

// ------------------------------------------------------------------ S004

fn check_s004(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test || file.allowed(lineno, "S004") {
            continue;
        }
        let code = &line.code;
        let raw_cast = code.contains(".as_nanos() as f64") || code.contains(".as_nanos() as f32");
        let round_trip = code.contains("from_micros_f64(")
            && [
                ".as_micros_f64()",
                ".as_secs_f64()",
                ".as_nanos_f64()",
                ".as_millis_f64()",
            ]
            .iter()
            .any(|a| code.contains(a));
        if raw_cast {
            out.push(Finding::new(
                "S004",
                &file.path,
                lineno,
                &line.raw,
                "raw float cast of sim time (`as_nanos() as f64`); use the as_*_f64() \
                 reporting accessors or SimDuration::ratio()"
                    .to_string(),
            ));
        } else if round_trip {
            out.push(Finding::new(
                "S004",
                &file.path,
                lineno,
                &line.raw,
                "sim time round-trips through f64 (accessor feeding from_micros_f64); \
                 keep the arithmetic in integer nanoseconds (mul_f64, Mul/Div) instead"
                    .to_string(),
            ));
        }
    }
}

// ------------------------------------------------------------------ S007

const S007_MSG: &str = "accumulates a float across iterations; the result depends on summation \
                        order — accumulate in integer units or justify the fixed order with \
                        `// simlint: allow(S007): <why>`";

fn check_s007(file: &SourceFile, out: &mut Vec<Finding>) {
    let float_names = collect_float_bindings(file);
    if float_names.is_empty() {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test || file.allowed(lineno, "S007") {
            continue;
        }
        let code = &line.code;
        for op in ["+=", "-=", "*="] {
            let Some(pos) = code.find(op) else { continue };
            // The assignment target: `self.total_nj`, `bins_nj[idx]`, `acc`.
            let mut lhs = code[..pos].trim_end();
            if lhs.ends_with(']') {
                // Strip one trailing index: `bins_nj[idx]` -> `bins_nj`.
                if let Some(open) = lhs.rfind('[') {
                    lhs = lhs[..open].trim_end();
                }
            }
            if let Some(name) = trailing_ident(lhs) {
                if float_names.contains(name) {
                    out.push(Finding::new(
                        "S007",
                        &file.path,
                        lineno,
                        &line.raw,
                        format!("`{name} {op}`: {S007_MSG}"),
                    ));
                    break;
                }
            }
        }
    }
}

/// Collects identifiers bound to an f32/f64 anywhere in the file:
/// `name: f64` (fields, params, typed lets, including `Vec<f64>` /
/// `[f64; N]` element bindings) and `let [mut] name = <float literal>`.
fn collect_float_bindings(file: &SourceFile) -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    for line in &file.lines {
        let code = &line.code;
        // `name: f64` and friends.
        for pos in find_all(code, ":") {
            let after = code[pos + 1..].trim_start();
            let floaty = ["f64", "f32", "Vec<f64>", "Vec<f32>", "[f64", "[f32"]
                .iter()
                .any(|ty| after.starts_with(ty));
            if !floaty {
                continue;
            }
            let head = code[..pos].trim_end();
            if head.ends_with(':') {
                continue; // `path::f64` is not a binding
            }
            if let Some(name) = trailing_ident(head) {
                names.insert(name.to_string());
            }
        }
        // `let [mut] name = 0.0` / `= 0.0f64` / `= 0f32`.
        if let Some(rest) = code.trim_start().strip_prefix("let ") {
            let rest = rest.trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            if let Some(eq) = rest.find('=') {
                let name = rest[..eq].trim();
                let is_ident = !name.is_empty()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && !name.starts_with(|c: char| c.is_ascii_digit());
                if is_ident && is_float_literal(rest[eq + 1..].trim_start()) {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

/// Whether `s` starts with a float literal (`0.0`, `1.5f64`, `-2f32`)
/// followed by nothing but an optional `;`.
fn is_float_literal(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s).trim_start();
    if !s.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '_'))
        .unwrap_or(s.len());
    let (num, rest) = s.split_at(end);
    let suffixed = rest.starts_with("f64") || rest.starts_with("f32");
    let tail = if suffixed { &rest[3..] } else { rest }.trim();
    (num.contains('.') || suffixed) && (tail.is_empty() || tail == ";")
}

// ------------------------------------------------------------------ S006

const PANIC_METHODS: [&str; 2] = [".unwrap()", ".expect("];
const PANIC_MACROS: [&str; 4] = ["panic!", "unreachable!", "todo!", "unimplemented!"];

fn check_s006(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test || file.allowed(lineno, "S006") {
            continue;
        }
        let code = &line.code;
        let mut what: Option<&str> = None;
        for m in PANIC_METHODS {
            if code.contains(m) {
                what = Some(m);
                break;
            }
        }
        if what.is_none() {
            for m in PANIC_MACROS {
                if token_positions(code, m.trim_end_matches('!'))
                    .iter()
                    .any(|&p| code[p..].starts_with(m))
                {
                    what = Some(m);
                    break;
                }
            }
        }
        if let Some(w) = what {
            out.push(Finding::new(
                "S006",
                &file.path,
                lineno,
                &line.raw,
                format!(
                    "`{w}` in library code; return a Result/Option, restructure, or justify the \
                     invariant with `// simlint: allow(S006): <why>`"
                ),
            ));
        }
    }
}

// ------------------------------------------------------------------ S011

// NB: `Cell` is matched only in its generic (`Cell<`), path (`cell::Cell`)
// and constructor (`Cell::new`) spellings — the bare name collides with the
// sweep framework's `type Cell` associated type (a plain data row, nothing
// interior-mutable about it).
const S011_TOKENS: [&str; 25] = [
    "static mut",
    "thread_local",
    "Cell<",
    "cell::Cell",
    "Cell::new",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyCell",
    "LazyLock",
    "Mutex",
    "RwLock",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
];
const S011_MSG: &str = "shared mutable state in simulation code; shards must own their state or \
                        receive it explicitly — interior mutability lets two shards observe \
                        each other and breaks replay";

/// The resolution half of S011: declarations whose *alias-laundered* type
/// is interior-mutable. The token pass above already reports lines where a
/// base name (`RefCell`, `Mutex`, ...) appears literally — including the
/// alias definition itself — so this pass only fires when the head is an
/// alias, keeping one finding per offending line.
fn check_s011_resolved(
    file: &SourceFile,
    sym: &FileSymbols,
    ctx: &CrateContext,
    out: &mut Vec<Finding>,
) {
    let mut flag = |name: &str, line: usize| {
        if line_in_test(file, line) || file.allowed(line, "S011") {
            return;
        }
        let raw = file
            .lines
            .get(line.wrapping_sub(1))
            .map(|l| l.raw.as_str())
            .unwrap_or("");
        out.push(Finding::new(
            "S011",
            &file.path,
            line,
            raw,
            format!("`{name}` resolves to an interior-mutable type through an alias; {S011_MSG}"),
        ));
    };
    for st in &sym.statics {
        if !ctx.is_direct_interior(&st.ty) && ctx.is_interior(sym, &st.ty) {
            flag(&st.name, st.line);
        }
    }
    for s in &sym.structs {
        for f in &s.fields {
            if !ctx.is_direct_interior(&f.ty) && ctx.is_interior(sym, &f.ty) {
                flag(&f.name, f.line);
            }
        }
    }
    for l in &sym.lets {
        if !l.ty.is_empty() && !ctx.is_direct_interior(&l.ty) && ctx.is_interior(sym, &l.ty) {
            flag(&l.name, l.line);
        }
    }
}

fn line_in_test(file: &SourceFile, line: usize) -> bool {
    file.lines
        .get(line.wrapping_sub(1))
        .is_some_and(|l| l.in_test)
}

// ------------------------------------------------------------------ S012

const S012_MSG: &str = "allocation addresses differ across runs and shards, so any order or \
                        hash derived from them is nondeterministic; compare and hash by value \
                        or by an explicit id field";

fn check_s012(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test || file.allowed(lineno, "S012") {
            continue;
        }
        let code = &line.code;
        let what = if crate::source::contains_token(code, "ptr::eq") {
            Some("`ptr::eq` identity comparison")
        } else if crate::source::contains_token(code, "ptr::hash") {
            Some("`ptr::hash` address hashing")
        } else if code.contains(".as_ptr() as usize") {
            Some("`.as_ptr() as usize` address cast")
        } else if let Some(p) = code.find("as *const").or_else(|| code.find("as *mut")) {
            code[p..]
                .contains("as usize")
                .then_some("reference cast to a raw address")
        } else {
            None
        };
        if let Some(w) = what {
            out.push(Finding::new(
                "S012",
                &file.path,
                lineno,
                &line.raw,
                format!("{w}: {S012_MSG}"),
            ));
        }
    }
}

// ------------------------------------------------------------------ S013

const S013_MSG: &str = "`unsafe` in simulation code without a justification; state the invariant \
                        with `// simlint: justify(<why it holds>)` on or above the line (the \
                        workspace otherwise denies unsafe_code outright)";

fn check_s013(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test || file.allowed(lineno, "S013") || file.justified(lineno) {
            continue;
        }
        if crate::source::contains_token(&line.code, "unsafe") {
            out.push(Finding::new(
                "S013",
                &file.path,
                lineno,
                &line.raw,
                S013_MSG.to_string(),
            ));
        }
    }
}

// ------------------------------------------------------------------ S014

fn check_s014(file: &SourceFile, sym: &FileSymbols, ctx: &CrateContext, out: &mut Vec<Finding>) {
    for s in &sym.structs {
        if s.in_test
            || !s.is_pub
            || s.kind == AdtKind::Enum
            || !s.name.ends_with("Event")
            || file.allowed(s.line, "S014")
        {
            continue;
        }
        let timestamped = s.fields.iter().any(|f| ctx.is_timestamp(sym, &f.ty));
        if !timestamped {
            continue;
        }
        let has_order = s.derives.iter().any(|d| d == "Ord")
            || ctx.has_ord_impl(&s.name)
            || s.fields
                .iter()
                .any(|f| f.name == "seq" || f.name == "sequence");
        if !has_order {
            let raw = file
                .lines
                .get(s.line.wrapping_sub(1))
                .map(|l| l.raw.as_str())
                .unwrap_or("");
            out.push(Finding::new(
                "S014",
                &file.path,
                s.line,
                raw,
                format!(
                    "`{}` carries a SimTime but defines no total order; shard-merge ties would \
                     break nondeterministically — derive(Ord)/impl Ord or add an explicit `seq` \
                     sequence key next to the timestamp",
                    s.name
                ),
            ));
        }
    }
}
