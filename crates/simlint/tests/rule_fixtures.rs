//! Per-rule fixture tests: for every rule S000-S014 one fixture that
//! triggers it and one that passes, plus escape-hatch and scoping checks.
//!
//! These are the analyzer's regression suite: each fixture encodes the
//! hazard the rule exists to catch (wall-clock leakage, ambient RNG,
//! bucket-order iteration, float time drift, host threading, panicking
//! library paths, per-I/O allocation churn) in its smallest reproducible
//! form.

use ull_simlint::{check_crate, check_source};

/// Convenience: analyze `src` as a file of the `ssd` sim crate.
fn sim(src: &str) -> Vec<String> {
    check_source("ssd", "crates/ssd/src/fixture.rs", src)
        .into_iter()
        .map(|f| format!("{}:{}", f.rule, f.line))
        .collect()
}

// ------------------------------------------------------------------ S001

#[test]
fn s001_flags_wall_clock_access() {
    let bad = "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let rules = sim(bad);
    assert_eq!(
        rules,
        ["S001:1", "S001:2"],
        "every wall-clock line is a finding"
    );
}

#[test]
fn s001_passes_sim_time() {
    let good = "use ull_simkit::SimTime;\npub fn now(t: SimTime) -> u64 { t.as_nanos() }\n";
    assert!(sim(good).is_empty());
}

#[test]
fn s001_ignores_strings_and_comments() {
    let ok = "// std::time::Instant is banned here\npub const DOC: &str = \"SystemTime\";\n";
    assert!(sim(ok).is_empty());
}

// ------------------------------------------------------------------ S002

#[test]
fn s002_flags_ambient_rng() {
    let bad = "pub fn roll() -> u64 {\n    let mut r = thread_rng();\n    r.gen()\n}\n";
    assert_eq!(sim(bad), ["S002:2"]);
    assert_eq!(
        sim("pub fn seed() -> u64 { OsRng.next_u64() }\n"),
        ["S002:1"]
    );
}

#[test]
fn s002_passes_seeded_splitmix() {
    let good = "use ull_simkit::SplitMix64;\n\
                pub fn roll(seed: u64) -> u64 { SplitMix64::new(seed).next_u64() }\n";
    assert!(sim(good).is_empty());
}

// ------------------------------------------------------------------ S003

#[test]
fn s003_flags_hashmap_iteration() {
    let bad = "use std::collections::HashMap;\n\
               pub fn sum(m: HashMap<u64, u64>) -> u64 {\n\
                   let mut s = 0;\n\
                   for v in m.values() { s += v; }\n\
                   s\n\
               }\n";
    assert_eq!(sim(bad), ["S003:4"]);
}

#[test]
fn s003_flags_retain_and_for_loops() {
    let retain = "use std::collections::HashMap;\n\
                  pub struct S { live: HashMap<u64, u64> }\n\
                  impl S { pub fn gc(&mut self) { self.live.retain(|_, v| *v > 0); } }\n";
    assert_eq!(sim(retain), ["S003:3"]);
    let for_loop = "use std::collections::HashSet;\n\
                    pub fn f(seen: HashSet<u32>) -> u32 {\n\
                        let mut n = 0;\n\
                        for _ in &seen { n += 1; }\n\
                        n\n\
                    }\n";
    assert_eq!(sim(for_loop), ["S003:4"]);
}

#[test]
fn s003_passes_btreemap_and_non_iterating_hashmap() {
    let btree = "use std::collections::BTreeMap;\n\
                 pub fn sum(m: &BTreeMap<u64, u64>) -> u64 { m.values().sum() }\n";
    assert!(sim(btree).is_empty());
    // Point lookups / inserts on a HashMap are order-independent and fine.
    let point = "use std::collections::HashMap;\n\
                 pub fn touch(m: &mut HashMap<u64, u64>, k: u64) {\n\
                     m.insert(k, m.get(&k).copied().unwrap_or(0) + 1);\n\
                 }\n";
    assert_eq!(
        check_source("workload", "crates/workload/src/f.rs", point).len(),
        0
    );
}

// ------------------------------------------------------------------ S004

#[test]
fn s004_flags_raw_time_casts_and_round_trips() {
    let cast = "use ull_simkit::SimDuration;\n\
                pub fn us(d: SimDuration) -> f64 { d.as_nanos() as f64 / 1e3 }\n";
    assert_eq!(sim(cast), ["S004:2"]);
    let round_trip = "use ull_simkit::SimDuration;\n\
                      pub fn double(d: SimDuration) -> SimDuration {\n\
                          SimDuration::from_micros_f64(d.as_micros_f64() * 2.0)\n\
                      }\n";
    assert_eq!(sim(round_trip), ["S004:3"]);
}

#[test]
fn s004_passes_integer_arithmetic_and_reporting_accessors() {
    let good = "use ull_simkit::SimDuration;\n\
                pub fn double(d: SimDuration) -> SimDuration { d * 2 }\n\
                pub fn report(d: SimDuration) -> f64 { d.as_micros_f64() }\n";
    assert!(sim(good).is_empty());
}

#[test]
fn s004_exempts_the_accessor_definitions_in_time_rs() {
    // simkit/src/time.rs *defines* the reporting accessors; the raw cast
    // there is the sanctioned implementation, not a violation.
    let defs = "impl SimDuration {\n\
                    pub fn as_micros_f64(self) -> f64 { self.as_nanos() as f64 / 1e3 }\n\
                }\n";
    assert!(check_source("simkit", "crates/simkit/src/time.rs", defs).is_empty());
    // The same source anywhere else in simkit is a finding.
    let elsewhere = check_source("simkit", "crates/simkit/src/hist.rs", defs);
    assert_eq!(elsewhere.len(), 1);
    assert_eq!(elsewhere[0].rule, "S004");
}

// ------------------------------------------------------------------ S005

#[test]
fn s005_flags_threading_primitives() {
    let bad = "use std::sync::Mutex;\n\
               pub fn run() {\n\
                   std::thread::spawn(|| {});\n\
               }\n";
    let rules = sim(bad);
    assert!(
        rules.contains(&"S005:1".to_string()),
        "Mutex import flagged: {rules:?}"
    );
    assert!(
        rules.contains(&"S005:3".to_string()),
        "thread::spawn flagged: {rules:?}"
    );
}

#[test]
fn s005_passes_single_threaded_event_loop() {
    let good = "use ull_simkit::EventQueue;\n\
                pub fn drain(q: &mut EventQueue<u64>) { while q.pop().is_some() {} }\n";
    assert!(sim(good).is_empty());
}

#[test]
fn s005_does_not_apply_to_the_bench_harness() {
    // A crate outside SIM_CRATES (a wall-clock measurement harness, say)
    // may use threads and Instant: neither S001 nor S005 applies there.
    let harness = "use std::sync::Mutex;\n\
                   pub fn t0() -> std::time::Instant { std::time::Instant::now() }\n";
    assert!(check_source("bench", "crates/bench/src/lib.rs", harness).is_empty());
}

// ------------------------------------------------------------------ S006

#[test]
fn s006_flags_panicking_library_code() {
    let bad = "pub fn get(v: &[u8]) -> u8 {\n\
                   let x = v.first().unwrap();\n\
                   if *x == 0 { panic!(\"zero\") }\n\
                   *x\n\
               }\n";
    assert_eq!(sim(bad), ["S006:2", "S006:3"]);
}

#[test]
fn s006_passes_result_based_code_and_test_modules() {
    let good = "pub fn get(v: &[u8]) -> Option<u8> { v.first().copied() }\n\
                #[cfg(test)]\n\
                mod tests {\n\
                    #[test]\n\
                    fn t() { assert_eq!(super::get(&[7]).unwrap(), 7); }\n\
                }\n";
    assert!(
        sim(good).is_empty(),
        "unwrap inside #[cfg(test)] mod is exempt"
    );
}

#[test]
fn s006_only_applies_to_panic_free_crates() {
    let uw = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert_eq!(check_source("nvme", "crates/nvme/src/f.rs", uw).len(), 1);
    // workload/core drive experiments; panics there abort a run, not the sim.
    assert!(check_source("workload", "crates/workload/src/f.rs", uw).is_empty());
    assert!(check_source("core", "crates/core/src/f.rs", uw).is_empty());
}

// ------------------------------------------------------------------ S007

#[test]
fn s007_flags_float_accumulation_across_iterations() {
    let local = "pub fn mean(xs: &[f64]) -> f64 {\n\
                     let mut sum = 0.0;\n\
                     for x in xs { sum += x; }\n\
                     sum / xs.len() as f64\n\
                 }\n";
    assert_eq!(sim(local), ["S007:3"]);
    let field = "pub struct Acc { total: f64 }\n\
                 impl Acc {\n\
                     pub fn add(&mut self, x: f64) { self.total += x; }\n\
                 }\n";
    assert_eq!(sim(field), ["S007:3"]);
    let indexed = "pub struct Bins { bins: Vec<f64> }\n\
                   impl Bins {\n\
                       pub fn charge(&mut self, i: usize, x: f64) { self.bins[i] += x; }\n\
                   }\n";
    assert_eq!(sim(indexed), ["S007:3"]);
}

#[test]
fn s007_passes_integer_accumulators_and_one_shot_float_math() {
    // Integer accumulation (u64/u128 counters, SimDuration sums) is exact.
    let ints = "pub fn total(xs: &[u64]) -> u128 {\n\
                    let mut sum: u128 = 0;\n\
                    for x in xs { sum += *x as u128; }\n\
                    sum\n\
                }\n";
    assert!(sim(ints).is_empty());
    // One-shot float arithmetic (no compound assignment) is reporting, not
    // accumulation.
    let oneshot = "pub fn pct(a: f64, b: f64) -> f64 { (a - b) / a * 100.0 }\n";
    assert!(sim(oneshot).is_empty());
    // Float accumulation inside #[cfg(test)] is exempt like every rule.
    let test_only = "#[cfg(test)]\n\
                     mod tests {\n\
                         #[test]\n\
                         fn t() {\n\
                             let mut s = 0.0;\n\
                             for i in 0..4 { s += i as f64; }\n\
                             assert!(s > 0.0);\n\
                         }\n\
                     }\n";
    assert!(sim(test_only).is_empty());
}

#[test]
fn s007_exempts_time_rs_and_honours_allows() {
    // time.rs defines the integer time arithmetic; its impl lines are the
    // sanctioned base case.
    let defs = "pub struct W { w: f64 }\n\
                impl W { pub fn add(&mut self, x: f64) { self.w += x; } }\n";
    assert!(check_source("simkit", "crates/simkit/src/time.rs", defs).is_empty());
    assert_eq!(
        check_source("simkit", "crates/simkit/src/w.rs", defs).len(),
        1
    );
    let allowed = "pub struct W { w: f64 }\n\
                   impl W {\n\
                       // simlint: allow(S007): charged in fixed event order\n\
                       pub fn add(&mut self, x: f64) { self.w += x; }\n\
                   }\n";
    assert!(check_source("simkit", "crates/simkit/src/w.rs", allowed).is_empty());
}

// ------------------------------------------------------------------ S008

/// Convenience: analyze `src` as a file of the `ull-faults` crate.
fn fault_crate(src: &str) -> Vec<String> {
    check_source("faults", "crates/faults/src/plan.rs", src)
        .into_iter()
        .map(|f| format!("{}:{}", f.rule, f.line))
        .collect()
}

#[test]
fn s008_flags_ambient_seeds_in_fault_paths() {
    // DefaultHasher-derived seeds vary per process: the classic
    // "convenient entropy" that silently breaks fault replay. No other
    // rule catches it.
    let hasher = "pub fn seed() -> u64 {\n\
                      let h = std::collections::hash_map::DefaultHasher::new();\n\
                      0\n\
                  }\n";
    assert_eq!(fault_crate(hasher), ["S008:2"]);
    // Environment-dependent seeding is just as ambient.
    let env = "pub fn seed() -> u64 {\n\
                   std::env::var(\"SEED\").map(|s| s.len() as u64).unwrap_or(0)\n\
               }\n";
    assert_eq!(fault_crate(env), ["S008:2"]);
}

#[test]
fn s008_stacks_on_the_generic_purity_rules() {
    // A wall-clock seed in a fault path violates both the generic S001
    // and the fault-specific S008: the finding names both contracts.
    let wall = "pub fn seed() -> u64 { SystemTime::now().elapsed().unwrap().as_nanos() as u64 }\n";
    let rules = fault_crate(wall);
    assert!(rules.contains(&"S001:1".to_string()), "{rules:?}");
    assert!(rules.contains(&"S008:1".to_string()), "{rules:?}");
}

#[test]
fn s008_passes_plan_forked_streams() {
    let good = "use ull_simkit::SplitMix64;\n\
                pub fn stream(seed: u64, salt: u64) -> SplitMix64 {\n\
                    SplitMix64::new(seed).fork(salt)\n\
                }\n";
    assert!(fault_crate(good).is_empty());
}

#[test]
fn s008_scope_is_fault_paths_only() {
    // env::var is fine (for S008) outside fault paths...
    let env = "pub fn home() -> Option<String> { std::env::var(\"HOME\").ok() }\n";
    assert!(check_source("ssd", "crates/ssd/src/device.rs", env).is_empty());
    // ...but a fault_*.rs module inside another layer is in scope,
    assert_eq!(
        check_source("ssd", "crates/ssd/src/fault_hooks.rs", env)
            .iter()
            .map(|f| f.rule)
            .collect::<Vec<_>>(),
        ["S008"]
    );
    // ...as is any file of the ull-faults crate.
    assert_eq!(
        check_source("faults", "crates/faults/src/report.rs", env)
            .iter()
            .map(|f| f.rule)
            .collect::<Vec<_>>(),
        ["S008"]
    );
}

#[test]
fn s008_honours_allow_directives() {
    let allowed = "// simlint: allow(S008): doc example showing what NOT to do\n\
                   pub fn seed() -> u64 { std::env::var(\"SEED\").map(|s| s.len() as u64).unwrap_or(0) }\n";
    assert!(fault_crate(allowed).is_empty());
}

// ------------------------------------------------------------------ S009

/// Convenience: analyze `src` as a file of the `ull-probe` crate.
fn probe_crate(src: &str) -> Vec<String> {
    check_source("probe", "crates/probe/src/metrics.rs", src)
        .into_iter()
        .map(|f| format!("{}:{}", f.rule, f.line))
        .collect()
}

#[test]
fn s009_flags_unordered_maps_even_without_iteration() {
    // S003 only fires on *iteration*; in an observability structure the
    // map's mere presence is the hazard — someone will serialize it.
    let decl = "use std::collections::HashMap;\n\
                pub struct Metrics { per_stage: HashMap<u8, u64> }\n";
    assert_eq!(probe_crate(decl), ["S009:1", "S009:2"]);
    let point = "pub fn touch(m: &mut std::collections::HashSet<u64>, k: u64) {\n\
                     m.insert(k);\n\
                 }\n";
    assert_eq!(probe_crate(point), ["S009:1"]);
}

#[test]
fn s009_flags_wall_clocks_in_observability_paths() {
    let wall = "pub fn stamp() -> u128 {\n\
                    std::time::SystemTime::now().elapsed().map(|d| d.as_nanos()).unwrap_or(0)\n\
                }\n";
    let rules = probe_crate(wall);
    // probe is a sim crate, so the generic S001 stacks with S009 — the
    // finding names both contracts, like S008 does for fault paths.
    assert!(rules.contains(&"S001:2".to_string()), "{rules:?}");
    assert!(rules.contains(&"S009:2".to_string()), "{rules:?}");
}

#[test]
fn s009_passes_ordered_state_on_sim_time() {
    let good = "use std::collections::BTreeMap;\n\
                use ull_simkit::SimTime;\n\
                pub struct Spans { open: BTreeMap<u64, SimTime> }\n";
    assert!(probe_crate(good).is_empty());
}

#[test]
fn s009_scope_is_probe_and_trace_paths_only() {
    // A HashMap with point lookups is fine (for S009) outside
    // observability paths...
    let point = "use std::collections::HashMap;\n\
                 pub fn touch(m: &mut HashMap<u64, u64>, k: u64) { m.insert(k, 1); }\n";
    assert!(check_source("workload", "crates/workload/src/lib.rs", point).is_empty());
    // ...but trace/probe-named modules in other crates are in scope,
    assert_eq!(
        check_source("workload", "crates/workload/src/trace.rs", point)
            .iter()
            .map(|f| f.rule)
            .collect::<Vec<_>>(),
        ["S009", "S009"]
    );
    assert_eq!(
        check_source("stack", "crates/stack/src/host_probe.rs", point)
            .iter()
            .map(|f| f.rule)
            .collect::<Vec<_>>(),
        ["S009", "S009"]
    );
    // ...as is every file of the ull-probe crate.
    assert_eq!(
        check_source("probe", "crates/probe/src/capture.rs", point)
            .iter()
            .map(|f| f.rule)
            .collect::<Vec<_>>(),
        ["S009", "S009"]
    );
}

#[test]
fn s009_probe_crate_is_panic_free_and_honours_allows() {
    // Adding probe to the panic-free set means S006 applies to its
    // library code...
    let uw = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert_eq!(probe_crate(uw), ["S006:1"]);
    // ...and S009 yields to a justified allow like every rule.
    let allowed = "// simlint: allow(S009): doc example showing what NOT to do\n\
                   pub type Bad = std::collections::HashMap<u64, u64>;\n";
    assert!(probe_crate(allowed).is_empty());
}

// ------------------------------------------------------------------ S010

#[test]
fn s010_flags_string_allocation_on_the_hot_path() {
    // `format!` / `.to_string()` in per-I/O code malloc on every request —
    // exactly the software overhead the paper says dominates ULL latency.
    let bad = "pub fn tag(op: u8, lba: u64) -> String {\n\
                   format!(\"{op}@{lba}\")\n\
               }\n";
    assert_eq!(sim(bad), ["S010:2"]);
    let owned = "pub fn name(kind: &str) -> String {\n\
                     kind.to_string()\n\
                 }\n";
    assert_eq!(sim(owned), ["S010:2"]);
    let from = "pub fn label() -> String { String::from(\"read\") }\n";
    assert_eq!(sim(from), ["S010:1"]);
}

#[test]
fn s010_passes_static_strs_and_labels() {
    let good = "use ull_simkit::Label;\n\
                pub fn kind(write: bool) -> &'static str {\n\
                    if write { \"write\" } else { \"read\" }\n\
                }\n\
                pub fn label() -> Label { Label::from(\"read\") }\n";
    assert!(sim(good).is_empty());
}

#[test]
fn s010_scope_is_the_per_io_crates_and_engine_loops() {
    let alloc = "pub fn tag(x: u64) -> String { format!(\"{x}\") }\n";
    // In scope: flash, ssd, nvme I/O paths, stack, and the workload
    // engine loops...
    for (krate, path) in [
        ("flash", "crates/flash/src/chip.rs"),
        ("stack", "crates/stack/src/host.rs"),
        ("nvme", "crates/nvme/src/queue.rs"),
        ("workload", "crates/workload/src/runner.rs"),
    ] {
        assert_eq!(
            check_source(krate, path, alloc)
                .iter()
                .map(|f| f.rule)
                .collect::<Vec<_>>(),
            ["S010"],
            "{krate}/{path} must be in S010 scope"
        );
    }
    // ...but not admin commands (issued once per run, not per I/O), the
    // workload spec builders, or the reporting/driver crates.
    assert!(check_source("nvme", "crates/nvme/src/admin.rs", alloc).is_empty());
    assert!(check_source("workload", "crates/workload/src/spec.rs", alloc).is_empty());
    assert!(check_source("core", "crates/core/src/engine.rs", alloc).is_empty());
}

#[test]
fn s010_exempts_tests_and_honours_allows() {
    let test_only = "#[cfg(test)]\n\
                     mod tests {\n\
                         #[test]\n\
                         fn t() { let s = format!(\"{}\", 1); assert_eq!(s, \"1\"); }\n\
                     }\n";
    assert!(sim(test_only).is_empty());
    let allowed = "pub fn explain(code: u8) -> String {\n\
                       // simlint: allow(S010): error path — runs once per failed run, never per I/O\n\
                       format!(\"status {code}\")\n\
                   }\n";
    assert!(sim(allowed).is_empty());
}

// --------------------------------------------------- exec S005 carve-out

#[test]
fn s005_is_carved_out_for_the_exec_worker_pool() {
    // ull-exec is the sanctioned host-parallel sweep driver: Mutex and
    // scoped threads are its implementation, so S005 does not apply...
    let pool = "use std::sync::Mutex;\n\
                pub fn run(tasks: Vec<Mutex<u64>>) {}\n";
    assert!(check_source("exec", "crates/exec/src/lib.rs", pool).is_empty());
    // ...but the purity rules still do: exec must not read wall clocks,
    // roll ambient RNG, or accumulate floats.
    let wall = "pub fn t0() -> std::time::Instant { std::time::Instant::now() }\n";
    assert_eq!(
        check_source("exec", "crates/exec/src/lib.rs", wall)[0].rule,
        "S001"
    );
    let acc = "pub fn sum(xs: &[f64]) -> f64 {\n\
                   let mut s = 0.0;\n\
                   for x in xs { s += x; }\n\
                   s\n\
               }\n";
    assert_eq!(
        check_source("exec", "crates/exec/src/lib.rs", acc)[0].rule,
        "S007"
    );
}

// ------------------------------------------------------- escape hatches

#[test]
fn allow_directive_suppresses_on_same_and_next_line() {
    let trailing = "pub fn f(x: Option<u8>) -> u8 {\n\
                        x.unwrap() // simlint: allow(S006): checked by caller\n\
                    }\n";
    assert!(sim(trailing).is_empty());
    let preceding = "pub fn f(x: Option<u8>) -> u8 {\n\
                         // simlint: allow(S006): checked by caller\n\
                         x.unwrap()\n\
                     }\n";
    assert!(sim(preceding).is_empty());
}

#[test]
fn allow_directive_is_rule_specific_and_line_local() {
    // An S006 allow does not silence an S002 finding on the same line...
    let wrong_rule = "pub fn f() -> u64 { thread_rng().gen() } // simlint: allow(S006): nope\n";
    assert_eq!(sim(wrong_rule), ["S002:1"]);
    // ...and does not leak past the following line.
    let far = "// simlint: allow(S006): only lines 1-2\n\
               pub fn a(x: Option<u8>) -> u8 { x.unwrap() }\n\
               pub fn b(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert_eq!(sim(far), ["S006:3"]);
}

#[test]
fn allow_file_directive_suppresses_the_whole_file() {
    let src = "// simlint: allow-file(S006): FFI shim, panics convert to aborts deliberately\n\
               pub fn a(x: Option<u8>) -> u8 { x.unwrap() }\n\
               pub fn b(x: Option<u8>) -> u8 { x.expect(\"b\") }\n";
    assert!(sim(src).is_empty());
}

// ------------------------------------------------ S003 (type resolution)

#[test]
fn s003_follows_type_aliases_and_fn_boundaries() {
    // The exact ROADMAP false-negative: a HashMap that travels through a
    // type alias and a function boundary before being iterated. The old
    // lexical matcher saw `f.iter()` with no HashMap anywhere near it.
    let bad = "use std::collections::HashMap;\n\
               pub type Frontier = HashMap<u64, u64>;\n\
               fn build() -> Frontier { Frontier::new() }\n\
               pub fn drain() -> u64 {\n\
                   let f = build();\n\
                   let mut s = 0;\n\
                   for (_, v) in f.iter() { s += v; }\n\
                   s\n\
               }\n";
    assert_eq!(sim(bad), ["S003:7"]);
}

#[test]
fn s003_flags_tainted_params_and_direct_call_results() {
    // A parameter whose type resolves to HashSet through an alias...
    let param = "use std::collections::HashSet;\n\
                 pub type Seen = HashSet<u64>;\n\
                 pub fn count(seen: &Seen) -> usize {\n\
                     seen.iter().count()\n\
                 }\n";
    assert_eq!(sim(param), ["S003:4"]);
    // ...and iterating a tainted call result without ever binding it.
    let direct = "use std::collections::HashMap;\n\
                  pub type Frontier = HashMap<u64, u64>;\n\
                  fn build() -> Frontier { Frontier::new() }\n\
                  pub fn sum() -> u64 { build().values().sum() }\n";
    assert_eq!(sim(direct), ["S003:4"]);
}

#[test]
fn s003_resolution_crosses_file_boundaries() {
    // The alias (and its rename) live in types.rs; the iteration lives in
    // engine.rs. Only the crate-level pass can connect them.
    let types = "use std::collections::HashMap as FastMap;\n\
                 pub type Frontier = FastMap<u64, u64>;\n";
    let engine = "use crate::types::Frontier;\n\
                  pub fn hottest(open: &Frontier) -> u64 {\n\
                      open.keys().copied().max().unwrap_or(0)\n\
                  }\n";
    let findings = check_crate(
        "ssd",
        &[
            ("crates/ssd/src/types.rs".to_string(), types.to_string()),
            ("crates/ssd/src/engine.rs".to_string(), engine.to_string()),
        ],
    );
    let rules: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{}:{}", f.path, f.rule, f.line))
        .collect();
    assert_eq!(rules, ["crates/ssd/src/engine.rs:S003:3"]);
}

#[test]
fn s003_passes_aliases_of_ordered_maps() {
    // The same shape over a BTreeMap must stay silent: the taint comes
    // from the resolved base type, not from the alias indirection.
    let good = "use std::collections::BTreeMap;\n\
                pub type Frontier = BTreeMap<u64, u64>;\n\
                fn build() -> Frontier { Frontier::new() }\n\
                pub fn drain() -> u64 {\n\
                    let f = build();\n\
                    f.values().sum()\n\
                }\n";
    assert!(sim(good).is_empty());
}

// ------------------------------------------------------------------ S000

#[test]
fn s000_rejects_unknown_rule_codes() {
    let typo = "// simlint: allow(S099): suppressing a rule that does not exist\n\
                pub fn f() {}\n";
    let f = check_source("ssd", "crates/ssd/src/fixture.rs", typo);
    assert_eq!(f.len(), 1);
    assert_eq!((f[0].rule, f[0].line), ("S000", 1));
    assert!(f[0].message.contains("S099"), "{}", f[0].message);
    // A known code on the same directive does not excuse the unknown one.
    let mixed = "pub fn f(x: Option<u8>) -> u8 {\n\
                     // simlint: allow(S006, S099): first code is real\n\
                     x.unwrap()\n\
                 }\n";
    assert_eq!(sim(mixed), ["S000:2"]);
}

#[test]
fn s000_rejects_empty_justifications() {
    let empty = "pub fn read(p: *const u64) -> u64 {\n\
                     // simlint: justify()\n\
                     unsafe { *p }\n\
                 }\n";
    let rules = sim(empty);
    assert!(rules.contains(&"S000:2".to_string()), "{rules:?}");
}

#[test]
fn s000_accepts_well_formed_directives_and_prose_mentions() {
    let good = "pub fn f(x: Option<u8>) -> u8 {\n\
                    // simlint: allow(S006): checked by caller\n\
                    x.unwrap()\n\
                }\n";
    assert!(sim(good).is_empty());
    // Documentation *about* directives (backtick-quoted) is prose, not a
    // directive: the analyzer's own docs say `// simlint: allow(SNNN)`.
    let prose = "//! Escape hatch: `// simlint: allow(SNNN): <why>` on the line.\n\
                 pub fn f() {}\n";
    assert!(sim(prose).is_empty());
}

// ------------------------------------------------------------------ S011

#[test]
fn s011_flags_interior_mutability_in_sim_crates() {
    let cell = "use std::cell::RefCell;\n\
                pub struct Chip { credit: RefCell<u64> }\n";
    assert_eq!(sim(cell), ["S011:1", "S011:2"]);
    assert_eq!(sim("static mut LAST: u64 = 0;\n"), ["S011:1"]);
    let tls = "thread_local! {\n\
                   static SCRATCH: Vec<u8> = Vec::new();\n\
               }\n";
    assert_eq!(sim(tls), ["S011:1"]);
}

#[test]
fn s011_sees_through_type_aliases() {
    // Line 1 names RefCell literally (token pass); line 2 only mentions
    // the alias — the resolution pass has to connect it.
    let bad = "pub type Shared = std::cell::RefCell<u64>;\n\
               pub struct Chip { credit: Shared }\n";
    let rules = sim(bad);
    assert!(rules.contains(&"S011:1".to_string()), "{rules:?}");
    assert!(rules.contains(&"S011:2".to_string()), "{rules:?}");
}

#[test]
fn s011_passes_owned_state_and_the_exec_driver() {
    let good = "use std::collections::BTreeMap;\n\
                pub struct Chip { credit: u64, zones: BTreeMap<u64, u64> }\n";
    assert!(sim(good).is_empty());
    // ull-exec is the sanctioned host-parallel sweep driver: its atomics
    // and locks are the one allowed home for shared mutable state.
    let pool = "use std::sync::atomic::AtomicUsize;\n\
                static NEXT: AtomicUsize = AtomicUsize::new(0);\n";
    assert!(check_source("exec", "crates/exec/src/lib.rs", pool).is_empty());
}

#[test]
fn s011_flags_shared_shard_channels_outside_exec() {
    // A cross-shard outbox guarded by a lock looks harmless — until two
    // shards drain it in wall-clock order. Channel state in sim crates
    // must be owned per shard and exchanged at the window barrier
    // (docs/SHARDING.md); only the exec driver may hold shared state.
    // (a lock is both a blocking primitive — S005 — and shared
    // mutability — S011; both fire on both lines)
    let bad = "use std::sync::Mutex;\n\
               pub struct ShardOutbox { pending: Mutex<Vec<u64>> }\n";
    assert_eq!(sim(bad), ["S005:1", "S011:1", "S005:2", "S011:2"]);
    // The same channel laundered through an alias is still caught.
    let aliased = "pub type Channel = std::sync::Mutex<Vec<u64>>;\n\
                   pub struct ShardOutbox { pending: Channel }\n";
    let rules = sim(aliased);
    assert!(rules.contains(&"S011:2".to_string()), "{rules:?}");
    // An owned outbox drained at the barrier is the sanctioned shape.
    let good = "pub struct ShardOutbox { pending: Vec<u64> }\n";
    assert!(sim(good).is_empty());
}

// ------------------------------------------------------------------ S012

#[test]
fn s012_flags_address_identity_ordering_and_hashing() {
    let eq = "pub fn same(a: &u64, b: &u64) -> bool {\n\
                  std::ptr::eq(a, b)\n\
              }\n";
    assert_eq!(sim(eq), ["S012:2"]);
    let cast = "pub fn key(x: &u64) -> usize { x as *const u64 as usize }\n";
    assert_eq!(sim(cast), ["S012:1"]);
}

#[test]
fn s012_passes_value_semantics_and_still_applies_to_exec() {
    let good = "pub fn same(a: &u64, b: &u64) -> bool { a == b }\n";
    assert!(sim(good).is_empty());
    // exec is carved out of S005/S011, but NOT of the identity rule:
    // shard-merge order keyed on addresses differs run to run.
    let bad = "pub fn key(x: &u64) -> usize { x as *const u64 as usize }\n";
    let f = check_source("exec", "crates/exec/src/lib.rs", bad);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].rule, "S012");
}

// ------------------------------------------------------------------ S013

#[test]
fn s013_flags_unjustified_unsafe() {
    let bad = "pub fn read(p: *const u64) -> u64 {\n\
                   unsafe { *p }\n\
               }\n";
    assert_eq!(sim(bad), ["S013:2"]);
}

#[test]
fn s013_honours_justify_at_line_and_file_scope() {
    let line = "pub fn read(p: *const u64) -> u64 {\n\
                    // simlint: justify(caller guarantees p outlives the shard)\n\
                    unsafe { *p }\n\
                }\n";
    assert!(sim(line).is_empty());
    let file = "// simlint: justify-file(FFI shim; every pointer comes from Box::into_raw)\n\
                pub fn read(p: *const u64) -> u64 { unsafe { *p } }\n\
                pub fn write(p: *mut u64, v: u64) { unsafe { *p = v } }\n";
    assert!(sim(file).is_empty());
}

#[test]
fn s013_justify_is_line_local_and_does_not_bleed_into_allow() {
    // A justify covers its own line and the next — not the whole fn.
    let far = "// simlint: justify(only covers lines 1-2)\n\
               pub fn a(p: *const u64) -> u64 { unsafe { *p } }\n\
               pub fn b(p: *const u64) -> u64 { unsafe { *p } }\n";
    assert_eq!(sim(far), ["S013:3"]);
    // justify is the *unsafe* contract: it does not silence other rules.
    let wrong = "// simlint: justify(not an allow)\n\
                 pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert_eq!(sim(wrong), ["S006:2"]);
}

// ------------------------------------------------------------------ S014

#[test]
fn s014_flags_timestamped_events_without_total_order() {
    let bad = "use ull_simkit::SimTime;\n\
               #[derive(Debug, Clone, PartialEq, Eq)]\n\
               pub struct CompletionEvent {\n\
                   pub at: SimTime,\n\
                   pub lba: u64,\n\
               }\n";
    assert_eq!(sim(bad), ["S014:3"]);
}

#[test]
fn s014_resolves_sim_time_through_renames_and_aliases() {
    let bad = "use ull_simkit::SimTime as Stamp;\n\
               pub type When = Stamp;\n\
               pub struct ArrivalEvent { pub at: When }\n";
    assert_eq!(sim(bad), ["S014:3"]);
}

#[test]
fn s014_passes_ordered_or_sequenced_events() {
    let derived = "use ull_simkit::SimTime;\n\
                   #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]\n\
                   pub struct CompletionEvent { pub at: SimTime, pub lba: u64 }\n";
    assert!(sim(derived).is_empty());
    let seq = "use ull_simkit::SimTime;\n\
               pub struct SubmitEvent { pub at: SimTime, pub seq: u64 }\n";
    assert!(sim(seq).is_empty());
    let manual = "use ull_simkit::SimTime;\n\
                  pub struct DoneEvent { pub at: SimTime }\n\
                  impl Ord for DoneEvent {}\n";
    assert!(sim(manual).is_empty());
}

#[test]
fn s014_scope_is_pub_event_structs_with_timestamps() {
    // Private events are an implementation detail of one module...
    let private = "use ull_simkit::SimTime;\n\
                   struct TickEvent { at: SimTime }\n";
    assert!(sim(private).is_empty());
    // ...events without a SimTime have no tie to break...
    let no_time = "pub struct ResetEvent { pub lba: u64 }\n";
    assert!(sim(no_time).is_empty());
    // ...and non-Event types are out of the naming contract.
    let not_event = "use ull_simkit::SimTime;\n\
                     pub struct Deadline { pub at: SimTime }\n";
    assert!(sim(not_event).is_empty());
}

#[test]
fn s014_polices_cross_shard_wire_events() {
    // The inter-shard wire format: two same-instant events from
    // different shards merge in whatever order the barrier drained them
    // unless the struct itself carries a total order. This is the exact
    // hazard the `(time, src, seq)` keys exist for (docs/SHARDING.md).
    let bad = "use ull_simkit::SimTime;\n\
               pub struct ShardHopEvent {\n\
                   pub at: SimTime,\n\
                   pub src: u32,\n\
                   pub payload: u64,\n\
               }\n";
    assert_eq!(sim(bad), ["S014:2"]);
    // The accepted shape: a per-source emission counter next to the
    // timestamp.
    let good = "use ull_simkit::SimTime;\n\
                pub struct ShardHopEvent {\n\
                    pub at: SimTime,\n\
                    pub src: u32,\n\
                    pub seq: u64,\n\
                    pub payload: u64,\n\
                }\n";
    assert!(sim(good).is_empty());
}

// ------------------------------------------------------------- reporting

#[test]
fn findings_carry_location_and_ordering() {
    let src = "pub fn f(x: Option<u8>) -> u8 {\n\
                   let t = std::time::Instant::now();\n\
                   x.unwrap()\n\
               }\n";
    let f = check_source("stack", "crates/stack/src/fixture.rs", src);
    assert_eq!(f.len(), 2);
    assert_eq!((f[0].rule, f[0].line), ("S001", 2));
    assert_eq!((f[1].rule, f[1].line), ("S006", 3));
    assert_eq!(f[0].path, "crates/stack/src/fixture.rs");
    assert!(f[0].snippet.contains("Instant::now"));
}

// ----------------------------------------------------------- ull-nexus

/// Convenience: analyze `src` as a file of the `nexus` sim crate.
fn nexus(src: &str) -> Vec<String> {
    check_source("nexus", "crates/nexus/src/fixture.rs", src)
        .into_iter()
        .map(|f| format!("{}:{}", f.rule, f.line))
        .collect()
}

#[test]
fn nexus_wire_events_must_carry_a_sequence() {
    // A child completion keyed on time alone would merge in shard order,
    // not send order — exactly the hazard S014 exists for. The nexus's
    // real `ChildDoneEvent` carries `seq`, and the frontend's replica
    // convergence depends on it (arrival order == send order).
    let bad = "use ull_simkit::SimTime;\n\
               #[derive(Debug, Clone, PartialEq, Eq)]\n\
               pub struct ChildAckEvent {\n\
                   pub done_at: SimTime,\n\
                   pub digest: u64,\n\
               }\n";
    assert_eq!(nexus(bad), ["S014:3"]);
    let good = "use ull_simkit::SimTime;\n\
                #[derive(Debug, Clone, PartialEq, Eq)]\n\
                pub struct ChildAckEvent {\n\
                    pub done_at: SimTime,\n\
                    pub seq: u64,\n\
                    pub digest: u64,\n\
                }\n";
    assert!(nexus(good).is_empty());
}

#[test]
fn nexus_dirty_log_must_be_owned_state() {
    // A RefCell dirty log shared between the scan and the write path
    // would make range state depend on borrow timing; the shipped
    // `RangeLog` is a plain owned field of the frontend actor.
    let bad = "use std::cell::RefCell;\n\
               pub struct DirtyLog { ranges: RefCell<Vec<bool>> }\n";
    assert_eq!(nexus(bad), ["S011:1", "S011:2"]);
    let good = "pub struct DirtyLog { ranges: Vec<bool>, clean: u32 }\n";
    assert!(nexus(good).is_empty());
}

#[test]
fn real_nexus_sources_are_clean() {
    // The two files that define the wire protocol and the dirty log —
    // the shapes the fixtures above guard in miniature.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    for file in ["event.rs", "rebuild.rs"] {
        let path = format!("crates/nexus/src/{file}");
        let src = std::fs::read_to_string(root.join(&path)).expect("nexus source exists");
        let findings = check_source("nexus", &path, &src);
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}
