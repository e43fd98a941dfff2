//! Docs-drift guard: the rule table in docs/DETERMINISM.md must stay in
//! lockstep with the catalogue the analyzer actually enforces.
//!
//! Each `RuleInfo` carries a one-line `brief` that is simultaneously the
//! doc table's "rule statement" cell — so adding, renaming or rewording a
//! rule without updating the documentation fails `cargo test`, and the
//! docs can never advertise a rule the analyzer dropped.

use std::path::Path;

fn read_doc(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(root.join(rel))
        .unwrap_or_else(|e| panic!("{rel} must exist and be readable: {e}"))
}

#[test]
fn determinism_doc_table_carries_every_rule_verbatim() {
    let doc = read_doc("docs/DETERMINISM.md");
    for r in ull_simlint::RULES {
        let row = format!("| {} | {} |", r.code, r.brief);
        assert!(
            doc.contains(&row),
            "docs/DETERMINISM.md rule table is out of sync with the catalogue: \
             missing or stale row for {}.\nExpected a table row starting exactly:\n  {row}\n\
             (the cell text is RuleInfo::brief in crates/simlint/src/rules.rs — \
             change both together)",
            r.code
        );
    }
}

#[test]
fn determinism_doc_has_no_phantom_rules() {
    // Every `| SNNN |` table row in the doc must name a catalogued rule,
    // so a rule removed from the analyzer cannot linger in the docs.
    let doc = read_doc("docs/DETERMINISM.md");
    for line in doc.lines() {
        let Some(rest) = line.strip_prefix("| S") else {
            continue;
        };
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if digits.len() != 3 {
            continue;
        }
        let code = format!("S{digits}");
        assert!(
            ull_simlint::RULES.iter().any(|r| r.code == code),
            "docs/DETERMINISM.md documents {code}, which the analyzer does not enforce"
        );
    }
}

#[test]
fn static_analysis_doc_covers_the_architecture_and_every_rule_family() {
    let doc = read_doc("docs/STATIC_ANALYSIS.md");
    // The architecture walk must name each phase module as it exists.
    for module in [
        "source.rs",
        "lexer.rs",
        "symbols.rs",
        "resolve.rs",
        "rules.rs",
    ] {
        assert!(
            doc.contains(module),
            "docs/STATIC_ANALYSIS.md must walk the {module} phase"
        );
    }
    for r in ull_simlint::RULES {
        assert!(
            doc.contains(r.code),
            "docs/STATIC_ANALYSIS.md must mention rule {}",
            r.code
        );
    }
    // The baseline ratchet and the escape hatches are part of the workflow
    // the doc teaches.
    for needle in ["simlint_baseline.json", "justify(", "allow("] {
        assert!(
            doc.contains(needle),
            "docs/STATIC_ANALYSIS.md must document `{needle}`"
        );
    }
}

#[test]
fn readme_and_design_link_the_static_analysis_doc() {
    assert!(
        read_doc("README.md").contains("docs/STATIC_ANALYSIS.md"),
        "README.md must link docs/STATIC_ANALYSIS.md"
    );
    assert!(
        read_doc("DESIGN.md").contains("docs/STATIC_ANALYSIS.md"),
        "DESIGN.md must link docs/STATIC_ANALYSIS.md"
    );
}

#[test]
fn readme_design_and_determinism_link_the_sharding_doc() {
    for doc in ["README.md", "DESIGN.md", "docs/DETERMINISM.md"] {
        assert!(
            read_doc(doc).contains("docs/SHARDING.md"),
            "{doc} must link docs/SHARDING.md"
        );
    }
}

#[test]
fn readme_design_and_experiments_link_the_nexus_doc() {
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        assert!(
            read_doc(doc).contains("docs/NEXUS.md"),
            "{doc} must link docs/NEXUS.md"
        );
    }
}

/// The stage table in docs/OBSERVABILITY.md must stay in lockstep with
/// the taxonomy `ull-probe` actually records: every stage appears as a
/// markdown row carrying its position, name and software/device half.
#[test]
fn observability_doc_stage_table_matches_the_taxonomy() {
    let doc = read_doc("docs/OBSERVABILITY.md");
    for (i, stage) in ull_probe::Stage::ALL.iter().enumerate() {
        let half = if stage.is_software() {
            "software"
        } else {
            "device"
        };
        let prefix = format!("| {} | `{}` | {} |", i + 1, stage.name(), half);
        assert!(
            doc.contains(&prefix),
            "docs/OBSERVABILITY.md stage table is out of sync with \
             Stage::ALL: missing or stale row for {:?}.\nExpected a row \
             starting exactly:\n  {prefix}",
            stage.name()
        );
    }
}

/// The registry table in EXPERIMENTS.md must stay in lockstep with the
/// registry `reproduce --list` actually prints: every entry appears as
/// a markdown row carrying its name (starred when not part of `all`),
/// aliases, title, trace support and description.
#[test]
fn experiments_doc_table_carries_every_registry_entry_verbatim() {
    let doc = read_doc("EXPERIMENTS.md");
    for e in ull_ssd_study::study::registry::entries() {
        let star = if e.in_all { "" } else { "\\*" };
        let aliases = if e.aliases.is_empty() {
            "-".to_string()
        } else {
            e.aliases.join(", ")
        };
        let trace = if e.traceable { "yes" } else { "-" };
        let row = format!(
            "| {}{star} | {aliases} | {} | {trace} | {} |",
            e.name, e.title, e.description
        );
        assert!(
            doc.contains(&row),
            "EXPERIMENTS.md registry table is out of sync with the registry: \
             missing or stale row for {:?}.\nExpected exactly:\n  {row}\n\
             (columns: name, aliases, title, trace, description — the same \
             fields `reproduce --list` prints)",
            e.name
        );
    }
}

/// A registry entry removed from the code cannot linger in the doc
/// table: every `| name |`-style row must resolve to a live entry.
#[test]
fn experiments_doc_has_no_phantom_entries() {
    let doc = read_doc("EXPERIMENTS.md");
    let table: Vec<&str> = doc
        .lines()
        .skip_while(|l| !l.starts_with("| name |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .collect();
    assert!(
        table.len() >= 17,
        "EXPERIMENTS.md must carry the registry table (found {} rows)",
        table.len()
    );
    for line in table {
        let name = line
            .trim_start_matches('|')
            .split('|')
            .next()
            .expect("split always yields one piece")
            .trim()
            .trim_end_matches("\\*");
        assert!(
            ull_ssd_study::study::registry::find(name).is_some(),
            "EXPERIMENTS.md lists experiment {name:?}, which the registry does not know"
        );
    }
}

/// Every type with an `impl … Component for X` above the first
/// `#[cfg(test)]` of a file in `crates/*/src` (comments skipped, so doc
/// examples do not count), with its file.
fn component_implementors() -> Vec<(String, String)> {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let entries = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{} must be readable: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut files);
        }
    }
    files.sort();
    let mut found = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source file is readable");
        for line in text.lines().map(str::trim) {
            if line.starts_with("#[cfg(test)]") {
                break;
            }
            if line.starts_with("//") || !line.starts_with("impl") {
                continue;
            }
            let Some((_, rest)) = line.split_once("Component for ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let rel = file.strip_prefix(root).unwrap_or(&file);
            found.push((name, rel.display().to_string()));
        }
    }
    found
}

/// The backticked type names (a leading capital, any `path::` prefix
/// stripped) in docs/SHARDING.md's "Components in use" paragraph.
fn components_in_use_paragraph() -> Vec<String> {
    let doc = read_doc("docs/SHARDING.md");
    let paragraph: Vec<&str> = doc
        .lines()
        .skip_while(|l| !l.starts_with("Components in use"))
        .take_while(|l| !l.trim().is_empty())
        .collect();
    assert!(
        !paragraph.is_empty(),
        "docs/SHARDING.md must keep its \"Components in use\" paragraph"
    );
    paragraph
        .join(" ")
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|code| {
            let last = code.rsplit("::").next().unwrap_or(code);
            last.chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<String>()
        })
        .filter(|name| name.starts_with(|c: char| c.is_ascii_uppercase()))
        .collect()
}

/// docs/SHARDING.md's "Components in use" paragraph names exactly the
/// types that implement `ull_simkit::Component` outside tests: every
/// implementor is named, and every type named is an implementor.
#[test]
fn sharding_doc_names_every_component_and_only_components() {
    let implementors = component_implementors();
    assert!(
        implementors.len() >= 3,
        "expected the workspace's Component implementors, found {implementors:?}"
    );
    let named = components_in_use_paragraph();
    for (name, file) in &implementors {
        assert!(
            named.contains(name),
            "docs/SHARDING.md's \"Components in use\" paragraph must name `{name}` \
             ({file} implements Component)"
        );
    }
    for name in &named {
        assert!(
            implementors.iter().any(|(n, _)| n == name),
            "docs/SHARDING.md's \"Components in use\" paragraph names `{name}`, \
             which does not implement Component"
        );
    }
}
