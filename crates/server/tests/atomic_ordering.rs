//! Atomics audit: a `SeqCst` in non-test code of the server, service
//! and telemetry crates states its reason in a `// SeqCst: <reason>`
//! comment on its line or the line above. Test code is each `src`
//! file's tail from its first `#[cfg(test)]` on (test modules go last).

fn justified(line: &str) -> bool {
    line.split_once("// SeqCst:")
        .is_some_and(|(_, why)| !why.trim().is_empty())
}

#[test]
fn seqcst_outside_tests_states_its_reason() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for krate in ["server", "service", "telemetry"] {
        for entry in std::fs::read_dir(crates.join(krate).join("src")).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            let mut previous = "";
            for (i, line) in code.lines().enumerate() {
                let bare = line.contains("Ordering::SeqCst") && !justified(line);
                let at = format!("{}:{}", path.display(), i + 1);
                assert!(!bare || justified(previous), "{at}: unjustified `SeqCst`");
                previous = line;
            }
        }
    }
}
