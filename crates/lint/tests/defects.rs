//! The seeded-defect corpus gate: every fixture under `tests/fixtures/`
//! encodes one defect and names its expected diagnostic code in the filename
//! prefix (`l002_deadlock_cycle.csdf` must trigger `L002`). CI runs the
//! `csdf-lint` CLI over the same files; this test gates the library layer
//! and keeps the corpus from rotting.

use std::path::{Path, PathBuf};

use csdf_lint::{lint_source, InputFormat, LintCode, Severity};

fn fixtures() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    paths.sort();
    paths
}

/// The expected code is the upper-cased first `_`-separated component of the
/// file name (`l002_deadlock_cycle.csdf` → `L002`).
fn expected_code(path: &Path) -> LintCode {
    let name = path.file_name().unwrap().to_str().unwrap();
    let prefix = name.split('_').next().unwrap().to_ascii_uppercase();
    LintCode::parse(&prefix).unwrap_or_else(|| panic!("fixture {name} has no code prefix"))
}

#[test]
fn every_seeded_defect_triggers_its_expected_code() {
    let paths = fixtures();
    assert!(
        paths.len() >= 8,
        "corpus shrank to {} files — the gate would be vacuous",
        paths.len()
    );
    for path in &paths {
        let code = expected_code(path);
        let source = std::fs::read_to_string(path).expect("readable fixture");
        let format = InputFormat::from_path(path.to_str().unwrap());
        let report = lint_source(&source, format);
        assert!(
            report.has_code(code),
            "{}: expected {code} but got:\n{}",
            path.display(),
            report.render(None),
        );
        // Severity classes must match the filename family: `l*` fixtures are
        // rejected (errors), `w*`/`b*` fixtures must still lint clean enough
        // to produce a full report.
        match code.severity() {
            Severity::Error => assert!(report.has_errors(), "{}", path.display()),
            Severity::Warning | Severity::Note => {
                assert!(!report.has_errors(), "{}", path.display());
                assert!(report.bounds.is_some(), "{}", path.display());
            }
        }
    }
}

#[test]
fn corpus_covers_every_error_code_and_all_structural_warnings() {
    let covered: Vec<LintCode> = fixtures().iter().map(|p| expected_code(p)).collect();
    for code in LintCode::all() {
        let structural_warning = matches!(code.severity(), Severity::Error)
            || matches!(
                code,
                LintCode::NearDeadlockCycle
                    | LintCode::IsolatedComponent
                    | LintCode::ZeroDurationTask
            );
        if structural_warning {
            assert!(
                covered.contains(&code),
                "no fixture covers {code} ({})",
                code.description()
            );
        }
    }
}
