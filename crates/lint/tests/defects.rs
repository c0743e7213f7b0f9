//! The seeded-defect corpus gate: every fixture under `tests/fixtures/`
//! encodes one defect and names its expected diagnostic code in the filename
//! prefix (`l002_deadlock_cycle.csdf` must trigger `L002`). CI runs the
//! `csdf-lint` CLI over the same files; this test gates the library layer
//! and keeps the corpus from rotting.

use std::path::{Path, PathBuf};

use csdf::json::Json;
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

/// `csdf-lint --json` prints one line per file: `file`, then exactly the
/// report's one JSON rendering ([`csdf_lint::LintReport::json_fields`]).
#[test]
fn cli_json_lines_are_the_file_then_the_report_fields() {
    let clean = Path::new(env!("CARGO_MANIFEST_DIR")).join("../csdf/tests/fixtures/modem.sdf3.xml");
    let mut paths = fixtures();
    paths.push(clean);
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_csdf-lint"))
        .arg("--json")
        .args(&paths)
        .output()
        .expect("csdf-lint runs");
    assert_eq!(
        output.status.code(),
        Some(1),
        "the error fixtures fail the run"
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert_eq!(stdout.lines().count(), paths.len());
    for (line, path) in stdout.lines().zip(&paths) {
        let file = path.to_str().unwrap();
        let report = lint_source(
            &std::fs::read_to_string(path).unwrap(),
            InputFormat::from_path(file),
        );
        let mut expected = vec![("file".to_string(), Json::from(file))];
        expected.extend(report.json_fields());
        assert_eq!(Json::parse(line), Ok(Json::Object(expected)), "{file}");
    }
    let clean = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(
        clean.get("errors"),
        Some(&Json::Int(0)),
        "the modem lints clean"
    );
}
