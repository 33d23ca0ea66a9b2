//! Helpers shared by the golden-file tests.

use std::path::Path;

/// `text` must equal `tests/golden/<name>`, or, under `COMT_BLESS`,
/// becomes it.
pub fn golden(name: &str, text: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("COMT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some((i, (got, want))) = text
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!(
            "{name} line {}:\n  golden: {want}\n  now:    {got}\n{text}",
            i + 1
        );
    }
    assert_eq!(text, want, "{name}: line count differs");
}
