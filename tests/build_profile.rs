//! The release profile is defined once, in `.cargo/config.toml`, and is
//! a whole-program build: fat LTO over one codegen unit, with symbols
//! and with unwinding. A stray edit to it costs 15–30 % of simulated
//! seconds per wall second, which this guard turns into a failing test
//! rather than benchmark noise.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of TOML table `[name]` in `text`, comments
/// and blank lines dropped, whitespace around `=` removed.
fn table(text: &str, name: &str) -> Vec<String> {
    let header = format!("[{name}]");
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split('=').map(str::trim).collect::<Vec<_>>().join(" = "))
        .collect()
}

fn headers(text: &str, name: &str) -> usize {
    let header = format!("[{name}]");
    text.lines().filter(|l| l.trim() == header).count()
}

#[test]
fn release_profile_is_a_whole_program_build_with_unwinding() {
    let config = read(".cargo/config.toml");
    assert_eq!(headers(&config, "profile.release"), 1, "{config}");
    let release = table(&config, "profile.release");
    for want in ["lto = \"fat\"", "codegen-units = 1", "debug = true"] {
        assert!(
            release.iter().any(|l| l == want),
            "[profile.release] must set {want}: {release:?}"
        );
    }
    // simbench counts failed jobs with `catch_unwind`.
    assert!(
        !release.iter().any(|l| l.starts_with("panic")),
        "[profile.release] must keep unwinding: {release:?}"
    );
}

#[test]
fn release_profile_is_defined_only_in_the_config_file() {
    for manifest in ["Cargo.toml", "simbench/Cargo.toml"] {
        let text = read(manifest);
        assert_eq!(
            headers(&text, "profile.release"),
            0,
            "{manifest} must not define a second [profile.release]"
        );
        assert!(
            !text.contains("panic = \"abort\""),
            "{manifest} must keep unwinding"
        );
    }
}
