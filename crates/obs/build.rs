//! Captures the git commit sha at build time for the `tirm_build_info`
//! gauge family. Falls back to `"unknown"` outside a git checkout (e.g.
//! builds from a source tarball) so the crate never fails to build.

use std::process::Command;

fn main() {
    let sha = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=TIRM_GIT_SHA={sha}");
    // Re-run when HEAD moves so the sha stays honest. Only paths that
    // exist are named: cargo treats a missing `rerun-if-changed` path as
    // always changed, which outside a git checkout would recompile this
    // crate and everything above it on every build.
    println!("cargo:rerun-if-changed=build.rs");
    for path in ["../../.git/HEAD", "../../.git/refs"] {
        if std::path::Path::new(path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
}
