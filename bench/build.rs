//! Records the compiler and profile the benchmark was built with, so every
//! result carries them (README "Reference numbers").

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=LAUNCH_BENCH_RUSTC={version}");
    println!("cargo:rustc-env=LAUNCH_BENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
