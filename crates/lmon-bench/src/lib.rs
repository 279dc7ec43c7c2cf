//! # lmon-bench — the figure/table regeneration harness
//!
//! Every evaluation artifact of the paper has a dedicated bench target
//! (`harness = false`, so `cargo bench` prints the tables directly):
//!
//! | target | regenerates |
//! |---|---|
//! | `fig3_launch_model` | Figure 3 — modeled vs measured `launchAndSpawn` breakdown, 16→128 daemons |
//! | `fig5_jobsnap` | Figure 5 — Jobsnap total vs `init→attachAndSpawn`, 16→1024 daemons |
//! | `fig6_stat_startup` | Figure 6 — STAT startup: MRNet-rsh vs LaunchMON, 4→512 nodes |
//! | `table1_oss_apai` | Table 1 — O\|SS APAI access: DPCL vs LaunchMON, 2→32 nodes |
//! | `ablations` | design-choice studies DESIGN.md calls out |
//! | `transport_latency` | recv wakeup latency + mux fan-in, self-gating vs `BENCH_transport.json` |
//! | `recovery_latency` | overlay kill → heal → broadcast latency, self-gating vs `BENCH_recovery.json` |
//! | `upgrade_rolling` | rolling comm-daemon upgrade + phi vs sweep detection, self-gating vs `BENCH_upgrade.json` |
//!
//! The end-to-end launch numbers (launch request in → tool daemons ready
//! out, through `lmond` and directly) are not measured here: they belong
//! to `launch-bench` under `bench/`, declared in `BENCHMARK.json`.
//!
//! This library holds the shared table-rendering helpers and the paper's
//! reference numbers, so each bench can print paper-vs-reproduction
//! comparisons, and [`gate`]: the one harness (run mode, statistics,
//! artifact writer/reader, regression rule) the three self-gating benches
//! share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

/// A rendered comparison row: scale point, paper value, reproduced value.
#[derive(Debug, Clone)]
pub struct Row {
    /// The x-axis value (daemon count, node count, ...).
    pub x: String,
    /// Per-column values.
    pub values: Vec<String>,
}

/// Print an aligned table with a title and column headers.
pub fn print_table(title: &str, x_label: &str, columns: &[&str], rows: &[Row]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    let x_width =
        rows.iter().map(|r| r.x.len()).chain(std::iter::once(x_label.len())).max().unwrap_or(8);
    for row in rows {
        for (i, v) in row.values.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(v.len());
            }
        }
    }
    print!("{x_label:<x_width$}");
    for (c, w) in columns.iter().zip(&widths) {
        print!("  {c:>w$}");
    }
    println!();
    for row in rows {
        print!("{:<x_width$}", row.x);
        for (v, w) in row.values.iter().zip(&widths) {
            print!("  {v:>w$}");
        }
        println!();
    }
}

/// Format seconds with 3 decimals.
pub fn s3(v: f64) -> String {
    format!("{v:.3}s")
}

/// Format a ratio like `17.0x`.
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.1}x", a / b)
}

/// Paper reference values for Figure 6 (tool daemon count → seconds).
pub const PAPER_FIG6_MRNET: &[(usize, f64)] = &[(4, 0.77), (256, 60.8)];
/// Paper reference values for Figure 6, LaunchMON curve.
pub const PAPER_FIG6_LMON: &[(usize, f64)] = &[(4, 0.46), (256, 3.57), (512, 5.6)];
/// Paper reference values for Table 1, DPCL row (nodes → seconds).
pub const PAPER_TABLE1_DPCL: &[(usize, f64)] =
    &[(2, 33.77), (4, 34.27), (8, 34.31), (16, 34.32), (32, 34.66)];
/// Paper reference values for Table 1, LaunchMON row.
pub const PAPER_TABLE1_LMON: &[(usize, f64)] =
    &[(2, 0.606), (4, 0.627), (8, 0.604), (16, 0.617), (32, 0.626)];
/// Paper reference values for Figure 5 (daemons → total seconds).
pub const PAPER_FIG5_TOTAL: &[(usize, f64)] = &[(512, 1.5), (1024, 2.92)];
/// Paper reference: Figure 5 launch portion at 1024 daemons.
pub const PAPER_FIG5_LAUNCH_1024: f64 = 2.76;
/// Paper reference: Figure 3 — total below 1 s at 128 daemons, LaunchMON
/// share ≈ 5.2%.
pub const PAPER_FIG3_SHARE_128: f64 = 0.052;

/// Look up a paper reference value, if that scale point was reported.
pub fn paper_ref(table: &[(usize, f64)], x: usize) -> Option<f64> {
    table.iter().find(|(k, _)| *k == x).map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ref_lookup() {
        assert_eq!(paper_ref(PAPER_FIG6_MRNET, 256), Some(60.8));
        assert_eq!(paper_ref(PAPER_FIG6_MRNET, 100), None);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(s3(1.23456), "1.235s");
        assert_eq!(ratio(10.0, 2.0), "5.0x");
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "demo",
            "n",
            &["a", "b"],
            &[Row { x: "4".into(), values: vec!["1.0".into(), "2.0".into()] }],
        );
    }
}
