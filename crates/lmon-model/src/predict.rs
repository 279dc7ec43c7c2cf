//! Closed-form predictions: the "model" side of every figure.

use crate::params::CostParams;

/// Predicted component breakdown of one `launchAndSpawn` (Figure 3's
/// stacked series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchBreakdownModel {
    /// T(job): RM spawns the application tasks (Region A).
    pub t_job: f64,
    /// T(daemon): RM spawns the tool daemons (Region A).
    pub t_daemon: f64,
    /// T(setup): inter-daemon fabric setup (Region A).
    pub t_setup: f64,
    /// T(collective): bootstrap broadcast/gather/scatter (Region A).
    pub t_collective: f64,
    /// Engine tracing cost (LaunchMON's share of Region A).
    pub t_tracing: f64,
    /// Region B: RPDTAB fetch, linear in tasks.
    pub t_rpdtab: f64,
    /// Region C: FE ↔ master handshake, linear in daemons.
    pub t_handshake: f64,
    /// All other scale-independent LaunchMON costs.
    pub t_other: f64,
}

impl LaunchBreakdownModel {
    /// Total predicted launchAndSpawn latency.
    pub fn total(&self) -> f64 {
        self.t_job
            + self.t_daemon
            + self.t_setup
            + self.t_collective
            + self.t_tracing
            + self.t_rpdtab
            + self.t_handshake
            + self.t_other
    }

    /// LaunchMON's own contribution (vs the RM's).
    pub fn launchmon_share(&self) -> f64 {
        let lmon = self.t_tracing + self.t_rpdtab + self.t_handshake + self.t_other;
        lmon / self.total()
    }
}

/// Figure 3 model: predict the breakdown for `daemons` nodes ×
/// `tasks_per_daemon` MPI tasks.
pub fn launch_breakdown(
    p: &CostParams,
    daemons: usize,
    tasks_per_daemon: usize,
) -> LaunchBreakdownModel {
    let d = daemons as f64;
    LaunchBreakdownModel {
        t_job: p.rm_job_base + p.rm_job_hop * CostParams::log2(daemons),
        t_daemon: p.rm_daemon_base + p.rm_daemon_per_node * d,
        t_setup: p.rm_setup_base + p.rm_setup_per_node * d,
        t_collective: p.collective_base + p.collective_per_daemon * d,
        t_tracing: p.tracing_cost,
        t_rpdtab: p.rpdtab_read_per_word
            * CostParams::rpdtab_words(daemons, tasks_per_daemon) as f64,
        t_handshake: p.handshake_base + p.handshake_per_daemon * d,
        t_other: p.fixed_other,
    }
}

/// The attach-path breakdown (no T(job): the job already runs). Used by
/// Figures 5 and 6, whose tools attach.
pub fn attach_breakdown(
    p: &CostParams,
    daemons: usize,
    tasks_per_daemon: usize,
) -> LaunchBreakdownModel {
    let mut b = launch_breakdown(p, daemons, tasks_per_daemon);
    b.t_job = 0.0;
    b
}

/// Figure 5 model: Jobsnap `(init→attachAndSpawn, total)` for `daemons`
/// nodes × `tasks_per_daemon` tasks.
pub fn jobsnap_times(p: &CostParams, daemons: usize, tasks_per_daemon: usize) -> (f64, f64) {
    let launch = attach_breakdown(p, daemons, tasks_per_daemon).total();
    // Collection: snapshots run in parallel across daemons (serial within
    // one daemon over its local tasks), then a binomial gather of the
    // report lines, then the master's merge.
    let tasks = (daemons * tasks_per_daemon) as f64;
    let snapshot = p.jobsnap_snapshot_per_task * tasks_per_daemon as f64;
    let gather = p.iccl_gather_hop * CostParams::log2(daemons).ceil();
    let merge = p.jobsnap_merge_per_task * tasks;
    (launch, launch + snapshot + gather + merge)
}

/// Figure 6 model, ad hoc side: MRNet's sequential-rsh launch+connect for
/// `daemons` (1-deep). `None` = the launch fails outright (fd exhaustion).
pub fn stat_adhoc_time(p: &CostParams, daemons: usize) -> Option<f64> {
    if daemons > p.rsh_fd_capacity {
        return None;
    }
    let d = daemons as f64;
    // Sum of per-connection costs with linear growth: base*d + growth*d²/2.
    let connects = p.rsh_connect_base * d + p.rsh_connect_growth * d * d / 2.0;
    Some(p.mrnet_fe_init + connects)
}

/// Figure 6 model, LaunchMON side: attach-launch the STAT daemons through
/// the RM, then the MRNet connect handshake.
pub fn stat_launchmon_time(p: &CostParams, daemons: usize, tasks_per_daemon: usize) -> f64 {
    let launch = attach_breakdown(p, daemons, tasks_per_daemon).total();
    let d = daemons as f64;
    p.mrnet_fe_init + launch + p.stat_daemon_init_per_daemon * d + p.mrnet_accept_per_daemon * d
}

/// Table 1 model: `(dpcl, launchmon)` APAI access times for `nodes`.
pub fn oss_apai_times(p: &CostParams, nodes: usize) -> (f64, f64) {
    let l = CostParams::log2(nodes);
    (
        p.dpcl_connect + p.dpcl_parse + p.dpcl_per_log_node * l,
        p.oss_lmon_base + p.oss_lmon_per_log_node * l,
    )
}

/// The §4 BlueGene observation: same model, inflated T(job)/T(daemon).
pub fn launch_breakdown_bluegene(
    p: &CostParams,
    daemons: usize,
    tasks_per_daemon: usize,
) -> LaunchBreakdownModel {
    let mut b = launch_breakdown(p, daemons, tasks_per_daemon);
    b.t_job *= p.bluegene_spawn_multiplier;
    b.t_daemon *= p.bluegene_spawn_multiplier;
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn figure3_anchor_points() {
        // <1 s at 128 daemons (1024 tasks), LaunchMON share ≈ 5%.
        let b = launch_breakdown(&p(), 128, 8);
        assert!(b.total() < 1.0, "total {} must stay under 1 s", b.total());
        assert!(b.total() > 0.6, "total {} suspiciously small", b.total());
        let share = b.launchmon_share();
        assert!((0.03..0.08).contains(&share), "share {share} should be ≈5.2%");
        // 16-daemon point around 0.4 s, as in the figure.
        let b16 = launch_breakdown(&p(), 16, 8);
        assert!((0.3..0.55).contains(&b16.total()), "got {}", b16.total());
    }

    #[test]
    fn figure3_scaling_shapes() {
        // T(job) log-ish, T(collective) linear, tracing/other flat.
        let b1 = launch_breakdown(&p(), 16, 8);
        let b2 = launch_breakdown(&p(), 128, 8);
        assert_eq!(b1.t_tracing, b2.t_tracing);
        assert_eq!(b1.t_other, b2.t_other);
        assert!(b2.t_job < b1.t_job * 2.0, "log growth: 8x daemons < 2x T(job)");
        let coll_ratio = (b2.t_collective - 0.03) / (b1.t_collective - 0.03);
        assert!((7.0..9.0).contains(&coll_ratio), "linear collective, got {coll_ratio}");
        let rpdtab_ratio = b2.t_rpdtab / b1.t_rpdtab;
        assert!(
            (7.0..9.0).contains(&rpdtab_ratio),
            "RPDTAB ≈ linear in tasks (hostname table adds sublinear bytes), got {rpdtab_ratio}"
        );
    }

    #[test]
    fn figure5_anchor_points() {
        // ≈1.5 s total at 512 daemons; 2.92/2.76 s at 1024.
        let (_l512, t512) = jobsnap_times(&p(), 512, 8);
        assert!((1.2..1.8).contains(&t512), "512-daemon total {t512}");
        let (l1024, t1024) = jobsnap_times(&p(), 1024, 8);
        assert!((2.4..3.3).contains(&t1024), "1024-daemon total {t1024}");
        assert!((2.3..3.1).contains(&l1024), "1024-daemon launch {l1024}");
        assert!(l1024 / t1024 > 0.9, "LaunchMON dominates at scale");
    }

    #[test]
    fn figure6_anchor_points() {
        let p = p();
        // Ad hoc: ≈0.77 s at 4, ≈60.8 s at 256, failure at 512.
        let a4 = stat_adhoc_time(&p, 4).unwrap();
        assert!((0.6..1.1).contains(&a4), "adhoc@4 {a4}");
        let a256 = stat_adhoc_time(&p, 256).unwrap();
        assert!((52.0..68.0).contains(&a256), "adhoc@256 {a256}");
        assert!(stat_adhoc_time(&p, 512).is_none(), "must fail at 512");
        // LaunchMON: ≈0.46 s at 4, ≈3.57 s at 256, ≈5.6 s at 512.
        let l4 = stat_launchmon_time(&p, 4, 8);
        assert!((0.3..0.7).contains(&l4), "launchmon@4 {l4}");
        let l256 = stat_launchmon_time(&p, 256, 8);
        assert!((2.8..4.2).contains(&l256), "launchmon@256 {l256}");
        let l512 = stat_launchmon_time(&p, 512, 8);
        assert!((4.5..7.5).contains(&l512), "launchmon@512 {l512}");
        // Order of magnitude at 256.
        assert!(a256 / l256 > 10.0, "paper: >10x improvement at 256");
    }

    #[test]
    fn figure6_handshake_portion() {
        // 0.77 s of the 3.57 s at 256 is MRNet's handshake.
        let hs = p().mrnet_accept_per_daemon * 256.0;
        assert!((0.6..0.95).contains(&hs), "handshake {hs}");
    }

    #[test]
    fn table1_anchor_points() {
        for nodes in [2usize, 4, 8, 16, 32] {
            let (dpcl, lmon) = oss_apai_times(&p(), nodes);
            assert!((33.5..35.0).contains(&dpcl), "dpcl@{nodes} {dpcl}");
            assert!((0.58..0.65).contains(&lmon), "lmon@{nodes} {lmon}");
        }
        // Both rows are nearly flat: max/min < 1.05.
        let (d2, l2) = oss_apai_times(&p(), 2);
        let (d32, l32) = oss_apai_times(&p(), 32);
        assert!(d32 / d2 < 1.05);
        assert!(l32 / l2 < 1.05);
    }

    #[test]
    fn bluegene_inflates_spawn_only() {
        let base = launch_breakdown(&p(), 64, 8);
        let bg = launch_breakdown_bluegene(&p(), 64, 8);
        assert!(bg.t_job > base.t_job * 3.0);
        assert!(bg.t_daemon > base.t_daemon * 3.0);
        assert_eq!(bg.t_rpdtab, base.t_rpdtab, "engine costs unchanged");
        assert_eq!(bg.t_tracing, base.t_tracing);
    }

    #[test]
    fn attach_drops_job_cost_only() {
        let launch = launch_breakdown(&p(), 32, 8);
        let attach = attach_breakdown(&p(), 32, 8);
        assert_eq!(attach.t_job, 0.0);
        assert_eq!(attach.t_daemon, launch.t_daemon);
        assert_eq!(attach.total(), launch.total() - launch.t_job);
    }
}
