//! Configuration for the virtual cluster.

use std::time::Duration;

/// Parameters of the remote-access (rsh/ssh) service.
///
/// The fd accounting reproduces the ad hoc launcher failure mode from §5.2:
/// every live rsh session pins file descriptors in the *front-end* process
/// (socket + pty side); once the front end's fd table is exhausted, further
/// forks fail outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RshConfig {
    /// Wall-clock latency injected per connection establishment.
    ///
    /// Zero for functional tests; measurement runs inject the calibrated
    /// per-connection cost so small-scale real measurements have the same
    /// shape as the simulator.
    pub connect_latency: Duration,
    /// File descriptors consumed on the front end per live session.
    pub fds_per_session: usize,
    /// Front-end process fd limit (`ulimit -n` on Atlas-era Linux: 1024).
    pub fe_fd_limit: usize,
    /// Descriptors the front-end tool itself uses (stdio, logs, listening
    /// sockets) before any rsh session is opened.
    pub fe_base_fds: usize,
}

impl Default for RshConfig {
    fn default() -> Self {
        RshConfig {
            connect_latency: Duration::ZERO,
            fds_per_session: 2,
            fe_fd_limit: 1024,
            fe_base_fds: 16,
        }
    }
}

impl RshConfig {
    /// Largest number of simultaneously live sessions this config admits.
    pub fn max_sessions(&self) -> usize {
        self.fe_fd_limit.saturating_sub(self.fe_base_fds) / self.fds_per_session.max(1)
    }
}

/// Parameters of the whole virtual cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of compute nodes.
    pub nodes: usize,
    /// Cores per compute node (Atlas: 8 = four dual-core sockets).
    pub cores_per_node: usize,
    /// Hostname prefix for compute nodes (`node00000`, `node00001`, ...).
    pub host_prefix: String,
    /// Hostname of the front-end node (the paper notes Atlas's front-end
    /// nodes run the identical software stack).
    pub fe_host: String,
    /// Maximum process-table entries per node.
    pub proc_table_cap: usize,
    /// Remote access parameters.
    pub rsh: RshConfig,
    /// Wall-clock latency injected per *active* process spawn (a stand-in
    /// for fork/exec plus image load on a real node).
    ///
    /// Zero for functional tests; launch-latency measurement runs inject a
    /// calibrated cost. A single spawn
    /// ([`spawn_active_with_pid`](crate::VirtualCluster::spawn_active_with_pid))
    /// pays it on the caller's thread. A bulk spawn
    /// ([`spawn_active_waves`](crate::VirtualCluster::spawn_active_waves))
    /// pays it once per wave, as a wave's node agents forking at once
    /// would, so a wide spawn's wait keeps a real machine's shape without
    /// a thread per agent.
    pub spawn_latency: Duration,
    /// Seed for synthesized per-task `/proc` statistics.
    pub stats_seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            cores_per_node: 8,
            host_prefix: "node".to_string(),
            fe_host: "atlas-fe0".to_string(),
            proc_table_cap: 4096,
            rsh: RshConfig::default(),
            spawn_latency: Duration::ZERO,
            stats_seed: 0x1A_0508,
        }
    }
}

impl ClusterConfig {
    /// A cluster with `nodes` compute nodes and defaults elsewhere.
    pub fn with_nodes(nodes: usize) -> Self {
        ClusterConfig { nodes, ..Default::default() }
    }

    /// Hostname of compute node `i`.
    pub fn hostname(&self, i: usize) -> String {
        format!("{}{:05}", self.host_prefix, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rsh_admits_about_five_hundred_sessions() {
        // (1024 - 16) / 2 = 504: the ad hoc approach dies just below 512
        // nodes, matching §5.2.
        let cfg = RshConfig::default();
        assert_eq!(cfg.max_sessions(), 504);
    }

    #[test]
    fn hostname_format_is_stable() {
        let cfg = ClusterConfig::with_nodes(3);
        assert_eq!(cfg.hostname(0), "node00000");
        assert_eq!(cfg.hostname(42), "node00042");
    }

    #[test]
    fn max_sessions_handles_degenerate_configs() {
        let cfg = RshConfig { fe_fd_limit: 10, fe_base_fds: 20, ..Default::default() };
        assert_eq!(cfg.max_sessions(), 0);
        let cfg =
            RshConfig { fds_per_session: 0, fe_fd_limit: 8, fe_base_fds: 0, ..Default::default() };
        assert_eq!(cfg.max_sessions(), 8, "zero fds/session clamps to 1");
    }
}
