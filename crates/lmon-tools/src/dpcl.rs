//! A DPCL (Dynamic Probe Class Library) substrate.
//!
//! §5.3: Open|SpeedShop "builds on DPCL's binary instrumentation
//! functionality. ... However, DPCL does not contain any mechanism to start
//! its daemons along with the application: it either relies on a set of
//! preinstalled root daemons, which is infeasible in production or
//! security-sensitive environments, or requires a cumbersome manual launch
//! of the daemons." And §2: persistent daemons "represent a security risk
//! as they act as root on behalf of non-privileged users".
//!
//! The pieces reproduced here:
//!
//! * [`SyntheticBinary`] — an executable image with a symbol table. DPCL
//!   treats every process "the same way as the target application,
//!   including parsing its binary fully" (§5.3) — the constant ~34 s of
//!   Table 1. Parsing cost scales with symbol count.
//! * [`DpclInfra`] — the persistent root super-daemon deployment: one
//!   daemon per node, installed ahead of time, running as root.
//! * [`ProbeModule`] — minimal instrumentation-point bookkeeping so O|SS
//!   has something to install after acquisition.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lmon_cluster::node::NodeId;
use lmon_cluster::process::{Pid, ProcSpec};
use lmon_cluster::VirtualCluster;

/// An executable image with a symbol table.
#[derive(Debug, Clone)]
pub struct SyntheticBinary {
    /// Image name.
    pub name: String,
    /// (mangled symbol, address) pairs, unsorted as a linker would emit.
    pub symbols: Vec<(String, u64)>,
}

impl SyntheticBinary {
    /// Generate an image with `n_symbols` deterministic symbols.
    pub fn generate(name: &str, n_symbols: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD9C1);
        let mut symbols = Vec::with_capacity(n_symbols);
        for i in 0..n_symbols {
            let addr = 0x40_0000 + (i as u64) * 0x40 + rng.gen_range(0u64..0x30);
            symbols.push((format!("_ZN4app{}F{i:06}E7processEv", name.len()), addr));
        }
        SyntheticBinary { name: name.to_string(), symbols }
    }
}

/// The result of a full binary parse.
#[derive(Debug)]
pub struct SymbolTable {
    by_name: BTreeMap<String, u64>,
    sorted_addrs: Vec<u64>,
}

impl SymbolTable {
    /// Number of symbols parsed.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Address lookup by (mangled) name.
    pub fn addr_of(&self, name: &str) -> Option<u64> {
        self.by_name.get(name).copied()
    }

    /// Map a PC back to the nearest preceding symbol address (the lookup
    /// PC-sampling experiments do per sample).
    pub fn containing(&self, pc: u64) -> Option<u64> {
        match self.sorted_addrs.binary_search(&pc) {
            Ok(i) => Some(self.sorted_addrs[i]),
            Err(0) => None,
            Err(i) => Some(self.sorted_addrs[i - 1]),
        }
    }
}

/// Fully parse a binary the way DPCL does for *every* process it touches —
/// including the RM launcher. This walk (demangle every symbol, build both
/// index structures) is the dominant, scale-independent cost of Table 1's
/// DPCL rows.
pub fn parse_binary(bin: &SyntheticBinary) -> SymbolTable {
    let mut by_name = BTreeMap::new();
    let mut sorted_addrs = Vec::with_capacity(bin.symbols.len());
    for (mangled, addr) in &bin.symbols {
        // A demangling pass: the string work is the point, matching the
        // per-symbol cost profile of a real parser.
        let demangled: String = mangled
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_lowercase();
        by_name.insert(demangled, *addr);
        sorted_addrs.push(*addr);
    }
    sorted_addrs.sort_unstable();
    SymbolTable { by_name, sorted_addrs }
}

/// The persistent root super-daemon deployment.
pub struct DpclInfra {
    cluster: VirtualCluster,
    daemons: Mutex<Vec<Pid>>,
}

impl DpclInfra {
    /// "Preinstall" one root super daemon per compute node plus the front
    /// end — the deployment burden the paper criticizes.
    pub fn install(cluster: &VirtualCluster) -> Arc<DpclInfra> {
        let infra =
            Arc::new(DpclInfra { cluster: cluster.clone(), daemons: Mutex::new(Vec::new()) });
        let mut nodes: Vec<NodeId> = vec![NodeId::FrontEnd];
        nodes.extend((0..cluster.node_count()).map(|i| NodeId::Compute(i as u32)));
        for node in nodes {
            let spec = ProcSpec::named("dpcld").env_kv("UID", "0"); // runs as root
            let pid = cluster
                .spawn_active(node, spec, |ctx| {
                    while !ctx.killed() {
                        std::thread::park_timeout(std::time::Duration::from_millis(5));
                    }
                })
                .expect("super daemon spawn");
            infra.daemons.lock().push(pid);
        }
        infra
    }

    /// Number of installed super daemons.
    pub fn daemon_count(&self) -> usize {
        self.daemons.lock().len()
    }

    /// Connect to the super daemon on `host`; fails if none is installed
    /// there (the "infeasible in production" path).
    pub fn connect(&self, host: &str) -> Result<Pid, String> {
        let node = self.cluster.node_by_host(host).map_err(|e| e.to_string())?;
        let daemons = self.daemons.lock();
        daemons
            .iter()
            .find(|pid| node.proc(**pid).is_some())
            .copied()
            .ok_or_else(|| format!("no DPCL super daemon installed on {host}"))
    }

    /// Tear the deployment down.
    pub fn uninstall(&self) {
        for pid in self.daemons.lock().drain(..) {
            let _ = self.cluster.kill(pid);
            let _ = self.cluster.wait_pid(pid);
            let _ = self.cluster.join_thread(pid);
        }
    }
}

/// Instrumentation points installed into a target process.
#[derive(Debug, Default)]
pub struct ProbeModule {
    probes: Vec<(Pid, String)>,
}

impl ProbeModule {
    /// An empty module.
    pub fn new() -> Self {
        ProbeModule::default()
    }

    /// Install a named probe into a process.
    pub fn install(&mut self, target: Pid, probe: impl Into<String>) {
        self.probes.push((target, probe.into()));
    }

    /// Installed probe count.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether any probes are installed.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::ClusterConfig;

    #[test]
    fn binary_generation_is_deterministic() {
        let a = SyntheticBinary::generate("srun", 100, 7);
        let b = SyntheticBinary::generate("srun", 100, 7);
        assert_eq!(a.symbols, b.symbols);
        assert_eq!(a.symbols.len(), 100);
    }

    #[test]
    fn parse_builds_complete_table() {
        let bin = SyntheticBinary::generate("app", 1000, 1);
        let table = parse_binary(&bin);
        assert_eq!(table.len(), 1000);
        assert!(!table.is_empty());
    }

    #[test]
    fn pc_lookup_finds_nearest_symbol() {
        let bin = SyntheticBinary::generate("app", 50, 2);
        let table = parse_binary(&bin);
        let some_addr = bin.symbols[10].1;
        assert_eq!(table.containing(some_addr), Some(some_addr));
        assert_eq!(table.containing(some_addr + 1), Some(some_addr));
        assert_eq!(table.containing(0), None, "below the image base");
    }

    #[test]
    fn super_daemons_installed_everywhere_and_connectable() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(3));
        let infra = DpclInfra::install(&cluster);
        assert_eq!(infra.daemon_count(), 4, "3 compute + 1 FE");
        assert!(infra.connect("node00001").is_ok());
        assert!(infra.connect("atlas-fe0").is_ok());
        assert!(infra.connect("ghost").is_err());
        infra.uninstall();
        assert_eq!(cluster.total_live(), 0);
    }

    #[test]
    fn connect_fails_without_installation() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let infra =
            Arc::new(DpclInfra { cluster: cluster.clone(), daemons: Mutex::new(Vec::new()) });
        assert!(infra.connect("node00000").is_err());
    }

    #[test]
    fn probes_install_and_count() {
        let mut m = ProbeModule::new();
        assert!(m.is_empty());
        m.install(Pid(1), "pc_sample_entry");
        m.install(Pid(1), "pc_sample_exit");
        m.install(Pid(2), "pc_sample_entry");
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }
}
