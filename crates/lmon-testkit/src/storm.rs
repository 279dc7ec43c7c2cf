//! Seeded launch-storm plans: the PR 2 ≈504-session scenario as reusable
//! test input.
//!
//! The paper's §2 measurement is concrete: the ad hoc rsh bootstrapper
//! falls over at ≈504 concurrent sessions. The chaos suite replays that
//! number against the mux fan-in; the daemon's admission test replays it
//! against `lmond`'s admission queue. Both want the *same* deterministic
//! request mix, so it lives here: a [`StormPlan`] expands a seed into a
//! fixed list of [`StormLaunch`] specs (sizes drawn from a small seeded
//! LCG, like `lmon-sim`'s jitter), independent of thread interleaving.

/// One launch request inside a storm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormLaunch {
    /// Storm-wide sequence number (0-based).
    pub seq: usize,
    /// Client thread that issues this launch.
    pub client: usize,
    /// Nodes to request (small on purpose: the storm stresses admission,
    /// not allocation).
    pub nodes: usize,
    /// Application tasks per node.
    pub tasks_per_node: usize,
}

/// A deterministic launch storm: `clients` threads each issuing
/// `launches_per_client` back-to-back launch requests.
#[derive(Debug, Clone)]
pub struct StormPlan {
    /// Concurrent client threads.
    pub clients: usize,
    /// Launches each client issues sequentially.
    pub launches_per_client: usize,
    /// Largest per-launch node count the plan will draw.
    pub max_nodes: usize,
    seed: u64,
}

impl StormPlan {
    /// The paper's ≈504-session storm: 24 clients × 21 launches.
    pub fn paper_504(seed: u64) -> StormPlan {
        StormPlan { clients: 24, launches_per_client: 21, max_nodes: 2, seed }
    }

    /// A custom storm shape.
    pub fn new(
        clients: usize,
        launches_per_client: usize,
        max_nodes: usize,
        seed: u64,
    ) -> StormPlan {
        StormPlan { clients, launches_per_client, max_nodes: max_nodes.max(1), seed }
    }

    /// Total sessions the storm will launch.
    pub fn total_sessions(&self) -> usize {
        self.clients * self.launches_per_client
    }

    /// Expand the plan for one client thread, deterministically: the same
    /// (plan, client) always yields the same request list.
    pub fn client_launches(&self, client: usize) -> Vec<StormLaunch> {
        // Mix the seed and client id through a splitmix-style LCG so
        // clients get distinct but reproducible size streams.
        let mut state = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((client as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        (0..self.launches_per_client)
            .map(|i| StormLaunch {
                seq: client * self.launches_per_client + i,
                client,
                nodes: 1 + next() % self.max_nodes,
                tasks_per_node: 1 + next() % 2,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full storm, client-major.
    fn all_launches(plan: &StormPlan) -> Vec<StormLaunch> {
        (0..plan.clients).flat_map(|c| plan.client_launches(c)).collect()
    }

    #[test]
    fn paper_storm_is_504_sessions() {
        let plan = StormPlan::paper_504(7);
        assert_eq!(plan.total_sessions(), 504);
        assert_eq!(all_launches(&plan).len(), 504);
    }

    #[test]
    fn plans_are_deterministic_per_seed_and_client() {
        let a = StormPlan::paper_504(7);
        let b = StormPlan::paper_504(7);
        assert_eq!(a.client_launches(3), b.client_launches(3));
        let c = StormPlan::paper_504(8);
        assert_ne!(all_launches(&a), all_launches(&c), "different seed, different mix");
    }

    #[test]
    fn sizes_stay_within_bounds() {
        let plan = StormPlan::new(5, 10, 3, 42);
        for l in all_launches(&plan) {
            assert!((1..=3).contains(&l.nodes));
            assert!((1..=2).contains(&l.tasks_per_node));
        }
    }
}
