//! Property tests: collectives must be correct for any topology and size.

use proptest::prelude::*;
use std::sync::Arc;

use lmon_iccl::{ChannelFabric, IcclComm, Topology};

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![Just(Topology::Flat), Just(Topology::Binomial), (1u32..9).prop_map(Topology::KAry),]
}

/// Run one closure per rank on its own thread.
fn spmd<R: Send + 'static>(
    n: u32,
    topo: Topology,
    f: impl Fn(IcclComm) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let f = Arc::new(f);
    ChannelFabric::mesh(n)
        .into_iter()
        .map(|ep| {
            let f = f.clone();
            std::thread::spawn(move || f(IcclComm::new(ep, topo)))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn topology_is_always_a_valid_tree(topo in arb_topology(), size in 1u32..600) {
        prop_assert!(topo.validate(size).is_ok());
    }

    #[test]
    fn depth_matches_actual_tree_height(topo in arb_topology(), size in 2u32..600) {
        let depth = topo.depth(size);
        prop_assert!(depth >= 1);
        prop_assert!(depth < size, "depth {depth} exceeds chain length");
        match topo {
            // Binomial depth counts broadcast *rounds* (= ceil(log2 n)), not
            // tree height: in round k the root contacts child 2^k while the
            // subtrees relay in parallel.
            Topology::Binomial => {
                let rounds = 32 - (size - 1).leading_zeros();
                prop_assert_eq!(depth, rounds);
            }
            // Flat and k-ary schedules: depth equals the walked tree height.
            _ => {
                let mut height = 0u32;
                let mut frontier = vec![0u32];
                loop {
                    let next: Vec<u32> = frontier
                        .iter()
                        .flat_map(|&r| topo.children(r, size))
                        .collect();
                    if next.is_empty() {
                        break;
                    }
                    height += 1;
                    frontier = next;
                }
                prop_assert_eq!(depth, height, "{:?} at size {}", topo, size);
            }
        }
    }

    #[test]
    fn gather_returns_every_rank_payload(
        topo in arb_topology(),
        n in 1u32..20,
        salt in any::<u8>(),
    ) {
        let results = spmd(n, topo, move |mut comm| {
            comm.gather(vec![comm.rank() as u8 ^ salt, salt]).unwrap()
        });
        let master = results[0].as_ref().expect("master output");
        prop_assert_eq!(master.len(), n as usize);
        for (r, payload) in master.iter().enumerate() {
            prop_assert_eq!(payload.clone(), vec![r as u8 ^ salt, salt]);
        }
        prop_assert!(results[1..].iter().all(Option::is_none));
    }

    #[test]
    fn scatter_then_gather_is_identity(
        topo in arb_topology(),
        n in 1u32..16,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..32), 16),
    ) {
        let n_usize = n as usize;
        let parts: Vec<Vec<u8>> = payloads[..n_usize].to_vec();
        let expect = parts.clone();
        let results = spmd(n, topo, move |mut comm| {
            let seed = comm.is_master().then(|| parts.clone());
            let mine = comm.scatter(seed).unwrap();
            comm.gather(mine).unwrap()
        });
        let master = results[0].as_ref().expect("master output");
        prop_assert_eq!(master, &expect);
    }

    #[test]
    fn broadcast_delivers_same_bytes_everywhere(
        topo in arb_topology(),
        n in 1u32..20,
        data in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let expect = data.clone();
        let results = spmd(n, topo, move |mut comm| {
            let seed = comm.is_master().then(|| data.clone());
            comm.broadcast(seed).unwrap()
        });
        prop_assert!(results.iter().all(|r| r == &expect));
    }
}
