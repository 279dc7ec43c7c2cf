//! MRNet-style topology specifications.
//!
//! A spec names the width of each tree level, root first: `"1x4x16"` is a
//! front end, 4 communication daemons, and 16 leaves. `"1x512"` is the
//! paper's "1-deep" topology: every leaf attached directly to the front
//! end (the configuration both Figure 6 curves use).
//!
//! A trailing `+N` requests a hot-spare pool: `"1x8x64+2"` builds the
//! `1x8x64` tree plus 2 pre-launched idle comm daemons that repair and
//! rolling upgrades can swap in (DESIGN.md §12). Spares are addressed past
//! the designed width of the first comm level — `(1, 8)` and `(1, 9)` here
//! — and carry no children until the recovery layer activates them.

use crate::error::{TbonError, TbonResult};

/// Parsed topology: level widths, root (width 1) first, plus the size of
/// the optional hot-spare comm pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologySpec {
    levels: Vec<u32>,
    spares: u32,
}

/// A node's position in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodePos {
    /// Level index (0 = the front end).
    pub level: u32,
    /// Index within the level.
    pub index: u32,
}

/// The front end's position: the root of every tree.
pub(crate) const ROOT: NodePos = NodePos { level: 0, index: 0 };

impl TopologySpec {
    /// Parse `"1x4x16"` (also accepts `:`-separated), with an optional
    /// trailing `+N` hot-spare pool (`"1x4x16+2"`).
    pub fn parse(s: &str) -> TbonResult<Self> {
        let (tree, spares) = match s.split_once('+') {
            Some((tree, n)) => {
                let spares: u32 = n
                    .trim()
                    .parse()
                    .map_err(|_| TbonError::BadSpec(format!("non-numeric spare count in `{s}`")))?;
                (tree, spares)
            }
            None => (s, 0),
        };
        let parts: Vec<&str> = tree.split(['x', ':']).collect();
        if parts.is_empty() || tree.trim().is_empty() {
            return Err(TbonError::BadSpec(format!("empty spec `{s}`")));
        }
        let mut levels = Vec::with_capacity(parts.len());
        for p in &parts {
            let w: u32 = p
                .trim()
                .parse()
                .map_err(|_| TbonError::BadSpec(format!("non-numeric level in `{s}`")))?;
            if w == 0 {
                return Err(TbonError::BadSpec(format!("zero-width level in `{s}`")));
            }
            levels.push(w);
        }
        if levels[0] != 1 {
            return Err(TbonError::BadSpec(format!(
                "root level must have width 1, got {} in `{s}`",
                levels[0]
            )));
        }
        for w in levels.windows(2) {
            if w[1] < w[0] {
                return Err(TbonError::BadSpec(format!(
                    "levels must not shrink: {} -> {} in `{s}`",
                    w[0], w[1]
                )));
            }
        }
        if spares > 0 && levels.len() <= 2 {
            return Err(TbonError::BadSpec(format!(
                "spare pool needs an interior comm level, none in `{s}`"
            )));
        }
        Ok(TopologySpec { levels, spares })
    }

    /// A 1-deep topology over `n` leaves (the Figure 6 shape).
    pub fn one_deep(n: u32) -> Self {
        TopologySpec { levels: vec![1, n.max(1)], spares: 0 }
    }

    /// A balanced spec with the given fanout: levels grow by `fanout` until
    /// `leaves` is covered.
    pub fn balanced(leaves: u32, fanout: u32) -> Self {
        let fanout = fanout.max(2);
        let leaves = leaves.max(1);
        let mut levels = vec![1u32];
        // Widen by `fanout` per level until the next level would already
        // cover the leaves; that next level becomes the leaf level itself.
        let mut width = 1u64;
        loop {
            let next = width * fanout as u64;
            if next >= leaves as u64 {
                break;
            }
            width = next;
            levels.push(width as u32);
        }
        levels.push(leaves);
        TopologySpec { levels, spares: 0 }
    }

    /// Level widths, root first.
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// Number of levels including root and leaves.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Width of the leaf level.
    pub fn leaf_count(&self) -> u32 {
        *self.levels.last().expect("non-empty levels")
    }

    /// Total internal communication daemons (everything between root and
    /// leaves).
    pub fn comm_count(&self) -> u32 {
        if self.levels.len() <= 2 {
            0
        } else {
            self.levels[1..self.levels.len() - 1].iter().sum()
        }
    }

    /// Parent of a node (None for the root).
    pub fn parent(&self, pos: NodePos) -> Option<NodePos> {
        if pos.level == 0 {
            return None;
        }
        let parent_level = pos.level - 1;
        let pw = self.levels[parent_level as usize] as u64;
        let cw = self.levels[pos.level as usize] as u64;
        // Children are distributed contiguously and evenly.
        let parent_index = (pos.index as u64 * pw / cw) as u32;
        Some(NodePos { level: parent_level, index: parent_index })
    }

    /// Children of a node, in index order.
    pub fn children(&self, pos: NodePos) -> Vec<NodePos> {
        let child_level = pos.level + 1;
        if child_level as usize >= self.levels.len() {
            return Vec::new();
        }
        let cw = self.levels[child_level as usize];
        (0..cw)
            .map(|i| NodePos { level: child_level, index: i })
            .filter(|c| self.parent(*c) == Some(pos))
            .collect()
    }

    /// The fan-out the overlay was built with at `level`: the maximum
    /// child count of any node on that level (0 for the leaf level).
    /// Adoption bounds during overlay repair derive from this.
    pub fn base_fanout(&self, level: u32) -> usize {
        let child_level = level as usize + 1;
        if child_level >= self.levels.len() {
            return 0;
        }
        let pw = self.levels[level as usize];
        (0..pw).map(|i| self.children(NodePos { level, index: i }).len()).max().unwrap_or(0)
    }

    /// Positions of all internal comm daemons, level by level.
    pub fn comm_positions(&self) -> Vec<NodePos> {
        (1..self.levels.len().saturating_sub(1))
            .flat_map(|l| (0..self.levels[l]).map(move |i| NodePos { level: l as u32, index: i }))
            .collect()
    }

    /// Positions of all leaves.
    pub fn leaf_positions(&self) -> Vec<NodePos> {
        let l = (self.levels.len() - 1) as u32;
        (0..self.leaf_count()).map(|i| NodePos { level: l, index: i }).collect()
    }

    /// Size of the hot-spare comm pool (`0` without a `+N` suffix).
    pub fn spares(&self) -> u32 {
        self.spares
    }

    /// Positions of the hot-spare comm daemons: addressed on the first comm
    /// level, past its designed width, so they never collide with tree
    /// nodes. Empty when the spec carries no `+N` suffix.
    pub fn spare_positions(&self) -> Vec<NodePos> {
        if self.spares == 0 || self.levels.len() <= 2 {
            return Vec::new();
        }
        let width = self.levels[1];
        (0..self.spares).map(|i| NodePos { level: 1, index: width + i }).collect()
    }

    /// Render back to the `1x4x16` form (`1x4x16+2` with a spare pool).
    pub fn to_spec_string(&self) -> String {
        let tree = self.levels.iter().map(u32::to_string).collect::<Vec<_>>().join("x");
        if self.spares > 0 {
            format!("{tree}+{}", self.spares)
        } else {
            tree
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for s in ["1x4x16", "1x512", "1x2x4x8"] {
            let spec = TopologySpec::parse(s).unwrap();
            assert_eq!(spec.to_spec_string(), s);
        }
        assert_eq!(
            TopologySpec::parse("1:4:16").unwrap().to_spec_string(),
            "1x4x16",
            "colon separator accepted"
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in ["", "0x4", "2x4", "1xx4", "1x4x2", "1xab", "1x4x16+x", "1x16+2", "+2"] {
            assert!(TopologySpec::parse(s).is_err(), "`{s}` should fail");
        }
    }

    #[test]
    fn spare_pool_parses_and_addresses_past_designed_width() {
        let spec = TopologySpec::parse("1x8x64+2").unwrap();
        assert_eq!(spec.spares(), 2);
        assert_eq!(spec.to_spec_string(), "1x8x64+2");
        assert_eq!(
            spec.spare_positions(),
            vec![NodePos { level: 1, index: 8 }, NodePos { level: 1, index: 9 }]
        );
        // Spares change neither the tree shape nor the designed fan-out.
        assert_eq!(spec.comm_count(), 8);
        assert_eq!(spec.comm_positions().len(), 8);
        assert_eq!(spec.base_fanout(0), 8);
        assert_eq!(spec.base_fanout(1), 8);
        let plain = TopologySpec::parse("1x8x64").unwrap();
        assert_eq!(plain.spares(), 0);
        assert!(plain.spare_positions().is_empty());
    }

    #[test]
    fn one_deep_shape() {
        let spec = TopologySpec::one_deep(256);
        assert_eq!(spec.depth(), 2);
        assert_eq!(spec.leaf_count(), 256);
        assert_eq!(spec.comm_count(), 0);
    }

    #[test]
    fn counts_for_three_levels() {
        let spec = TopologySpec::parse("1x4x16").unwrap();
        assert_eq!(spec.leaf_count(), 16);
        assert_eq!(spec.comm_count(), 4);
        assert_eq!(spec.comm_positions().len(), 4);
        assert_eq!(spec.leaf_positions().len(), 16);
    }

    #[test]
    fn parent_child_consistency() {
        for s in ["1x4x16", "1x3x7", "1x2x4x8", "1x512"] {
            let spec = TopologySpec::parse(s).unwrap();
            for level in 1..spec.depth() as u32 {
                for index in 0..spec.levels()[level as usize] {
                    let pos = NodePos { level, index };
                    let parent = spec.parent(pos).expect("non-root has parent");
                    assert!(
                        spec.children(parent).contains(&pos),
                        "{s}: parent of {pos:?} doesn't list it"
                    );
                }
            }
            // Every internal node's children partition the next level.
            for level in 0..(spec.depth() - 1) as u32 {
                let mut seen = std::collections::HashSet::new();
                for index in 0..spec.levels()[level as usize] {
                    for c in spec.children(NodePos { level, index }) {
                        assert!(seen.insert(c), "{s}: child {c:?} claimed twice");
                    }
                }
                assert_eq!(seen.len(), spec.levels()[level as usize + 1] as usize);
            }
        }
    }

    #[test]
    fn base_fanout_matches_children() {
        let spec = TopologySpec::parse("1x4x16").unwrap();
        assert_eq!(spec.base_fanout(0), 4);
        assert_eq!(spec.base_fanout(1), 4);
        assert_eq!(spec.base_fanout(2), 0, "leaves have no children");
        let uneven = TopologySpec::parse("1x3x7").unwrap();
        assert_eq!(uneven.base_fanout(1), 3, "widest bucket of an uneven split");
    }

    #[test]
    fn balanced_specs_cover_leaves() {
        let spec = TopologySpec::balanced(64, 4);
        assert_eq!(spec.leaf_count(), 64);
        assert_eq!(spec.levels()[0], 1);
        // 1 x 4 x 16 x 64
        assert_eq!(spec.levels(), &[1, 4, 16, 64]);
        let tiny = TopologySpec::balanced(3, 4);
        assert_eq!(tiny.levels(), &[1, 3]);
    }
}
