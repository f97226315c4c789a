//! The hint interface: PostgreSQL's six `enable_*` operator knobs.
//!
//! LimeQO "uses the same 49 hints as Bao, which are based on six
//! configuration parameters where we can enable or disable hash join, merge
//! join, nested loop join, index scan, sequential scan, and index-only scan"
//! (§5). 2⁶ = 64 raw combinations, minus those that disable *all* join
//! operators or *all* scan operators (the optimizer could not produce a plan
//! at zero disable-penalty) leaves (2³−1) × (2³−1) = 49 valid hint sets.

/// One hint set: which physical operators the optimizer may use freely.
///
/// Disabled operators are still *plannable* — like PostgreSQL, the optimizer
/// charges them a large `disable_cost` penalty at planning time, and the
/// penalty never appears in execution time. The default configuration
/// (everything enabled, [`HintConfig::default_hint`]) reproduces the vanilla
/// optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HintConfig {
    /// `enable_hashjoin`
    pub hash_join: bool,
    /// `enable_mergejoin`
    pub merge_join: bool,
    /// `enable_nestloop`
    pub nest_loop: bool,
    /// `enable_seqscan`
    pub seq_scan: bool,
    /// `enable_indexscan`
    pub index_scan: bool,
    /// `enable_indexonlyscan`
    pub index_only_scan: bool,
}

impl HintConfig {
    /// The default hint: every operator enabled (vanilla PostgreSQL).
    pub fn default_hint() -> Self {
        HintConfig {
            hash_join: true,
            merge_join: true,
            nest_loop: true,
            seq_scan: true,
            index_scan: true,
            index_only_scan: true,
        }
    }

    /// True when at least one join operator and one scan operator remain
    /// enabled — the validity rule that yields 49 configurations.
    pub fn is_valid(&self) -> bool {
        (self.hash_join || self.merge_join || self.nest_loop)
            && (self.seq_scan || self.index_scan || self.index_only_scan)
    }

    /// Pack into a 6-bit mask (bit order: hash, merge, nl, seq, idx, idx-only).
    pub fn to_bits(&self) -> u8 {
        (self.hash_join as u8)
            | (self.merge_join as u8) << 1
            | (self.nest_loop as u8) << 2
            | (self.seq_scan as u8) << 3
            | (self.index_scan as u8) << 4
            | (self.index_only_scan as u8) << 5
    }

    /// Unpack from a 6-bit mask.
    pub fn from_bits(bits: u8) -> Self {
        HintConfig {
            hash_join: bits & 1 != 0,
            merge_join: bits & 2 != 0,
            nest_loop: bits & 4 != 0,
            seq_scan: bits & 8 != 0,
            index_scan: bits & 16 != 0,
            index_only_scan: bits & 32 != 0,
        }
    }

    /// Short human-readable tag, e.g. `hm-s-i` (enabled initials, `-` for
    /// disabled), in knob order hash/merge/nestloop/seq/index/indexonly.
    pub fn tag(&self) -> String {
        let mut s = String::with_capacity(6);
        s.push(if self.hash_join { 'h' } else { '-' });
        s.push(if self.merge_join { 'm' } else { '-' });
        s.push(if self.nest_loop { 'n' } else { '-' });
        s.push(if self.seq_scan { 's' } else { '-' });
        s.push(if self.index_scan { 'i' } else { '-' });
        s.push(if self.index_only_scan { 'o' } else { '-' });
        s
    }
}

impl Default for HintConfig {
    fn default() -> Self {
        Self::default_hint()
    }
}

/// The enumerated hint space: all 49 valid configurations, default first.
#[derive(Debug, Clone)]
pub struct HintSpace {
    configs: Vec<HintConfig>,
}

impl HintSpace {
    /// Enumerate the 49 valid hint sets. The default hint (all enabled) is
    /// always index 0, matching the paper's convention that column 0 of the
    /// workload matrix is the default plan.
    pub fn all() -> Self {
        let mut configs = vec![HintConfig::default_hint()];
        for bits in 0..64u8 {
            let c = HintConfig::from_bits(bits);
            if c.is_valid() && c != HintConfig::default_hint() {
                configs.push(c);
            }
        }
        HintSpace { configs }
    }

    /// Number of hint sets (49 for the full space).
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True when the space is empty (never, for [`HintSpace::all`]).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The hint set at `idx`.
    pub fn get(&self, idx: usize) -> HintConfig {
        self.configs[idx]
    }

    /// All configurations in order.
    pub fn configs(&self) -> &[HintConfig] {
        &self.configs
    }

    /// Restrict the space to the configurations at `indices` (scenario
    /// hint-space shapes: deployments often expose only a vetted hint
    /// subset). The default hint is prepended if `indices` omits index 0,
    /// preserving the column-0-is-default convention.
    pub fn subset(&self, indices: &[usize]) -> HintSpace {
        let mut configs = vec![self.configs[0]];
        for &i in indices {
            assert!(i < self.configs.len(), "hint index {i} out of range");
            if i != 0 {
                configs.push(self.configs[i]);
            }
        }
        HintSpace { configs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_49_valid_hints() {
        assert_eq!(HintSpace::all().len(), 49);
    }

    #[test]
    fn default_hint_is_first_and_all_enabled() {
        let space = HintSpace::all();
        let d = space.get(0);
        assert_eq!(d, HintConfig::default_hint());
        assert!(d.hash_join && d.merge_join && d.nest_loop);
        assert!(d.seq_scan && d.index_scan && d.index_only_scan);
    }

    #[test]
    fn subset_keeps_default_first() {
        let space = HintSpace::all();
        let sub = space.subset(&[5, 12, 0, 48]);
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.get(0), HintConfig::default_hint());
        assert_eq!(sub.get(1), space.get(5));
        assert_eq!(sub.get(3), space.get(48));
        let no_default = space.subset(&[3, 7]);
        assert_eq!(no_default.len(), 3);
        assert_eq!(no_default.get(0), HintConfig::default_hint());
    }

    #[test]
    fn no_config_disables_all_joins_or_all_scans() {
        for c in HintSpace::all().configs() {
            assert!(c.hash_join || c.merge_join || c.nest_loop, "{c:?}");
            assert!(c.seq_scan || c.index_scan || c.index_only_scan, "{c:?}");
        }
    }

    #[test]
    fn configs_are_distinct() {
        let space = HintSpace::all();
        let mut bits: Vec<u8> = space.configs().iter().map(|c| c.to_bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), 49);
    }

    #[test]
    fn bits_round_trip() {
        for c in HintSpace::all().configs() {
            assert_eq!(HintConfig::from_bits(c.to_bits()), *c);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let no_joins = HintConfig {
            hash_join: false,
            merge_join: false,
            nest_loop: false,
            ..HintConfig::default_hint()
        };
        assert!(!no_joins.is_valid());
        let no_scans = HintConfig {
            seq_scan: false,
            index_scan: false,
            index_only_scan: false,
            ..HintConfig::default_hint()
        };
        assert!(!no_scans.is_valid());
    }

    #[test]
    fn tag_format() {
        assert_eq!(HintConfig::default_hint().tag(), "hmnsio");
        let c = HintConfig { nest_loop: false, index_scan: false, ..HintConfig::default_hint() };
        assert_eq!(c.tag(), "hm-s-o");
    }
}
