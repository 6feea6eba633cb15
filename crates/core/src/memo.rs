//! Memoized incremental sweep evaluation.
//!
//! FOCAL's studies evaluate the same expensive sub-results many times:
//! the robustness stage and its scenario-DSL twin rerun identical
//! Monte-Carlo experiments, and overlapping α-grids re-classify the
//! same `(x, y, α)` points. [`SweepMemo`] caches those sub-results
//! across calls so repeated sweeps become lookups.
//!
//! ## Key policy
//!
//! A cache key is the **canonical bit-pattern** of every input that
//! determines the result: each `f64` contributes its `to_bits()` word
//! and discrete inputs (scenario, seed, sample count) contribute one
//! word each. Equal keys therefore imply bit-identical results — the
//! memoized evaluators are pure functions of exactly the fields in the
//! key. Distinct bit-patterns that compare equal as floats (`-0.0` vs
//! `0.0`) get distinct keys; that costs at most a redundant miss, never
//! a wrong hit.
//!
//! ## Invalidation
//!
//! There is none, deliberately: keys capture *all* inputs, so an entry
//! can never go stale — a changed input is a different key. The only
//! ways a cached value could diverge from a fresh evaluation are a
//! model-code change (a new build, which starts with an empty memo) or
//! an injected fault; every sweep taking `memo: Option<&mut SweepMemo>`
//! bypasses the memo entirely while its engine carries a fault plan
//! ([`focal_engine::Engine::faults`]) so injected faults always reach
//! the real evaluation path.
//!
//! ## Determinism and confinement
//!
//! Each table is a [`ProbeTable`], a plain open-addressed vector — no
//! `HashMap` (banned in determinism crates: iteration order), no
//! interior mutability, no locks or atomics (banned outside
//! `crates/engine`). `ProbeTable` takes its hash and equality from the
//! caller, so focal-serve's evaluation cache indexes its slab with the
//! same table. Callers thread
//! `&mut SweepMemo` through strictly serial call boundaries: lookups
//! happen before an engine fan-out, inserts after it returns, so
//! memo-on and memo-off runs produce byte-identical outputs.

use crate::classify::Sustainability;
use crate::design::DesignPoint;
use crate::scenario::Scenario;
use crate::sensitivity::AlphaCrossover;
use crate::uncertainty::McSummary;
use crate::weight::{E2oRange, E2oWeight};

/// Hit/miss/occupancy counters of one memo table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to a real evaluation.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl MemoStats {
    /// Fraction of lookups answered from the table, in `0.0..=1.0`.
    ///
    /// Defined as `0.0` when no lookups have happened, so callers can
    /// print it unconditionally.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters for every table of a [`SweepMemo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepMemoStats {
    /// Per-α classification cache.
    pub classify: MemoStats,
    /// α-crossover cache.
    pub crossover: MemoStats,
    /// Monte-Carlo cache: full summaries and bare probabilities of
    /// reduction share this one table.
    pub mc: MemoStats,
}

impl SweepMemoStats {
    /// Total hits across all tables.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.classify.hits + self.crossover.hits + self.mc.hits
    }

    /// Total misses across all tables.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.classify.misses + self.crossover.misses + self.mc.misses
    }

    /// Total entries across all tables.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.classify.entries + self.crossover.entries + self.mc.entries
    }

    /// Fraction of all lookups answered from any table, in `0.0..=1.0`
    /// (`0.0` when no lookups have happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// An open-addressed, linear-probing table of `T` values. The caller
/// supplies each value's hash and the equality that finds it, so one
/// table serves [`SweepMemo`]'s fixed-width keys, stored inline, and
/// focal-serve's cache indexes, whose slots name entries kept in a slab
/// beside the table.
///
/// Capacity is a power of two and load is kept below 7/8, so probing
/// always terminates at a match or an empty slot. Every operation is
/// panic-free by construction (indices are masked, access goes through
/// `get`/`get_mut`). No hash is stored: growth asks the caller to
/// rehash each value, which keeps a slot as small as `Option<T>`.
#[derive(Debug, Clone)]
pub struct ProbeTable<T> {
    /// `None` = empty slot; allocated lazily on first insert.
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for ProbeTable<T> {
    fn default() -> Self {
        ProbeTable::new()
    }
}

impl<T> ProbeTable<T> {
    /// An empty table; nothing is allocated until the first insert.
    #[must_use]
    pub const fn new() -> Self {
        ProbeTable {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Values stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no value is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the slot holding a value `eq` accepts, or of the first
    /// empty slot on `hash`'s probe path. The load invariant guarantees
    /// an empty slot exists; the step bound is pure defense in depth.
    fn probe(&self, hash: u64, mut eq: impl FnMut(&T) -> bool) -> usize {
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = (hash as usize) & mask;
        let mut steps = 0usize;
        while steps <= mask {
            match self.slots.get(i) {
                Some(Some(value)) if !eq(value) => {
                    i = (i + 1) & mask;
                    steps += 1;
                }
                _ => return i,
            }
        }
        i
    }

    /// The value on `hash`'s probe path that `eq` accepts.
    pub fn get(&self, hash: u64, eq: impl FnMut(&T) -> bool) -> Option<&T> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots
            .get(self.probe(hash, eq))
            .and_then(Option::as_ref)
    }

    /// Stores `value` under `hash` in place of the value `eq` accepts,
    /// which is returned, or in a fresh slot. `rehash` gives the hash of
    /// a stored value when the table grows (at 7/8 load, or on first
    /// use).
    pub fn insert(
        &mut self,
        hash: u64,
        value: T,
        eq: impl FnMut(&T) -> bool,
        rehash: impl Fn(&T) -> u64,
    ) -> Option<T> {
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow(rehash);
        }
        let i = self.probe(hash, eq);
        let slot = self.slots.get_mut(i)?;
        let old = slot.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Doubles the capacity (64 slots on first use) and re-places every
    /// value at its `rehash` probe slot.
    fn grow(&mut self, rehash: impl Fn(&T) -> u64) {
        let new_cap = if self.slots.is_empty() {
            64
        } else {
            self.slots.len().saturating_mul(2)
        };
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_cap, || None);
        for value in old.into_iter().flatten() {
            let i = self.probe(rehash(&value), |_| false);
            if let Some(slot) = self.slots.get_mut(i) {
                *slot = Some(value);
            }
        }
    }
}

/// A [`ProbeTable`] map from fixed-width `[u64; N]` keys to values,
/// with hit/miss counters: the shape of every [`SweepMemo`] table.
#[derive(Debug, Clone)]
struct MemoTable<const N: usize, V> {
    table: ProbeTable<([u64; N], V)>,
    hits: u64,
    misses: u64,
}

impl<const N: usize, V: Clone> MemoTable<N, V> {
    const fn new() -> Self {
        MemoTable {
            table: ProbeTable::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// FNV-1a over the key words, finished with a 64-bit avalanche so
    /// power-of-two masking sees well-mixed low bits.
    fn hash(key: &[u64; N]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &word in key {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }

    fn lookup(&mut self, key: &[u64; N]) -> Option<V> {
        self.lookup_as(key, |v| Some(v.clone()))
    }

    /// Looks `key` up and reads the entry through `read`; an entry that
    /// `read` cannot answer from counts as a miss, like an absent one.
    fn lookup_as<R>(&mut self, key: &[u64; N], read: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        let found = self
            .table
            .get(Self::hash(key), |(k, _)| k == key)
            .and_then(|(_, v)| read(v));
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    fn insert(&mut self, key: [u64; N], value: V) {
        self.table.insert(
            Self::hash(&key),
            (key, value),
            |(k, _)| *k == key,
            |(k, _)| Self::hash(k),
        );
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.table.len(),
        }
    }
}

/// Canonical key words of one design point: the bit-patterns of its
/// four quantities.
fn design_words(p: &DesignPoint) -> [u64; 4] {
    [
        p.area().get().to_bits(),
        p.power().get().to_bits(),
        p.energy().get().to_bits(),
        p.performance().get().to_bits(),
    ]
}

/// One-word discriminant of a scenario.
fn scenario_word(s: Scenario) -> u64 {
    match s {
        Scenario::FixedWork => 0,
        Scenario::FixedTime => 1,
    }
}

/// One Monte-Carlo table entry: the full summary a
/// [`MonteCarloNcf::run_on`](crate::MonteCarloNcf::run_on) caller
/// needed, or only the probability of reduction a
/// [`MonteCarloNcf::prob_reduction_on`](crate::MonteCarloNcf::prob_reduction_on)
/// caller counted.
#[derive(Debug, Clone)]
enum McEntry {
    Summary(McSummary),
    Probability(f64),
}

/// The cross-sweep memo: per-α classifications, α-crossovers, and
/// Monte-Carlo results, each keyed on the canonical bit-patterns of
/// every input that determines the result (see the module docs).
///
/// # Examples
///
/// ```
/// use focal_core::{DesignPoint, E2oRange, MonteCarloNcf, Scenario, SweepMemo};
/// use focal_engine::Engine;
///
/// let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1)?;
/// let y = DesignPoint::reference();
/// let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 42)?;
/// let engine = Engine::serial();
/// let mut memo = SweepMemo::new();
/// let cold = mc.run_on(&engine, &x, &y, Scenario::FixedWork, 4096, Some(&mut memo))?;
/// let warm = mc.run_on(&engine, &x, &y, Scenario::FixedWork, 4096, Some(&mut memo))?;
/// assert_eq!(cold, warm);
/// assert_eq!(memo.stats().mc.hits, 1);
/// # Ok::<(), focal_core::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SweepMemo {
    classify: MemoTable<10, Sustainability>,
    crossover: MemoTable<9, AlphaCrossover>,
    mc: MemoTable<14, McEntry>,
}

impl Default for SweepMemo {
    fn default() -> SweepMemo {
        SweepMemo::new()
    }
}

impl SweepMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> SweepMemo {
        SweepMemo {
            classify: MemoTable::new(),
            crossover: MemoTable::new(),
            mc: MemoTable::new(),
        }
    }

    /// Current hit/miss/occupancy counters of every table.
    #[must_use]
    pub fn stats(&self) -> SweepMemoStats {
        SweepMemoStats {
            classify: self.classify.stats(),
            crossover: self.crossover.stats(),
            mc: self.mc.stats(),
        }
    }

    /// Runs `fan` over `items` through an optional memo. Without one
    /// this is the single call `fan(items)`. With one, `lookup` answers
    /// the cached items, one `fan` call evaluates the misses alone,
    /// `insert` records them, and results merge back in item order.
    ///
    /// # Errors
    ///
    /// Whatever `fan` returns.
    pub(crate) fn fan_through<T: Clone, R, E>(
        memo: Option<&mut SweepMemo>,
        items: &[T],
        lookup: impl Fn(&mut SweepMemo, &T) -> Option<R>,
        insert: impl Fn(&mut SweepMemo, &T, &R),
        fan: impl Fn(&[T]) -> Result<Vec<R>, E>,
    ) -> Result<Vec<R>, E> {
        let Some(memo) = memo else {
            return fan(items);
        };
        let cached: Vec<Option<R>> = items.iter().map(|item| lookup(memo, item)).collect();
        let missing: Vec<T> = items
            .iter()
            .zip(&cached)
            .filter(|(_, hit)| hit.is_none())
            .map(|(item, _)| item.clone())
            .collect();
        let fresh = fan(&missing)?;
        for (item, result) in missing.iter().zip(&fresh) {
            insert(memo, item, result);
        }
        let mut fresh = fresh.into_iter();
        let merged: Option<Vec<R>> = cached
            .into_iter()
            .map(|hit| hit.or_else(|| fresh.next()))
            .collect();
        // Misses and fresh results pair up by construction; should the
        // fan-out ever under-return, recompute the sweep unmemoized
        // rather than trust a gap.
        merged.map_or_else(|| fan(items), Ok)
    }

    fn classify_key(
        x: &DesignPoint,
        y: &DesignPoint,
        alpha: E2oWeight,
        tolerance: f64,
    ) -> [u64; 10] {
        let [xa, xp, xe, xs] = design_words(x);
        let [ya, yp, ye, ys] = design_words(y);
        [
            xa,
            xp,
            xe,
            xs,
            ya,
            yp,
            ye,
            ys,
            alpha.get().to_bits(),
            tolerance.to_bits(),
        ]
    }

    pub(crate) fn classify_lookup(
        &mut self,
        x: &DesignPoint,
        y: &DesignPoint,
        alpha: E2oWeight,
        tolerance: f64,
    ) -> Option<Sustainability> {
        self.classify
            .lookup(&Self::classify_key(x, y, alpha, tolerance))
    }

    pub(crate) fn classify_insert(
        &mut self,
        x: &DesignPoint,
        y: &DesignPoint,
        alpha: E2oWeight,
        tolerance: f64,
        class: Sustainability,
    ) {
        self.classify
            .insert(Self::classify_key(x, y, alpha, tolerance), class);
    }

    fn crossover_key(x: &DesignPoint, y: &DesignPoint, scenario: Scenario) -> [u64; 9] {
        let [xa, xp, xe, xs] = design_words(x);
        let [ya, yp, ye, ys] = design_words(y);
        [xa, xp, xe, xs, ya, yp, ye, ys, scenario_word(scenario)]
    }

    pub(crate) fn crossover_lookup(
        &mut self,
        x: &DesignPoint,
        y: &DesignPoint,
        scenario: Scenario,
    ) -> Option<AlphaCrossover> {
        self.crossover.lookup(&Self::crossover_key(x, y, scenario))
    }

    pub(crate) fn crossover_insert(
        &mut self,
        x: &DesignPoint,
        y: &DesignPoint,
        scenario: Scenario,
        result: AlphaCrossover,
    ) {
        self.crossover
            .insert(Self::crossover_key(x, y, scenario), result);
    }

    /// The Monte-Carlo table key of one experiment.
    pub(crate) fn mc_key(
        x: &DesignPoint,
        y: &DesignPoint,
        scenario: Scenario,
        range: E2oRange,
        ratio_uncertainty: f64,
        seed: u64,
        samples: usize,
    ) -> [u64; 14] {
        let [xa, xp, xe, xs] = design_words(x);
        let [ya, yp, ye, ys] = design_words(y);
        [
            xa,
            xp,
            xe,
            xs,
            ya,
            yp,
            ye,
            ys,
            scenario_word(scenario),
            range.low().get().to_bits(),
            range.high().get().to_bits(),
            ratio_uncertainty.to_bits(),
            seed,
            samples as u64,
        ]
    }

    /// The cached summary of an experiment. A bare probability cannot
    /// answer this, so it counts as a miss, and the caller's insert then
    /// replaces it with the summary.
    pub(crate) fn mc_lookup(&mut self, key: &[u64; 14]) -> Option<McSummary> {
        self.mc.lookup_as(key, |entry| match entry {
            McEntry::Summary(summary) => Some(summary.clone()),
            McEntry::Probability(_) => None,
        })
    }

    pub(crate) fn mc_insert(&mut self, key: [u64; 14], summary: McSummary) {
        self.mc.insert(key, McEntry::Summary(summary));
    }

    /// The cached probability of reduction of an experiment, read from
    /// either kind of entry.
    pub(crate) fn mc_prob_lookup(&mut self, key: &[u64; 14]) -> Option<f64> {
        self.mc.lookup_as(key, |entry| match entry {
            McEntry::Summary(summary) => Some(summary.prob_reduction),
            McEntry::Probability(p) => Some(*p),
        })
    }

    pub(crate) fn mc_prob_insert(&mut self, key: [u64; 14], prob_reduction: f64) {
        self.mc.insert(key, McEntry::Probability(prob_reduction));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips_and_counts() {
        let mut t: MemoTable<2, u64> = MemoTable::new();
        assert_eq!(t.lookup(&[1, 2]), None);
        t.insert([1, 2], 10);
        t.insert([3, 4], 30);
        assert_eq!(t.lookup(&[1, 2]), Some(10));
        assert_eq!(t.lookup(&[3, 4]), Some(30));
        assert_eq!(t.lookup(&[1, 3]), None);
        let s = t.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 2, 2));
    }

    #[test]
    fn insert_overwrites_existing_key() {
        let mut t: MemoTable<1, &str> = MemoTable::new();
        t.insert([7], "a");
        t.insert([7], "b");
        assert_eq!(t.lookup(&[7]), Some("b"));
        assert_eq!(t.stats().entries, 1);
    }

    #[test]
    fn table_survives_growth_past_initial_capacity() {
        let mut t: MemoTable<1, usize> = MemoTable::new();
        for i in 0..1000u64 {
            t.insert([i.wrapping_mul(0x9E37_79B9_7F4A_7C15)], i as usize);
        }
        assert_eq!(t.stats().entries, 1000);
        for i in 0..1000u64 {
            assert_eq!(
                t.lookup(&[i.wrapping_mul(0x9E37_79B9_7F4A_7C15)]),
                Some(i as usize),
                "key {i} lost in growth"
            );
        }
    }

    #[test]
    fn colliding_probe_paths_stay_distinct() {
        // Keys engineered to share low hash bits still resolve by full
        // key comparison.
        let mut t: MemoTable<1, u64> = MemoTable::new();
        for i in 0..128u64 {
            t.insert([i], i * 2);
        }
        for i in 0..128u64 {
            assert_eq!(t.lookup(&[i]), Some(i * 2));
        }
    }

    /// The hashes the oracle test probes under: well mixed, eight
    /// buckets, one bucket, and low bits that are always zero (every
    /// key starts at slot 0 of any table under 2^40 slots).
    fn forced_hash(kind: u8, key: u64) -> u64 {
        match kind {
            0 => MemoTable::<1, u64>::hash(&[key]),
            1 => key % 8,
            2 => 0,
            _ => key << 40,
        }
    }

    proptest::proptest! {
        #[test]
        fn probe_table_matches_a_btreemap_oracle(
            kind in 0u8..4,
            ops in proptest::collection::vec((0u64..300, 0u64..1000, proptest::any::<bool>()), 1..700),
        ) {
            // Up to 300 keys: growths 64 → 128 → 256 → 512 slots.
            let mut table: ProbeTable<(u64, u64)> = ProbeTable::new();
            let mut oracle = std::collections::BTreeMap::new();
            for (key, value, is_insert) in ops {
                let hash = forced_hash(kind, key);
                if is_insert {
                    let old = table.insert(
                        hash,
                        (key, value),
                        |(k, _)| *k == key,
                        |(k, _)| forced_hash(kind, *k),
                    );
                    proptest::prop_assert_eq!(old.map(|(_, v)| v), oracle.insert(key, value));
                } else {
                    let got = table.get(hash, |(k, _)| *k == key).map(|(_, v)| *v);
                    proptest::prop_assert_eq!(got, oracle.get(&key).copied());
                }
                proptest::prop_assert_eq!(table.len(), oracle.len());
            }
            for key in 0..300u64 {
                let got = table.get(forced_hash(kind, key), |(k, _)| *k == key);
                proptest::prop_assert_eq!(got.map(|(_, v)| *v), oracle.get(&key).copied());
            }
        }
    }

    #[test]
    fn design_point_keys_separate_x_from_y() {
        let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
        let y = DesignPoint::reference();
        let kxy = SweepMemo::crossover_key(&x, &y, Scenario::FixedWork);
        let kyx = SweepMemo::crossover_key(&y, &x, Scenario::FixedWork);
        let kxy_ft = SweepMemo::crossover_key(&x, &y, Scenario::FixedTime);
        assert_ne!(kxy, kyx);
        assert_ne!(kxy, kxy_ft);
    }

    #[test]
    fn stats_totals_sum_tables() {
        let mut memo = SweepMemo::new();
        let x = DesignPoint::reference();
        assert!(memo.crossover_lookup(&x, &x, Scenario::FixedWork).is_none());
        memo.crossover_insert(&x, &x, Scenario::FixedWork, AlphaCrossover::AlwaysOne);
        assert_eq!(
            memo.crossover_lookup(&x, &x, Scenario::FixedWork),
            Some(AlphaCrossover::AlwaysOne)
        );
        let s = memo.stats();
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.entries(), 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_is_zero_without_lookups() {
        assert_eq!(MemoStats::default().hit_rate(), 0.0);
        assert_eq!(SweepMemoStats::default().hit_rate(), 0.0);
        let one_sided = MemoStats {
            hits: 3,
            misses: 0,
            entries: 3,
        };
        assert_eq!(one_sided.hit_rate(), 1.0);
    }
}
