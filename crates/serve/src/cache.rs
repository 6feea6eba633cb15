//! The serve-side evaluation cache.
//!
//! [`ServeCache`] is one slab of entries in insertion order, behind two
//! open-addressed indexes. Both are [`focal_core::ProbeTable`]s, the
//! table `SweepMemo` uses, so the determinism rules' ban on hash maps
//! costs nothing here. An index slot is eight bytes: a `u32` slab
//! position and the low 32 bits of its key's hash, which place the slot
//! when the table grows and settle almost every probe step of a miss
//! without reading the slab.
//!
//! 1. **Text index** — every raw scenario spelling seen, kept back to
//!    back in one `String` at exact length, each naming its entry. A
//!    warm client replaying the same corpus sends byte-identical
//!    payloads, so this level answers without running the TOML parser
//!    at all. A hit compares the bytes exactly; the hash only picks
//!    where probing starts. It reads eight bytes a step and never
//!    leaves the process, so no output depends on it. It is unkeyed:
//!    a client can lengthen probe chains with crafted spellings, but
//!    only in its own connection's cache.
//! 2. **Digest index** — canonical FNV-64 digest → entry. Distinct
//!    spellings of the same canonical scenario (reordered keys,
//!    different whitespace, explicit defaults) share one entry, exactly
//!    like [`focal_core::SweepMemo`] shares Monte-Carlo experiments
//!    between scenario twins. A digest hit records its spelling in the
//!    text index, so the next request with those bytes is a text hit.
//!
//! An entry stores everything a response needs *except* the request id
//! and the `include_output` flag. `ServeCore` keeps the response
//! rendered once (`proto::RenderedOk`: every field after the id,
//! escaped, with the output field last), and a hit is the request id
//! followed by those bytes, with or without the output field — so a
//! cache hit's response bytes are identical to the cold evaluation's
//! by construction (`tests/serve_determinism.rs` and
//! `tests/response_golden.rs` pin it for the wire format).
//!
//! The entry type is a parameter that defaults to [`CachedEval`], the
//! evaluation's unrendered fields. Only the benchmark's frozen copy of
//! the request path (`perfbench/src/mirror.rs`) caches those, rendering
//! every hit through [`crate::render_ok`]; the default can go when that
//! copy is retired.
//!
//! The cache deliberately has **no** eviction: a serve corpus is a
//! scenario design space, bounded by what the DSL can express, and the
//! per-entry footprint is the rendered output text. If serving ever
//! outgrows this, eviction policy must preserve the byte-identity
//! guarantee (it can, trivially: eviction only forgets).

use focal_core::ProbeTable;
use std::num::NonZeroU32;

/// One fully evaluated scenario, keyed by canonical digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedEval {
    /// The scenario's own id (from its TOML `[scenario]` table).
    pub scenario_id: String,
    /// Kind as its wire spelling: `figure` / `finding` / `robustness`.
    pub kind: String,
    /// Suite-format digest entry of the rendered output bytes.
    pub digest_entry: String,
    /// The rendered output text (CSV for figures, stable text for
    /// findings/robustness), kept for `include_output` responses.
    pub output_text: String,
    /// FNV-64 digest of the canonical scenario text.
    pub scenario_digest: u64,
    /// Monte-Carlo seed the evaluation ran under (0 when the scenario
    /// kind has no sampling).
    pub seed: u64,
}

/// What [`ServeCache`] needs of an entry: the digest index files it
/// under its canonical scenario digest.
pub trait CacheEntry {
    /// FNV-64 digest of the canonical scenario text the entry answers.
    fn scenario_digest(&self) -> u64;
}

impl CacheEntry for CachedEval {
    fn scenario_digest(&self) -> u64 {
        self.scenario_digest
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
}

/// A position in one of the cache's `Vec`s, stored as `index + 1` so an
/// index slot (`Option<SlabRef>`) is four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlabRef(NonZeroU32);

impl SlabRef {
    /// `None` past `u32::MAX - 1`, far beyond what memory holds.
    fn new(index: usize) -> Option<SlabRef> {
        u32::try_from(index.saturating_add(1))
            .ok()
            .and_then(NonZeroU32::new)
            .map(SlabRef)
    }

    fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// One index slot: a slab position and the low 32 bits of its key's
/// hash. Those bits are all the table needs to place the slot when it
/// grows, and they settle almost every probe step on a miss without
/// reading the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexSlot {
    at: SlabRef,
    hash: u32,
}

/// One spelling seen: where its text ends in [`ServeCache`]'s `texts`
/// (it starts where the previous spelling ends) and the entry it names.
#[derive(Debug, Clone, Copy)]
struct Spelling {
    end: usize,
    entry: SlabRef,
}

/// The two-level scenario evaluation cache: one slab of entries, a text
/// index and a digest index (see the module docs).
#[derive(Debug)]
pub struct ServeCache<E = CachedEval> {
    /// Entries in insertion order; the digest index points here.
    entries: Vec<E>,
    /// Every spelling's text, back to back.
    texts: String,
    /// Spellings in the order they were seen; the text index points
    /// here.
    spellings: Vec<Spelling>,
    by_text: ProbeTable<IndexSlot>,
    by_digest: ProbeTable<IndexSlot>,
    text_stats: CacheStats,
    digest_stats: CacheStats,
}

impl<E> Default for ServeCache<E> {
    fn default() -> Self {
        ServeCache {
            entries: Vec::new(),
            texts: String::new(),
            spellings: Vec::new(),
            by_text: ProbeTable::new(),
            by_digest: ProbeTable::new(),
            text_stats: CacheStats::default(),
            digest_stats: CacheStats::default(),
        }
    }
}

/// The text of spelling `i`.
fn spelling_text<'a>(texts: &'a str, spellings: &[Spelling], i: usize) -> &'a str {
    let start = i
        .checked_sub(1)
        .and_then(|prev| spellings.get(prev))
        .map_or(0, |s| s.end);
    let end = spellings.get(i).map_or(start, |s| s.end);
    texts.get(start..end).unwrap_or_default()
}

/// A 64-bit avalanche, so a power-of-two mask sees well-mixed low bits;
/// the indexes keep the low 32.
fn mix(mut h: u64) -> u32 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    (h ^ (h >> 33)) as u32
}

/// The text index's hash, eight bytes a step. Internal to the process:
/// equal texts hash alike, and nothing else depends on its values.
fn text_hash(text: &str) -> u32 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut words = text.as_bytes().chunks_exact(8);
    let mut h = (text.len() as u64).wrapping_mul(K);
    for word in &mut words {
        let w = u64::from_le_bytes(<[u8; 8]>::try_from(word).unwrap_or_default());
        h = (h.rotate_left(23) ^ w).wrapping_mul(K);
    }
    let mut last = [0u8; 8];
    for (dst, src) in last.iter_mut().zip(words.remainder()) {
        *dst = *src;
    }
    mix((h.rotate_left(23) ^ u64::from_le_bytes(last)).wrapping_mul(K))
}

impl ServeCache {
    /// An empty cache of unrendered evaluations. A cache of another
    /// entry type starts from [`ServeCache::default`].
    #[must_use]
    pub fn new() -> ServeCache {
        ServeCache::default()
    }
}

impl<E: CacheEntry> ServeCache<E> {
    /// The spelling whose bytes equal `text`, which hashes to `hash`.
    fn find_text(&self, hash: u32, text: &str) -> Option<SlabRef> {
        let (texts, spellings) = (&self.texts, &self.spellings);
        self.by_text
            .get(hash.into(), |slot| {
                slot.hash == hash && spelling_text(texts, spellings, slot.at.index()) == text
            })
            .map(|slot| slot.at)
    }

    /// The entry filed under `digest`.
    fn find_digest(&self, digest: u64) -> Option<SlabRef> {
        let (entries, hash) = (&self.entries, mix(digest));
        self.by_digest
            .get(hash.into(), |slot| {
                slot.hash == hash
                    && entries
                        .get(slot.at.index())
                        .is_some_and(|entry| entry.scenario_digest() == digest)
            })
            .map(|slot| slot.at)
    }

    /// Looks up raw scenario source text (level 1 → level 2). Counts a
    /// text-level hit or miss; a text hit implies a digest entry (the
    /// two levels are only ever populated together).
    pub fn lookup_text(&mut self, text: &str) -> Option<&E> {
        let entry = self
            .find_text(text_hash(text), text)
            .and_then(|s| self.spellings.get(s.index()))
            .map(|s| s.entry);
        match entry {
            Some(entry) => {
                self.text_stats.hits += 1;
                self.entries.get(entry.index())
            }
            None => {
                self.text_stats.misses += 1;
                None
            }
        }
    }

    /// Looks up a canonical digest (level 2), recording the source
    /// `text` spelling at level 1 on a hit so the next lookup of the
    /// same bytes skips parsing.
    pub fn lookup_digest(&mut self, text: &str, digest: u64) -> Option<&E> {
        match self.find_digest(digest) {
            Some(entry) => {
                self.digest_stats.hits += 1;
                self.record_spelling(text, entry);
                self.entries.get(entry.index())
            }
            None => {
                self.digest_stats.misses += 1;
                None
            }
        }
    }

    /// Records a finished evaluation under both levels: a new digest
    /// appends to the slab, a known one replaces its entry in place.
    pub fn insert(&mut self, text: &str, entry: E) {
        let digest = entry.scenario_digest();
        let at = match self.find_digest(digest) {
            Some(at) => {
                if let Some(slot) = self.entries.get_mut(at.index()) {
                    *slot = entry;
                }
                at
            }
            None => {
                let Some(at) = SlabRef::new(self.entries.len()) else {
                    return;
                };
                self.entries.push(entry);
                let hash = mix(digest);
                let slot = IndexSlot { at, hash };
                self.by_digest
                    .insert(hash.into(), slot, |_| false, |s| s.hash.into());
                at
            }
        };
        self.record_spelling(text, at);
    }

    /// Points spelling `text` at `entry`, appending it at exact length
    /// when it is new.
    fn record_spelling(&mut self, text: &str, entry: SlabRef) {
        let hash = text_hash(text);
        if let Some(known) = self.find_text(hash, text) {
            if let Some(spelling) = self.spellings.get_mut(known.index()) {
                spelling.entry = entry;
            }
            return;
        }
        let Some(at) = SlabRef::new(self.spellings.len()) else {
            return;
        };
        self.texts.push_str(text);
        self.spellings.push(Spelling {
            end: self.texts.len(),
            entry,
        });
        let slot = IndexSlot { at, hash };
        self.by_text
            .insert(hash.into(), slot, |_| false, |s| s.hash.into());
    }

    /// Entries at the digest level (the text level may hold more: one
    /// per distinct spelling seen).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Counters for the text level.
    #[must_use]
    pub fn text_stats(&self) -> CacheStats {
        self.text_stats
    }

    /// Counters for the digest level (only consulted on text misses).
    #[must_use]
    pub fn digest_stats(&self) -> CacheStats {
        self.digest_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(digest: u64) -> CachedEval {
        CachedEval {
            scenario_id: format!("s{digest}"),
            kind: "figure".to_string(),
            digest_entry: "0 bytes, fnv64=0000000000000000".to_string(),
            output_text: String::new(),
            scenario_digest: digest,
            seed: 0,
        }
    }

    #[test]
    fn text_level_answers_repeat_payloads() {
        let mut cache = ServeCache::new();
        assert!(cache.lookup_text("body-a").is_none());
        cache.insert("body-a", eval(11));
        assert_eq!(cache.lookup_text("body-a").unwrap().scenario_digest, 11);
        assert_eq!(cache.text_stats().hits, 1);
        assert_eq!(cache.text_stats().misses, 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn digest_level_unifies_spellings() {
        let mut cache = ServeCache::new();
        cache.insert("spelling-one", eval(42));
        // A different spelling of the same canonical scenario misses at
        // the text level but hits at the digest level…
        assert!(cache.lookup_text("spelling-two").is_none());
        assert_eq!(
            cache.lookup_digest("spelling-two", 42).unwrap().scenario_id,
            "s42"
        );
        // …and the spelling is now memoized at the text level too.
        assert!(cache.lookup_text("spelling-two").is_some());
        assert_eq!(cache.digest_stats().hits, 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn unknown_digest_counts_a_miss() {
        let mut cache = ServeCache::new();
        assert!(cache.lookup_digest("t", 9).is_none());
        assert_eq!(cache.digest_stats().misses, 1);
    }

    #[test]
    fn an_index_slot_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Option<IndexSlot>>(), 8);
    }

    /// The first two keys (in `keys` order) whose `hash` values are
    /// equal: a birthday search, about 80,000 keys for 32 bits.
    fn colliding_pair<K: Clone>(keys: impl Iterator<Item = K>, hash: impl Fn(&K) -> u32) -> (K, K) {
        let mut seen = std::collections::BTreeMap::new();
        for key in keys {
            if let Some(first) = seen.insert(hash(&key), key.clone()) {
                return (first, key);
            }
        }
        panic!("no colliding pair");
    }

    #[test]
    fn texts_and_digests_sharing_a_hash_never_alias() {
        // Two spellings whose whole 32-bit index hash is equal, and two
        // digests likewise: only the byte and digest compares tell them
        // apart.
        let spelling = |i: u32| format!("[scenario]\nid = \"s{i:07}\"\nkind = \"figure\"\n");
        let (text_a, text_b) = colliding_pair((0..).map(spelling), |t: &String| text_hash(t));
        let (digest_a, digest_b) = colliding_pair(1u64.., |d: &u64| mix(*d));
        let mut cache = ServeCache::new();
        cache.insert(&text_a, eval(digest_a));
        assert!(cache.lookup_text(&text_b).is_none());
        assert!(cache.lookup_digest(&text_b, digest_b).is_none());
        cache.insert(&text_b, eval(digest_b));
        for (text, digest) in [(&text_a, digest_a), (&text_b, digest_b)] {
            assert_eq!(
                cache.lookup_text(text).map(|e| e.scenario_digest),
                Some(digest)
            );
            let by_digest = cache.lookup_digest(text, digest);
            assert_eq!(
                by_digest.map(|e| e.scenario_id.clone()),
                Some(format!("s{digest}"))
            );
        }
        assert_eq!(cache.entries(), 2);
    }

    #[test]
    fn texts_and_digests_sharing_a_probe_chain_never_alias() {
        // Equal-length spellings one or two bytes apart, all starting at
        // one slot of the 64-slot table that three entries live in.
        let spelling = |i: u32| format!("[scenario]\nid = \"s{i:05}\"\nkind = \"figure\"\n");
        let home = |text: &str| text_hash(text) & 63;
        let first = spelling(0);
        let twins: Vec<String> = (1..)
            .map(spelling)
            .filter(|t| home(t) == home(&first))
            .take(3)
            .collect();
        let digest_home = |d: u64| mix(d) & 63;
        let digests: Vec<u64> = (1..)
            .filter(|&d| digest_home(d) == digest_home(1))
            .take(3)
            .collect();
        let mut cache = ServeCache::new();
        cache.insert(&first, eval(digests[0]));
        cache.insert(&twins[0], eval(digests[1]));
        cache.insert(&twins[1], eval(digests[2]));
        for (text, digest) in [
            (&first, digests[0]),
            (&twins[0], digests[1]),
            (&twins[1], digests[2]),
        ] {
            assert_eq!(
                cache.lookup_text(text).map(|e| e.scenario_digest),
                Some(digest)
            );
            let by_digest = cache.lookup_digest(text, digest);
            assert_eq!(
                by_digest.map(|e| e.scenario_id.clone()),
                Some(format!("s{digest}"))
            );
        }
        assert!(cache.lookup_text(&twins[2]).is_none());
        assert!(cache.lookup_digest(&twins[2], digests[2] + 64).is_none());
        assert_eq!(cache.entries(), 3);
    }

    #[test]
    fn a_spelling_recorded_on_a_digest_hit_is_a_text_hit_next_time() {
        let mut cache = ServeCache::new();
        cache.insert("first spelling", eval(5));
        // Enough respellings to grow the text index twice, so spellings
        // are rehashed from the shared text buffer.
        let respellings: Vec<String> = (0..200).map(|i| format!("respelling number {i}")).collect();
        for text in &respellings {
            assert!(cache.lookup_text(text).is_none());
            assert_eq!(
                cache.lookup_digest(text, 5).map(|e| e.scenario_digest),
                Some(5)
            );
        }
        for text in &respellings {
            assert_eq!(cache.lookup_text(text).map(|e| e.scenario_digest), Some(5));
        }
        assert_eq!(
            cache.text_stats(),
            CacheStats {
                hits: 200,
                misses: 200
            }
        );
        assert_eq!(
            cache.digest_stats(),
            CacheStats {
                hits: 200,
                misses: 0
            }
        );
        assert_eq!(cache.entries(), 1);
    }

    /// The two-`BTreeMap` cache the slab replaced, kept as the oracle of
    /// what every lookup answers and counts.
    #[derive(Default)]
    struct TwoMapCache {
        by_text: std::collections::BTreeMap<String, u64>,
        by_digest: std::collections::BTreeMap<u64, CachedEval>,
        text_stats: CacheStats,
        digest_stats: CacheStats,
    }

    impl TwoMapCache {
        fn lookup_text(&mut self, text: &str) -> Option<&CachedEval> {
            match self.by_text.get(text).copied() {
                Some(digest) => {
                    self.text_stats.hits += 1;
                    self.by_digest.get(&digest)
                }
                None => {
                    self.text_stats.misses += 1;
                    None
                }
            }
        }

        fn lookup_digest(&mut self, text: &str, digest: u64) -> Option<&CachedEval> {
            if self.by_digest.contains_key(&digest) {
                self.digest_stats.hits += 1;
                self.by_text.insert(text.to_string(), digest);
                self.by_digest.get(&digest)
            } else {
                self.digest_stats.misses += 1;
                None
            }
        }

        fn insert(&mut self, text: &str, eval: CachedEval) {
            self.by_text.insert(text.to_string(), eval.scenario_digest);
            self.by_digest.insert(eval.scenario_digest, eval);
        }
    }

    #[test]
    fn scripted_requests_answer_and_count_as_the_two_map_cache_did() {
        let mut cache = ServeCache::new();
        let mut oracle = TwoMapCache::default();
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for step in 0..6000u64 {
            // ServeCore's sequence for one request: one of 150 scenarios
            // in one of 5 spellings, tried by text, then by digest, then
            // evaluated and inserted.
            let (scenario, variant) = (draw(150), draw(5));
            let text = format!("[scenario]\nid = \"s{scenario}\"\n# spelling {variant}\n");
            let digest = scenario.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let got = cache.lookup_text(&text).cloned();
            assert_eq!(got.as_ref(), oracle.lookup_text(&text), "step {step}");
            if got.is_none() {
                let got = cache.lookup_digest(&text, digest).cloned();
                assert_eq!(
                    got.as_ref(),
                    oracle.lookup_digest(&text, digest),
                    "step {step}"
                );
                if got.is_none() {
                    cache.insert(&text, eval(digest));
                    oracle.insert(&text, eval(digest));
                }
            }
            // Now and then an insert outside that sequence: a known
            // spelling re-pointed at another digest, or a known digest
            // replaced under a new spelling.
            if step % 89 == 0 {
                let other = draw(150).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let replacement = CachedEval {
                    scenario_id: format!("replaced at {step}"),
                    ..eval(other)
                };
                cache.insert(&text, replacement.clone());
                oracle.insert(&text, replacement);
            }
            assert_eq!(cache.text_stats(), oracle.text_stats, "step {step}");
            assert_eq!(cache.digest_stats(), oracle.digest_stats, "step {step}");
            assert_eq!(cache.entries(), oracle.by_digest.len(), "step {step}");
        }
    }
}
