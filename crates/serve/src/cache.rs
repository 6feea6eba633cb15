//! The serve-side evaluation cache.
//!
//! Two keyed levels front the engine, both ordinary `BTreeMap`s (the
//! determinism rules ban hash maps, and iteration never matters on the
//! lookup path anyway):
//!
//! 1. **Text level** — raw scenario source text → canonical digest.
//!    A warm client replaying the same corpus sends byte-identical
//!    payloads, so this level answers without re-running the TOML
//!    parser at all; it is what makes warm-cache serve throughput an
//!    order of magnitude above cold.
//! 2. **Digest level** — canonical FNV-64 digest → [`CachedEval`].
//!    Distinct spellings of the same canonical scenario (reordered
//!    keys, different whitespace, explicit defaults) share one entry,
//!    exactly like [`focal_core::SweepMemo`] shares Monte-Carlo
//!    experiments between scenario twins.
//!
//! A [`CachedEval`] stores everything a response needs *except* the
//! request id and the `include_output` flag, which are spliced in at
//! render time — so a cache hit's response bytes are identical to the
//! cold evaluation's by construction (the suite's memo makes the same
//! guarantee for its digests; `tests/serve_determinism.rs` pins it for
//! the wire format).
//!
//! The cache deliberately has **no** eviction: a serve corpus is a
//! scenario design space, bounded by what the DSL can express, and the
//! per-entry footprint is the rendered output text. If serving ever
//! outgrows this, eviction policy must preserve the byte-identity
//! guarantee (it can, trivially: eviction only forgets).

use std::collections::BTreeMap;

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

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
}

/// The two-level scenario evaluation cache.
#[derive(Debug, Default)]
pub struct ServeCache {
    by_text: BTreeMap<String, u64>,
    by_digest: BTreeMap<u64, CachedEval>,
    text_stats: CacheStats,
    digest_stats: CacheStats,
}

impl ServeCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> ServeCache {
        ServeCache::default()
    }

    /// Looks up raw scenario source text (level 1 → level 2). Counts a
    /// text-level hit or miss; a text hit implies a digest entry (the
    /// two levels are only ever populated together).
    pub fn lookup_text(&mut self, text: &str) -> Option<&CachedEval> {
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

    /// Looks up a canonical digest (level 2), recording the source
    /// `text` spelling at level 1 on a hit so the next lookup of the
    /// same bytes skips parsing.
    pub fn lookup_digest(&mut self, text: &str, digest: u64) -> Option<&CachedEval> {
        if self.by_digest.contains_key(&digest) {
            self.digest_stats.hits += 1;
            self.by_text.insert(text.to_string(), digest);
            self.by_digest.get(&digest)
        } else {
            self.digest_stats.misses += 1;
            None
        }
    }

    /// Records a finished evaluation under both levels. The source text
    /// is taken by value when the caller can give it up.
    pub fn insert(&mut self, text: impl Into<String>, eval: CachedEval) {
        self.by_text.insert(text.into(), eval.scenario_digest);
        self.by_digest.insert(eval.scenario_digest, eval);
    }

    /// Entries at the digest level (the text level may hold more: one
    /// per distinct spelling seen).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.by_digest.len()
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
}
