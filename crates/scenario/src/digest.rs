//! Output fingerprinting, byte-compatible with the suite's figure
//! digests: FNV-1a 64 over the rendered bytes, reported as
//! `"{len} bytes, fnv64={hash:016x}"`.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64-bit digest (the same function the suite uses for figure
/// CSV bytes, so scenario digests and suite digests are comparable).
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// An incremental [`fnv64`]: the digest of everything passed to
/// [`Fnv64::update`], in order. As a [`std::fmt::Write`] sink it digests
/// formatted text without building the text.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    /// The digest of no bytes so far.
    pub(crate) fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Feeds `bytes` into the digest.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of every byte fed so far.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// The suite's digest-entry rendering for a blob of output bytes.
#[must_use]
pub fn digest_entry(bytes: &[u8]) -> String {
    format!("{} bytes, fnv64={:016x}", bytes.len(), fnv64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_digest_matches_the_one_shot_digest() {
        use std::fmt::Write as _;
        let mut h = Fnv64::new();
        h.update(b"foo");
        let n = 42;
        let _ = write!(h, "b{n}");
        assert_eq!(h.finish(), fnv64(b"foob42"));
        assert_eq!(Fnv64::new().finish(), fnv64(b""));
    }

    #[test]
    fn digest_entry_matches_the_suite_format() {
        assert_eq!(digest_entry(b"foobar"), "6 bytes, fnv64=85944171f73967e8");
    }
}
