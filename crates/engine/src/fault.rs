//! Structured chunk failures and the deterministic fault-injection hook.
//!
//! ## Chunk poisoning
//!
//! [`ChunkError`] is the structured outcome of a *poisoned* chunk: a chunk
//! whose closure panicked (or was injected with a fault). The engine's
//! fan-out operations catch the unwind at the chunk boundary, so a poisoned
//! chunk never tears down the worker pool or the process — the caller gets
//! `Err(ChunkError)` naming the failing chunk, its derived RNG seed and the
//! panic payload. The reported chunk is always the **lowest failing chunk
//! index**, which makes the error itself thread-count invariant: the same
//! `ChunkError` is returned at `FOCAL_THREADS=1` and `=64`.
//!
//! ## Fault injection
//!
//! The rest of this module is the deterministic fault-injection plan
//! used by the reproduction suite's `--inject` flag, `focal-serve
//! --inject`, and the fault-tolerance tests. A [`FaultPlan`] names a
//! *site* (the suite stage for chunk panics, [`MC_SITE`] for NaN
//! poisoning, [`SERVE_SITE`] for serving-layer faults) plus optional
//! connection/index qualifiers, parsed from the spec grammar
//!
//! ```text
//! <kind>@<site>[:conn<N>][:<index>][:<millis>ms]
//!     kind ∈ {panic, nan, latency, shortread, shortwrite}
//! panic@figures:3            panic in chunk 3 while stage `figures` runs
//! nan@mc:1017                poison Monte-Carlo sample 1017 with NaN
//! panic@serve:3              panic while evaluating serve request 3
//! latency@serve:conn2:50ms   50 ms stall per request on connection 2
//! latency@serve:1:20ms       20 ms stall before serve request 1
//! shortread@serve:conn0      connection 0 reads arrive a few bytes at a time
//! shortwrite@serve           every response write is split into tiny chunks
//! ```
//!
//! `conn<N>` restricts a serve fault to one connection (stdin counts as
//! connection 0); without it the fault applies to every connection. The
//! index is the per-connection request ordinal for serve sites and the
//! chunk/sample index for engine sites; `latency` without an index stalls
//! every request its connection filter matches.
//!
//! A plan travels in the [`crate::Engine`] value that runs the work
//! ([`crate::Engine::with_faults`], [`crate::Engine::at_site`]), never in
//! process-wide state, and costs one field read per chunk without one.
//! Injected chunk panics are raised *inside* the engine's chunk
//! isolation and therefore surface as ordinary [`ChunkError`]s — the
//! injection harness proves the isolation machinery end to end with the
//! exact failure modes it exists for. Other layers query the plan they
//! are given ([`FaultPlan::nan_target`], the `serve_*` methods).

use std::fmt;
use std::time::Duration;

/// A chunk of a parallel operation panicked (or had a fault injected).
///
/// The error is deterministic: whatever the thread count and scheduling,
/// the reported chunk is the lowest-indexed chunk that fails when
/// evaluated, `chunk_seed` is [`crate::chunk_seed`]`(seed, chunk_index)`
/// for the seed the operation was invoked with (0 for unseeded
/// workloads), and `payload` is the stringified panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkError {
    /// Index of the poisoned chunk (lowest failing index of the run).
    pub chunk_index: usize,
    /// The chunk's derived RNG seed (`seed + chunk_index`, wrapping).
    pub chunk_seed: u64,
    /// Stringified panic payload (or injected-fault description).
    pub payload: String,
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chunk {} (chunk_seed {}) poisoned: {}",
            self.chunk_index, self.chunk_seed, self.payload
        )
    }
}

impl std::error::Error for ChunkError {}

/// Renders a caught panic payload as a string: `&str` and `String`
/// payloads verbatim, anything else as a placeholder.
#[must_use]
pub fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// What an injected fault does at its trigger point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the start of the matching chunk (or while evaluating the
    /// matching serve request).
    Panic,
    /// Replace the matching sample's value with `f64::NAN`.
    Nan,
    /// Stall the matching serve request(s) for [`FaultPlan::millis`].
    Latency,
    /// Deliver reads on the matching connection a few bytes at a time
    /// (short-read chaos: stresses line reassembly).
    ShortRead,
    /// Split response writes on the matching connection into tiny
    /// partial writes (short-write chaos: stresses the flush path).
    ShortWrite,
}

impl FaultKind {
    fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Nan => "nan",
            FaultKind::Latency => "latency",
            FaultKind::ShortRead => "shortread",
            FaultKind::ShortWrite => "shortwrite",
        }
    }
}

/// The site label the Monte-Carlo sampler answers to (`--inject nan@mc:1017`).
pub const MC_SITE: &str = "mc";

/// The site name serving-layer faults target (`--inject panic@serve:3`).
pub const SERVE_SITE: &str = "serve";

/// One deterministic injected fault: *kind* at *site*, with optional
/// connection and index qualifiers.
///
/// Sites are strings so the plan can name any instrumented location:
/// the site an [`crate::Engine`] is labelled with (the suite's stage
/// names) for chunk panics, [`MC_SITE`] for NaN poisoning, and
/// [`SERVE_SITE`] for serving-layer faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// What the fault does when it triggers.
    pub kind: FaultKind,
    /// The instrumented site the fault targets.
    pub site: String,
    /// Connection filter for serve faults (`conn<N>` in the grammar):
    /// `None` matches every connection.
    pub conn: Option<u64>,
    /// Chunk index (for [`FaultKind::Panic`]), global sample index (for
    /// [`FaultKind::Nan`]) or per-connection request ordinal (serve
    /// site) at which the fault fires. `None` means "every index" and
    /// is only valid for the chaos kinds (latency/shortread/shortwrite).
    pub index: Option<u64>,
    /// Latency payload in milliseconds (0 for non-latency kinds).
    pub millis: u64,
}

impl FaultPlan {
    /// Parses an injection spec:
    /// `<kind>@<site>[:conn<N>][:<index>][:<millis>ms]` with
    /// `kind ∈ {panic, nan, latency, shortread, shortwrite}` (e.g.
    /// `panic@figures:3`, `nan@mc:1017`, `latency@serve:conn2:50ms`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the grammar violation.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let err = |why: &str| {
            format!(
                "invalid fault spec `{spec}`: {why} — expected \
                 <kind>@<site>[:conn<N>][:<index>][:<millis>ms] with kind in \
                 {{panic, nan, latency, shortread, shortwrite}}, e.g. \
                 panic@figures:3, nan@mc:1017 or latency@serve:conn2:50ms"
            )
        };
        let (kind, rest) = spec
            .split_once('@')
            .ok_or_else(|| err("missing `@<site>`"))?;
        let kind = match kind {
            "panic" => FaultKind::Panic,
            "nan" => FaultKind::Nan,
            "latency" => FaultKind::Latency,
            "shortread" => FaultKind::ShortRead,
            "shortwrite" => FaultKind::ShortWrite,
            _ => return Err(err("unknown kind")),
        };
        let mut segments = rest.split(':');
        let site = segments.next().unwrap_or_default();
        if site.is_empty() {
            return Err(err("empty site"));
        }
        let mut conn: Option<u64> = None;
        let mut index: Option<u64> = None;
        let mut millis: Option<u64> = None;
        for segment in segments {
            if let Some(n) = segment.strip_prefix("conn") {
                if conn.is_some() {
                    return Err(err("duplicate conn qualifier"));
                }
                conn = Some(n.parse().map_err(|_| err("bad conn number"))?);
            } else if let Some(ms) = segment.strip_suffix("ms") {
                if millis.is_some() {
                    return Err(err("duplicate millis qualifier"));
                }
                millis = Some(ms.parse().map_err(|_| err("bad millis value"))?);
            } else if index.is_none() {
                index = Some(segment.parse().map_err(|_| err("bad index"))?);
            } else {
                return Err(err("duplicate index qualifier"));
            }
        }
        match kind {
            FaultKind::Panic | FaultKind::Nan => {
                if index.is_none() {
                    return Err(err("panic/nan faults need an index"));
                }
                if millis.is_some() {
                    return Err(err("panic/nan faults take no millis"));
                }
            }
            FaultKind::Latency => {
                if millis.is_none() {
                    return Err(err("latency faults need a `<millis>ms` payload"));
                }
            }
            FaultKind::ShortRead | FaultKind::ShortWrite => {
                if millis.is_some() {
                    return Err(err("shortread/shortwrite faults take no millis"));
                }
            }
        }
        Ok(FaultPlan {
            kind,
            site: site.to_string(),
            conn,
            index,
            millis: millis.unwrap_or(0),
        })
    }

    /// Renders the plan back in spec grammar (`parse` ∘ `spec` is the
    /// identity).
    #[must_use]
    pub fn spec(&self) -> String {
        let mut out = format!("{}@{}", self.kind.as_str(), self.site);
        if let Some(conn) = self.conn {
            out.push_str(&format!(":conn{conn}"));
        }
        if let Some(index) = self.index {
            out.push_str(&format!(":{index}"));
        }
        if self.kind == FaultKind::Latency {
            out.push_str(&format!(":{}ms", self.millis));
        }
        out
    }

    /// Moves the plan to the heap for the rest of the process, so a
    /// `Copy` [`crate::Engine`] can carry it.
    #[must_use]
    pub fn leak(self) -> &'static FaultPlan {
        Box::leak(Box::new(self))
    }

    /// [`FaultPlan::parse`] for a binary that can fire only `sites`: a
    /// plan whose site is not listed could never fire, so it is an
    /// error rather than a silent no-op.
    ///
    /// # Errors
    ///
    /// The grammar error, or one naming the site and every valid site.
    pub fn parse_for(spec: &str, sites: &[&str]) -> Result<FaultPlan, String> {
        let plan = FaultPlan::parse(spec)?;
        if sites.contains(&plan.site.as_str()) {
            Ok(plan)
        } else {
            Err(format!(
                "fault site `{}` in `{spec}` can never fire here; valid sites: {}",
                plan.site,
                sites.join(", ")
            ))
        }
    }

    /// The injected fault description if this is a panic plan for
    /// `chunk` of an engine operation running at `site`.
    pub(crate) fn injected_chunk_fault(&self, site: &str, chunk: usize) -> Option<String> {
        (self.kind == FaultKind::Panic && self.site == site && self.index == Some(chunk as u64))
            .then(|| format!("injected fault: {self}"))
    }

    /// The sample index this plan poisons with NaN at `site`, if any.
    #[must_use]
    pub fn nan_target(&self, site: &str) -> Option<u64> {
        self.index
            .filter(|_| self.kind == FaultKind::Nan && self.site == site)
    }

    /// Whether this is a serve-site plan whose connection filter
    /// matches connection `conn` (no filter matches every connection).
    #[must_use]
    pub fn targets_serve_conn(&self, conn: u64) -> bool {
        self.site == SERVE_SITE && self.conn.map_or(true, |c| c == conn)
    }

    /// The per-connection request ordinal a `panic@serve` plan targets
    /// on connection `conn`, if any.
    #[must_use]
    pub fn serve_panic_target(&self, conn: u64) -> Option<u64> {
        self.index
            .filter(|_| self.kind == FaultKind::Panic && self.targets_serve_conn(conn))
    }

    /// The injected stall for request `request` on connection `conn`,
    /// if this is a matching `latency@serve` plan (a plan without an
    /// index stalls every request its connection filter matches).
    #[must_use]
    pub fn serve_latency(&self, conn: u64, request: u64) -> Option<Duration> {
        let matches = self.kind == FaultKind::Latency
            && self.targets_serve_conn(conn)
            && self.index.map_or(true, |i| i == request);
        matches.then(|| Duration::from_millis(self.millis))
    }

    /// Whether this `shortread@serve` plan targets connection `conn`
    /// (reads should be delivered a few bytes at a time).
    #[must_use]
    pub fn serve_short_read(&self, conn: u64) -> bool {
        self.kind == FaultKind::ShortRead && self.targets_serve_conn(conn)
    }

    /// Whether this `shortwrite@serve` plan targets connection `conn`
    /// (response writes should be split into tiny partial writes).
    #[must_use]
    pub fn serve_short_write(&self, conn: u64) -> bool {
        self.kind == FaultKind::ShortWrite && self.targets_serve_conn(conn)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_valid_specs() {
        for spec in [
            "panic@figures:3",
            "nan@mc:1017",
            "panic@defect-sim:0",
            "panic@serve:3",
            "panic@serve:conn2:3",
            "latency@serve:conn2:50ms",
            "latency@serve:1:20ms",
            "shortread@serve:conn0",
            "shortwrite@serve",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(plan.spec(), spec);
            assert_eq!(plan.to_string(), spec);
        }
        let p = FaultPlan::parse("panic@figures:3").unwrap();
        assert_eq!(p.kind, FaultKind::Panic);
        assert_eq!(p.site, "figures");
        assert_eq!(p.index, Some(3));
        assert_eq!(p.conn, None);
        let p = FaultPlan::parse("latency@serve:conn2:50ms").unwrap();
        assert_eq!(p.kind, FaultKind::Latency);
        assert_eq!(p.conn, Some(2));
        assert_eq!(p.index, None);
        assert_eq!(p.millis, 50);
    }

    #[test]
    fn parse_rejects_bad_grammar() {
        for spec in [
            "",
            "panic",
            "panic@",
            "panic@figures",
            "panic@figures:",
            "panic@:3",
            "panic@figures:three",
            "abort@figures:3",
            "nan@mc:-1",
            "panic@serve:3:50ms",
            "latency@serve:conn2",
            "latency@serve",
            "shortread@serve:10ms",
            "panic@serve:conn1:conn2:3",
            "panic@serve:1:2",
            "latency@serve:5ms:6ms",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains("invalid fault spec"), "{spec}: {err}");
        }
    }

    #[test]
    fn serve_queries_respect_kind_conn_and_index() {
        let plan = |spec: &str| FaultPlan::parse(spec).unwrap();

        let p = plan("panic@serve:3");
        assert_eq!(p.serve_panic_target(0), Some(3));
        assert_eq!(p.serve_panic_target(7), Some(3)); // no conn filter
        assert_eq!(p.serve_latency(0, 3), None);
        assert!(!p.serve_short_read(0));
        assert!(p.targets_serve_conn(7));

        let p = plan("panic@serve:conn2:3");
        assert_eq!(p.serve_panic_target(2), Some(3));
        assert_eq!(p.serve_panic_target(1), None);
        assert!(p.targets_serve_conn(2));
        assert!(!p.targets_serve_conn(1));

        let p = plan("latency@serve:conn2:50ms");
        assert_eq!(p.serve_latency(2, 0), Some(Duration::from_millis(50)));
        assert_eq!(p.serve_latency(2, 99), Some(Duration::from_millis(50)));
        assert_eq!(p.serve_latency(1, 0), None);

        let p = plan("latency@serve:1:20ms");
        assert_eq!(p.serve_latency(0, 1), Some(Duration::from_millis(20)));
        assert_eq!(p.serve_latency(0, 2), None);

        let p = plan("shortread@serve:conn0");
        assert!(p.serve_short_read(0));
        assert!(!p.serve_short_read(1));
        assert!(!p.serve_short_write(0));

        let p = plan("shortwrite@serve");
        assert!(p.serve_short_write(0));
        assert!(p.serve_short_write(5));

        let p = plan("panic@figures:3");
        assert_eq!(p.serve_panic_target(0), None, "wrong site");
        assert!(!p.targets_serve_conn(0));
    }

    #[test]
    fn chunk_error_display_names_chunk_and_seed() {
        let e = ChunkError {
            chunk_index: 3,
            chunk_seed: 45,
            payload: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("chunk 3"));
        assert!(s.contains("chunk_seed 45"));
        assert!(s.contains("boom"));
    }

    #[test]
    fn payload_to_string_handles_common_shapes() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(payload_to_string(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(payload_to_string(s.as_ref()), "owned");
        let other: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(
            payload_to_string(other.as_ref()),
            "<non-string panic payload>"
        );
    }

    #[test]
    fn injected_chunk_fault_requires_site_and_index_match() {
        let p = FaultPlan::parse("panic@figures:3").unwrap();
        assert!(p.injected_chunk_fault("figures", 2).is_none());
        let msg = p.injected_chunk_fault("figures", 3).unwrap();
        assert!(msg.contains("injected fault: panic@figures:3"));
        assert!(p.injected_chunk_fault("findings", 3).is_none());
        let nan = FaultPlan::parse("nan@figures:3").unwrap();
        assert!(nan.injected_chunk_fault("figures", 3).is_none());
    }

    #[test]
    fn nan_target_matches_site() {
        let p = FaultPlan::parse("nan@mc:1017").unwrap();
        assert_eq!(p.nan_target(MC_SITE), Some(1017));
        assert_eq!(p.nan_target("other"), None);
        let panic = FaultPlan::parse("panic@mc:1017").unwrap();
        assert_eq!(panic.nan_target(MC_SITE), None, "wrong kind");
    }

    #[test]
    fn parse_for_rejects_sites_that_cannot_fire() {
        let sites = ["figures", "findings", MC_SITE];
        let p = FaultPlan::parse_for("panic@figures:3", &sites).unwrap();
        assert_eq!(p.spec(), "panic@figures:3");
        let err = FaultPlan::parse_for("panic@figure:3", &sites).unwrap_err();
        assert!(err.contains("`figure`"), "{err}");
        assert!(err.contains("figures, findings, mc"), "{err}");
        let err = FaultPlan::parse_for("panic@figures", &sites).unwrap_err();
        assert!(err.contains("invalid fault spec"), "grammar first: {err}");
    }
}
