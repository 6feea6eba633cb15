//! The serve wire protocol: newline-delimited JSON requests in,
//! newline-delimited JSON responses out.
//!
//! # Grammar
//!
//! One JSON object per input line. Blank lines are ignored. Four
//! envelope shapes are accepted:
//!
//! ```text
//! request  := {"id": string, "scenario": string, "include_output"?: bool}
//! batch    := {"batch": [request, ...]}            (at most MAX_BATCH)
//! ping     := {"ping": true, "id"?: string}
//! ctl      := {"ctl": "shutdown", "id"?: string}
//! ```
//!
//! `scenario` carries the full `focal-scenario` TOML study text — the
//! same schema `data/scenarios/*.toml` uses — as a JSON string. Every
//! response is one JSON object on one line, in request order:
//!
//! ```text
//! ok   := {"id": string, "ok": true, "scenario_id": string,
//!          "kind": "figure"|"finding"|"robustness", "digest": string,
//!          "provenance": {"scenario_digest": string, "seed": int,
//!                         "git_rev": string},
//!          "output"?: string}
//! err  := {"id": string|null, "ok": false,
//!          "error": {"kind": string, "line": int, "message": string,
//!                    "key"?: string}}
//! pong := {"id": string|null, "ok": true,
//!          "ping": {"version": string, "git_rev": string, "conn": int,
//!                   "conns": int, "inflight": int, "draining": bool,
//!                   "cache": {"entries": int, "hits": int, "misses": int},
//!                   "requests": int}}
//! ctl  := {"id": string|null, "ok": true, "ctl": "shutdown",
//!          "draining": true}
//! ```
//!
//! `error.kind` is the machine-readable failure class ([`ErrorKind`]):
//! `bad_request` (parse/validation), `evaluation` (the scenario ran and
//! failed or panicked), `timeout` (idle timeout or request deadline),
//! `overloaded` (shed by the admission bound), `rejected` (connection
//! refused at `--max-conns`), `shutdown` (server draining) and
//! `internal`. `error.line` is the 1-based input line of the offending
//! request (0 for connection-level notices that answer no particular
//! line), so a client replaying a corpus can point at the bad line;
//! scenario compile errors additionally carry the offending TOML key.
//! Envelope errors (malformed JSON, unknown keys, an oversized batch)
//! fail the whole line with `id: null` unless the id was parseable;
//! request errors (bad scenario text, evaluation failure) fail only
//! their own request. A *scenario* response line never depends on how
//! requests were coalesced into evaluation batches, which is what makes
//! serve output byte-diffable across `FOCAL_THREADS` and cache
//! settings; `ping` responses carry live gauges by design and are the
//! documented exception to the byte-diff guarantee.

use crate::cache::{CacheEntry, CachedEval};
use crate::json::{escape_into, JsonValue};
use std::fmt::Write as _;

/// Maximum requests accepted inside one explicit `{"batch": [...]}`
/// envelope. Protects the per-line parse from unbounded allocation;
/// clients with more work send more lines (the server coalesces
/// adjacent lines into engine fan-outs on its own).
pub const MAX_BATCH: usize = 256;

/// Maximum accepted request-line length in bytes (1 MiB). A line
/// longer than this fails with a structured error instead of growing
/// without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One parsed scenario query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen request id, echoed verbatim in the response.
    pub id: String,
    /// Scenario DSL (TOML) source text.
    pub scenario: String,
    /// Whether to embed the rendered output text in the response
    /// (defaults to `false`: provenance and digest only).
    pub include_output: bool,
}

/// Machine-readable failure class carried in every error response as
/// `error.kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request never parsed or validated (malformed JSON, unknown
    /// keys, bad scenario TOML, oversized line/batch).
    BadRequest,
    /// The scenario evaluated and failed (or panicked — including
    /// injected faults).
    Evaluation,
    /// Idle timeout on the connection or request deadline exceeded
    /// before evaluation started.
    Timeout,
    /// Shed by the admission bound (`--max-queue`): the server chose
    /// not to evaluate this request under load.
    Overloaded,
    /// The connection itself was refused (`--max-conns` capacity).
    Rejected,
    /// The server is draining; the connection closes after this line.
    Shutdown,
    /// An internal invariant broke (should never be seen).
    Internal,
}

impl ErrorKind {
    /// Wire spelling of the kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Evaluation => "evaluation",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Rejected => "rejected",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A per-request failure that still produces a response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The request id when it was parseable, else `None` (rendered as
    /// JSON `null`).
    pub id: Option<String>,
    /// Failure class (`error.kind` on the wire).
    pub kind: ErrorKind,
    /// 1-based input line the request arrived on (0 for
    /// connection-level notices).
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// The offending key, when the error is about one.
    pub key: Option<String>,
}

impl RequestError {
    fn envelope(line: usize, message: impl Into<String>) -> RequestError {
        RequestError {
            id: None,
            kind: ErrorKind::BadRequest,
            line,
            message: message.into(),
            key: None,
        }
    }

    /// A connection-level notice (no input line): the final structured
    /// line a connection receives before the server closes it.
    #[must_use]
    pub fn notice(kind: ErrorKind, message: impl Into<String>) -> RequestError {
        RequestError {
            id: None,
            kind,
            line: 0,
            message: message.into(),
            key: None,
        }
    }
}

/// One parsed input slot: a scenario query, a health probe, or a
/// control verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// An ordinary scenario evaluation request.
    Scenario(Request),
    /// `{"ping": true}` — answer with live server introspection.
    Ping {
        /// Optional client-chosen id, echoed back.
        id: Option<String>,
    },
    /// `{"ctl": "shutdown"}` — begin a graceful drain.
    Shutdown {
        /// Optional client-chosen id, echoed back.
        id: Option<String>,
    },
}

/// The parse outcome for one request slot: a query to evaluate or an
/// error response to emit in its place.
pub type ParsedRequest = Result<Query, RequestError>;

/// Envelope keys accepted on a single request object.
const REQUEST_KEYS: &[&str] = &["id", "scenario", "include_output"];

/// Parses one input line into its request slots.
///
/// A single-request line yields one slot; a `{"batch": [...]}` line
/// yields one slot per element; `{"ping": true}` and
/// `{"ctl": "shutdown"}` yield one introspection/control slot (neither
/// is accepted *inside* a batch envelope — they answer about the
/// connection, not a request). Envelope-level failures (malformed JSON,
/// wrong shape, unknown envelope key, oversized batch) yield a single
/// error slot for the whole line. `line_no` is the 1-based input line
/// number used in error responses.
#[must_use]
pub fn parse_line(text: &str, line_no: usize) -> Vec<ParsedRequest> {
    if text.len() > MAX_LINE_BYTES {
        return vec![Err(RequestError::envelope(
            line_no,
            format!(
                "request line too long: {} bytes (limit {MAX_LINE_BYTES})",
                text.len()
            ),
        ))];
    }
    let value = match JsonValue::parse(text) {
        Ok(v) => v,
        Err(e) => {
            return vec![Err(RequestError::envelope(
                line_no,
                format!("malformed JSON: {e}"),
            ))]
        }
    };
    let JsonValue::Obj(pairs) = value else {
        return vec![Err(RequestError::envelope(
            line_no,
            "request line must be a JSON object",
        ))];
    };
    if pairs.iter().any(|(k, _)| k == "batch") {
        return parse_batch(pairs, line_no);
    }
    if pairs.iter().any(|(k, _)| k == "ping") {
        return vec![parse_probe(&pairs, line_no, "ping")];
    }
    if pairs.iter().any(|(k, _)| k == "ctl") {
        return vec![parse_probe(&pairs, line_no, "ctl")];
    }
    vec![parse_request(JsonValue::Obj(pairs), line_no).map(Query::Scenario)]
}

/// The first value under `key`, as [`JsonValue::get`] finds it.
fn field<'a>(pairs: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Moves the string out of the first value under `key`, when that value
/// is a string; what [`field`] would read, without a copy.
fn take_str(pairs: &mut [(String, JsonValue)], key: &str) -> Option<String> {
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, JsonValue::Str(s))) => Some(std::mem::take(s)),
        _ => None,
    }
}

/// Parses a `{"ping": true}` or `{"ctl": "shutdown"}` line (`verb` is
/// the envelope key that selected this shape).
fn parse_probe(pairs: &[(String, JsonValue)], line_no: usize, verb: &str) -> ParsedRequest {
    let id = field(pairs, "id")
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    let fail = |message: String, key: &str| {
        Err(RequestError {
            id: id.clone(),
            kind: ErrorKind::BadRequest,
            line: line_no,
            message,
            key: Some(key.to_string()),
        })
    };
    if let Some((key, _)) = pairs.iter().find(|(k, _)| k != verb && k != "id") {
        return fail(format!("unknown key `{key}` in {verb} request"), key);
    }
    if verb == "ping" {
        match field(pairs, "ping").and_then(JsonValue::as_bool) {
            Some(true) => Ok(Query::Ping { id }),
            _ => fail("`ping` must be the boolean true".to_string(), "ping"),
        }
    } else {
        match field(pairs, "ctl").and_then(JsonValue::as_str) {
            Some("shutdown") => Ok(Query::Shutdown { id }),
            Some(other) => fail(format!("unknown ctl verb `{other}`"), "ctl"),
            None => fail("`ctl` must be a string verb".to_string(), "ctl"),
        }
    }
}

fn parse_batch(pairs: Vec<(String, JsonValue)>, line_no: usize) -> Vec<ParsedRequest> {
    if let Some((key, _)) = pairs.iter().find(|(k, _)| k != "batch") {
        return vec![Err(RequestError {
            key: Some(key.clone()),
            ..RequestError::envelope(line_no, format!("unknown key `{key}` in batch envelope"))
        })];
    }
    let Some((_, JsonValue::Arr(items))) = pairs.into_iter().next() else {
        return vec![Err(RequestError::envelope(
            line_no,
            "`batch` must be an array of request objects",
        ))];
    };
    if items.len() > MAX_BATCH {
        return vec![Err(RequestError::envelope(
            line_no,
            format!(
                "batch too large: {} requests (limit {MAX_BATCH})",
                items.len()
            ),
        ))];
    }
    // Duplicate-id detection is scoped to the explicit batch envelope:
    // ids on *different* lines may repeat (the response order already
    // disambiguates them), and cross-line checks would make error
    // behavior depend on how lines were coalesced.
    let mut seen: Vec<String> = Vec::new();
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let slot = match parse_request(item, line_no) {
            Ok(req) if seen.iter().any(|s| s == &req.id) => Err(RequestError {
                id: Some(req.id.clone()),
                kind: ErrorKind::BadRequest,
                line: line_no,
                message: format!("duplicate request id `{}` in batch", req.id),
                key: Some("id".to_string()),
            }),
            Ok(req) => {
                seen.push(req.id.clone());
                Ok(Query::Scenario(req))
            }
            Err(e) => Err(e),
        };
        out.push(slot);
    }
    out
}

/// Parses one request object, moving its `id` and `scenario` strings
/// out of the parsed value rather than copying them.
fn parse_request(value: JsonValue, line_no: usize) -> Result<Request, RequestError> {
    let JsonValue::Obj(mut pairs) = value else {
        return Err(RequestError::envelope(
            line_no,
            "request must be a JSON object",
        ));
    };
    // The id is recovered first so later errors can carry it.
    let id = take_str(&mut pairs, "id");
    let fail = |id: Option<String>, message: &str, key: &str| {
        Err(RequestError {
            id,
            kind: ErrorKind::BadRequest,
            line: line_no,
            message: message.to_string(),
            key: Some(key.to_string()),
        })
    };
    if let Some((key, _)) = pairs
        .iter()
        .find(|(k, _)| !REQUEST_KEYS.contains(&k.as_str()))
    {
        return fail(id, &format!("unknown key `{key}` in request"), key);
    }
    let Some(id) = id else {
        return fail(None, "missing or non-string `id`", "id");
    };
    let Some(scenario) = take_str(&mut pairs, "scenario") else {
        return fail(Some(id), "missing or non-string `scenario`", "scenario");
    };
    let include_output = match field(&pairs, "include_output") {
        None => false,
        Some(JsonValue::Bool(b)) => *b,
        Some(_) => {
            return fail(
                Some(id),
                "`include_output` must be a boolean",
                "include_output",
            )
        }
    };
    Ok(Request {
        id,
        scenario,
        include_output,
    })
}

/// Provenance attached to every successful response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// FNV-64 digest of the canonical scenario text, `{:016x}`.
    pub scenario_digest: u64,
    /// The Monte-Carlo seed the evaluation ran under (0 for fully
    /// deterministic scenario kinds, which have no sampling).
    pub seed: u64,
    /// `git rev-parse --short HEAD` of the serving binary's tree, or
    /// `"unknown"` outside a git checkout.
    pub git_rev: String,
}

/// Renders a success response line (no trailing newline).
///
/// Field order is fixed, and this is the one place that writes it: a
/// cache entry (`RenderedOk`) is these same fields rendered once, and
/// a hit splices the request id in front of them, so hit and miss bytes
/// are identical by construction. The line is written into one buffer
/// sized up front.
#[must_use]
pub fn render_ok(
    id: &str,
    scenario_id: &str,
    kind: &str,
    digest: &str,
    provenance: &Provenance,
    output: Option<&str>,
) -> String {
    // Fixed fragments, the 16-digit digest and a u64 seed fit in 160
    // bytes; CSV output escapes about one newline per row, so an eighth
    // on top covers it.
    let escaped_output = output.map_or(0, |text| text.len() + text.len() / 8 + 12);
    let mut line = String::with_capacity(
        160 + id.len()
            + scenario_id.len()
            + kind.len()
            + digest.len()
            + provenance.git_rev.len()
            + escaped_output,
    );
    push_id(&mut line, Some(id));
    push_ok_fields(&mut line, scenario_id, kind, digest, provenance, output);
    line.push('}');
    line
}

/// Writes the fields of a success response that follow its id, in
/// their fixed order: `,"ok":true` through `"provenance":{…}`, then
/// `,"output":"…"` when `output` is given. Returns the length `line`
/// had where the output field starts.
fn push_ok_fields(
    line: &mut String,
    scenario_id: &str,
    kind: &str,
    digest: &str,
    provenance: &Provenance,
    output: Option<&str>,
) -> usize {
    line.push_str(",\"ok\":true,\"scenario_id\":\"");
    escape_into(line, scenario_id);
    line.push_str("\",\"kind\":\"");
    escape_into(line, kind);
    line.push_str("\",\"digest\":\"");
    escape_into(line, digest);
    // Writing into a `String` cannot fail.
    let _ = write!(
        line,
        "\",\"provenance\":{{\"scenario_digest\":\"{:016x}\",\"seed\":{},\"git_rev\":\"",
        provenance.scenario_digest, provenance.seed,
    );
    escape_into(line, &provenance.git_rev);
    line.push_str("\"}");
    let output_at = line.len();
    if let Some(text) = output {
        line.push_str(",\"output\":\"");
        escape_into(line, text);
        line.push('"');
    }
    output_at
}

/// One evaluation's success response, rendered once when it enters the
/// cache and answered from for every later request: everything after
/// the id, as [`render_ok`] writes it with the output, escaped and kept
/// at exact length.
#[derive(Debug)]
pub(crate) struct RenderedOk {
    /// `,"ok":true` through `"provenance":{…}`, then `,"output":"…"`.
    fields: Box<str>,
    /// Where `,"output"` starts in `fields`.
    output_at: usize,
    /// The canonical scenario digest, which the cache indexes.
    scenario_digest: u64,
}

impl RenderedOk {
    /// Renders `eval`'s fields, its output included, into `scratch` (a
    /// buffer reused across calls, so its slack is never kept) and
    /// copies them out once at exact length.
    pub(crate) fn new(eval: &CachedEval, git_rev: &str, scratch: &mut String) -> RenderedOk {
        let provenance = Provenance {
            scenario_digest: eval.scenario_digest,
            seed: eval.seed,
            git_rev: git_rev.to_string(),
        };
        scratch.clear();
        let output_at = push_ok_fields(
            scratch,
            &eval.scenario_id,
            &eval.kind,
            &eval.digest_entry,
            &provenance,
            Some(&eval.output_text),
        );
        RenderedOk {
            fields: Box::from(scratch.as_str()),
            output_at,
            scenario_digest: eval.scenario_digest,
        }
    }

    /// The response to request `id`: the id, then the stored fields,
    /// with or without the output. Byte for byte what [`render_ok`]
    /// writes for the same evaluation.
    pub(crate) fn response(&self, id: &str, include_output: bool) -> String {
        let fields = if include_output {
            &self.fields
        } else {
            self.fields.get(..self.output_at).unwrap_or_default()
        };
        let mut line = String::with_capacity(fields.len() + id.len() + 16);
        push_id(&mut line, Some(id));
        line.push_str(fields);
        line.push('}');
        line
    }
}

impl CacheEntry for RenderedOk {
    fn scenario_digest(&self) -> u64 {
        self.scenario_digest
    }
}

/// Opens a response object with its id field: `{"id":` followed by the
/// id as a JSON string, or `null` when absent.
fn push_id(line: &mut String, id: Option<&str>) {
    line.push_str("{\"id\":");
    match id {
        Some(id) => {
            line.push('"');
            escape_into(line, id);
            line.push('"');
        }
        None => line.push_str("null"),
    }
}

/// Renders an error response line (no trailing newline).
#[must_use]
pub fn render_err(error: &RequestError) -> String {
    let mut line = String::with_capacity(
        96 + error.id.as_ref().map_or(0, String::len)
            + error.message.len()
            + error.key.as_ref().map_or(0, String::len),
    );
    push_id(&mut line, error.id.as_deref());
    // Writing into a `String` cannot fail.
    let _ = write!(
        line,
        ",\"ok\":false,\"error\":{{\"kind\":\"{}\",\"line\":{},\"message\":\"",
        error.kind.as_str(),
        error.line,
    );
    escape_into(&mut line, &error.message);
    line.push('"');
    if let Some(key) = &error.key {
        line.push_str(",\"key\":\"");
        escape_into(&mut line, key);
        line.push('"');
    }
    line.push_str("}}");
    line
}

/// Live server introspection carried in a `ping` response. Gauges are
/// snapshot at batch entry; on a single connection the values are a
/// deterministic function of the request stream, while cross-connection
/// gauges (`conns`, `inflight`) are live by design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PingInfo {
    /// Serving crate version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Git revision of the serving binary's tree, or `"unknown"`.
    pub git_rev: String,
    /// This connection's ordinal (accept order; stdin = 0).
    pub conn: u64,
    /// Open connections server-wide.
    pub conns: usize,
    /// Request slots inside evaluation batches server-wide, snapshot
    /// *before* this ping's own batch was counted.
    pub inflight: usize,
    /// Whether a drain has begun.
    pub draining: bool,
    /// Entries in this connection's digest→evaluation cache.
    pub cache_entries: usize,
    /// Cache hits on this connection.
    pub cache_hits: u64,
    /// Cache misses on this connection.
    pub cache_misses: u64,
    /// Scenario requests this connection has served before this ping.
    pub requests: u64,
}

/// Renders a `ping` response line (no trailing newline).
#[must_use]
pub fn render_ping(id: Option<&str>, info: &PingInfo) -> String {
    let mut line = String::with_capacity(256);
    push_id(&mut line, id);
    line.push_str(",\"ok\":true,\"ping\":{\"version\":\"");
    escape_into(&mut line, &info.version);
    line.push_str("\",\"git_rev\":\"");
    escape_into(&mut line, &info.git_rev);
    // Writing into a `String` cannot fail.
    let _ = write!(
        line,
        "\",\"conn\":{},\"conns\":{},\"inflight\":{},\"draining\":{},\
         \"cache\":{{\"entries\":{},\"hits\":{},\"misses\":{}}},\"requests\":{}}}}}",
        info.conn,
        info.conns,
        info.inflight,
        info.draining,
        info.cache_entries,
        info.cache_hits,
        info.cache_misses,
        info.requests,
    );
    line
}

/// Renders the acknowledgement for a `{"ctl": "shutdown"}` request (no
/// trailing newline).
#[must_use]
pub fn render_ctl(id: Option<&str>) -> String {
    let mut line = String::with_capacity(64);
    push_id(&mut line, id);
    line.push_str(",\"ok\":true,\"ctl\":\"shutdown\",\"draining\":true}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(text: &str) -> ParsedRequest {
        let mut slots = parse_line(text, 7);
        assert_eq!(slots.len(), 1);
        slots.pop().unwrap()
    }

    fn one_req(text: &str) -> Request {
        match one(text).unwrap() {
            Query::Scenario(req) => req,
            other => panic!("expected a scenario query, got {other:?}"),
        }
    }

    #[test]
    fn single_request_parses() {
        let req = one_req(
            r#"{"id": "q1", "scenario": "[scenario]\nid = \"x\"", "include_output": true}"#,
        );
        assert_eq!(req.id, "q1");
        assert!(req.scenario.starts_with("[scenario]"));
        assert!(req.include_output);
        assert!(!one_req(r#"{"id": "q2", "scenario": "t"}"#).include_output);
    }

    #[test]
    fn ping_and_ctl_lines_parse() {
        assert_eq!(
            one(r#"{"ping": true, "id": "p1"}"#).unwrap(),
            Query::Ping {
                id: Some("p1".to_string())
            }
        );
        assert_eq!(one(r#"{"ping": true}"#).unwrap(), Query::Ping { id: None });
        assert_eq!(
            one(r#"{"ctl": "shutdown"}"#).unwrap(),
            Query::Shutdown { id: None }
        );

        let err = one(r#"{"ping": 1}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("boolean true"));
        let err = one(r#"{"ping": true, "scenario": "t"}"#).unwrap_err();
        assert_eq!(err.key.as_deref(), Some("scenario"));
        let err = one(r#"{"ctl": "restart", "id": "c"}"#).unwrap_err();
        assert!(err.message.contains("unknown ctl verb `restart`"));
        assert_eq!(err.id.as_deref(), Some("c"));
        // Probes are connection-scoped: not legal inside a batch.
        let slots = parse_line(r#"{"batch": [{"ping": true}]}"#, 1);
        assert!(slots[0].as_ref().is_err());
    }

    #[test]
    fn envelope_errors_name_the_line_and_key() {
        let err = one(r#"{"id": "q", "scenario": "t", "bogus": 1}"#).unwrap_err();
        assert_eq!(err.line, 7);
        assert_eq!(err.key.as_deref(), Some("bogus"));
        assert_eq!(err.id.as_deref(), Some("q"));

        let err = one("{\"id\": \"q\"").unwrap_err();
        assert!(err.message.contains("malformed JSON"));
        assert!(err.id.is_none());

        let err = one("[1, 2]").unwrap_err();
        assert!(err.message.contains("must be a JSON object"));
    }

    #[test]
    fn missing_fields_are_per_request_errors() {
        let err = one(r#"{"scenario": "t"}"#).unwrap_err();
        assert_eq!(err.key.as_deref(), Some("id"));
        let err = one(r#"{"id": "q"}"#).unwrap_err();
        assert_eq!(err.key.as_deref(), Some("scenario"));
        let err = one(r#"{"id": "q", "scenario": "t", "include_output": "yes"}"#).unwrap_err();
        assert_eq!(err.key.as_deref(), Some("include_output"));
    }

    #[test]
    fn batch_parses_per_slot_with_duplicate_ids_flagged() {
        let slots = parse_line(
            r#"{"batch": [{"id": "a", "scenario": "t"}, {"id": "b", "scenario": "t"}, {"id": "a", "scenario": "t"}, "nope"]}"#,
            3,
        );
        assert_eq!(slots.len(), 4);
        assert!(slots[0].is_ok());
        assert!(slots[1].is_ok());
        let dup = slots[2].as_ref().unwrap_err();
        assert!(dup.message.contains("duplicate request id `a`"));
        assert_eq!(dup.id.as_deref(), Some("a"));
        assert!(slots[3].is_err());
    }

    #[test]
    fn oversized_batch_is_one_envelope_error() {
        let items: Vec<String> = (0..MAX_BATCH + 1)
            .map(|i| format!(r#"{{"id": "q{i}", "scenario": "t"}}"#))
            .collect();
        let line = format!(r#"{{"batch": [{}]}}"#, items.join(","));
        let slots = parse_line(&line, 9);
        assert_eq!(slots.len(), 1);
        let err = slots[0].as_ref().unwrap_err();
        assert!(err.message.contains("batch too large"), "{}", err.message);
        assert_eq!(err.line, 9);
    }

    #[test]
    fn oversized_line_is_rejected() {
        let line = format!(
            r#"{{"id": "q", "scenario": "{}"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        let err = one(&line).unwrap_err();
        assert!(err.message.contains("too long"));
    }

    #[test]
    fn response_rendering_is_stable() {
        let prov = Provenance {
            scenario_digest: 0xdead_beef,
            seed: 42,
            git_rev: "abc1234".to_string(),
        };
        assert_eq!(
            render_ok(
                "q\"1",
                "fig3-dsl",
                "figure",
                "12 bytes, fnv64=00000000deadbeef",
                &prov,
                None
            ),
            "{\"id\":\"q\\\"1\",\"ok\":true,\"scenario_id\":\"fig3-dsl\",\"kind\":\"figure\",\
             \"digest\":\"12 bytes, fnv64=00000000deadbeef\",\"provenance\":{\"scenario_digest\":\
             \"00000000deadbeef\",\"seed\":42,\"git_rev\":\"abc1234\"}}"
        );
        assert_eq!(
            render_err(&RequestError {
                id: None,
                kind: ErrorKind::BadRequest,
                line: 3,
                message: "bad".to_string(),
                key: Some("scenario".to_string()),
            }),
            "{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"bad_request\",\"line\":3,\
             \"message\":\"bad\",\"key\":\"scenario\"}}"
        );
        assert_eq!(
            render_err(&RequestError::notice(ErrorKind::Timeout, "idle timeout")),
            "{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"timeout\",\"line\":0,\
             \"message\":\"idle timeout\"}}"
        );
        assert_eq!(
            render_ctl(Some("c1")),
            "{\"id\":\"c1\",\"ok\":true,\"ctl\":\"shutdown\",\"draining\":true}"
        );
        let info = PingInfo {
            version: "0.1.0".to_string(),
            git_rev: "abc1234".to_string(),
            conn: 2,
            conns: 3,
            inflight: 1,
            draining: false,
            cache_entries: 4,
            cache_hits: 9,
            cache_misses: 5,
            requests: 14,
        };
        assert_eq!(
            render_ping(Some("p"), &info),
            "{\"id\":\"p\",\"ok\":true,\"ping\":{\"version\":\"0.1.0\",\"git_rev\":\"abc1234\",\
             \"conn\":2,\"conns\":3,\"inflight\":1,\"draining\":false,\
             \"cache\":{\"entries\":4,\"hits\":9,\"misses\":5},\"requests\":14}}"
        );
    }

    #[test]
    fn rendered_responses_parse_back() {
        let prov = Provenance {
            scenario_digest: 1,
            seed: 0,
            git_rev: "unknown".to_string(),
        };
        let ok = render_ok("a", "s", "finding", "d", &prov, Some("col1,col2\n1,2\n"));
        let v = JsonValue::parse(&ok).unwrap();
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            v.get("output").and_then(JsonValue::as_str),
            Some("col1,col2\n1,2\n")
        );
        let err = render_err(&RequestError::envelope(1, "boom \"quoted\""));
        let v = JsonValue::parse(&err).unwrap();
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
    }
}
