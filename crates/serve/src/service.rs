//! [`ServeCore`]: the transport-independent request handler.
//!
//! A core owns one engine handle, one [`ServeCache`] and one
//! [`focal_core::SweepMemo`], and turns parsed input lines into
//! response lines. The pipeline per coalesced batch of lines is:
//!
//! 1. **Parse** every line with [`crate::proto::parse_line`] — parse
//!    failures become error responses immediately and never reach the
//!    engine.
//! 2. **Resolve** each request against the cache (text level, then a
//!    compile + digest-level probe). Hits render straight from the
//!    cached evaluation.
//! 3. **Fan out** the deduplicated misses: deterministic scenarios go
//!    through [`focal_engine::Engine::try_par_map_isolated`] (one
//!    panicking query poisons only its own slot), robustness scenarios
//!    run sequentially through the shared sweep memo under their own
//!    `catch_unwind`.
//! 4. **Render** responses in input order, splicing the request id and
//!    `include_output` choice into the (possibly cached) evaluation.
//!
//! # Determinism
//!
//! Response bytes are a pure function of (request line, corpus of
//! evaluations): never of thread count (the engine merges in chunk
//! order), never of how lines were coalesced (per-request errors carry
//! no batch geometry), and never of cache state (hits re-render from
//! the same fields a cold evaluation produces). The serve CI job
//! byte-diffs all three axes.

use crate::cache::{CachedEval, ServeCache};
use crate::load::{ConnCtx, Limits, ServerState};
use crate::proto::{
    parse_line, render_ctl, render_err, render_ok, render_ping, ErrorKind, PingInfo, Provenance,
    Query, Request, RequestError,
};
use focal_core::SweepMemo;
use focal_engine::fault::payload_to_string;
use focal_engine::{Engine, FaultPlan};
use focal_report::{detect_git_rev, DumpDir};
use focal_scenario::{CompiledScenario, ScenarioKind};
use std::time::Instant;

/// Configuration for one [`ServeCore`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Engine handle (thread count comes from `FOCAL_THREADS` via
    /// [`Engine::from_env`] unless the caller overrides it).
    pub engine: Engine,
    /// Whether the evaluation cache and sweep memo are consulted
    /// (`--no-cache` turns this off so CI can byte-diff warm vs cold).
    pub cache: bool,
    /// Optional `--dump-dir` root: every response line is also written
    /// to `serve/<prefix><request-id>.json`.
    pub dump_dir: Option<DumpDir>,
    /// Filename prefix inside the serve namespace (TCP mode prefixes
    /// the connection ordinal so two clients reusing an id cannot
    /// clobber each other's transcripts).
    pub dump_prefix: String,
    /// `git rev-parse --short HEAD`, stamped into response provenance.
    pub git_rev: String,
    /// Overload limits (deadlines, admission bound, drain). Defaults
    /// to all-off, which reproduces pre-hardening behavior exactly.
    pub limits: Limits,
}

impl ServeOptions {
    /// Defaults: engine from the environment, cache on, no dumping,
    /// git revision detected from the working tree, no limits.
    #[must_use]
    pub fn from_env() -> ServeOptions {
        ServeOptions {
            engine: Engine::from_env(),
            cache: true,
            dump_dir: None,
            dump_prefix: String::new(),
            git_rev: detect_git_rev(),
            limits: Limits::default(),
        }
    }
}

/// Per-core counters, reported on stderr at shutdown (never in
/// response bytes, which must stay cache-agnostic).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Request slots seen (batch elements count individually).
    pub requests: u64,
    /// Successful responses.
    pub ok: u64,
    /// Error responses.
    pub errors: u64,
}

/// The transport-independent serving core. One per connection: the
/// cache is deliberately connection-local, so a client's warm-up never
/// changes another client's latency profile and cores need no
/// cross-thread state at all (the confinement lint holds for serve).
pub struct ServeCore {
    opts: ServeOptions,
    cache: ServeCache,
    memo: SweepMemo,
    stats: ServeStats,
    /// Scenario request slots seen on this connection so far, in input
    /// order. This is the per-connection request ordinal that
    /// `panic@serve[:conn<N>]:<index>` and `latency@serve:...:<index>`
    /// plans key on, and the `requests` gauge in `ping` responses.
    served_slots: u64,
}

/// One request slot mid-pipeline: either already renderable or waiting
/// on the evaluation at a queue index.
enum Slot {
    Ready(String),
    Pending {
        id: String,
        line: usize,
        include_output: bool,
        queue_idx: usize,
    },
}

/// One deduplicated pending evaluation.
struct QueueEntry {
    digest: u64,
    compiled: CompiledScenario,
    text: String,
    /// The `panic@serve` plan, when it targets the request that queued
    /// this entry: the evaluation panics instead of running, and the
    /// engine's isolation machinery must contain it.
    inject_panic: Option<&'static FaultPlan>,
}

impl ServeCore {
    /// A fresh core with empty cache and memo.
    #[must_use]
    pub fn new(opts: ServeOptions) -> ServeCore {
        ServeCore {
            opts,
            cache: ServeCache::new(),
            memo: SweepMemo::new(),
            stats: ServeStats::default(),
            served_slots: 0,
        }
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// The configured overload limits (shared with the transport so
    /// both layers enforce one policy).
    #[must_use]
    pub fn limits(&self) -> &Limits {
        &self.opts.limits
    }

    /// Entries currently in the digest-level evaluation cache.
    #[must_use]
    pub fn cache_entries(&self) -> usize {
        self.cache.entries()
    }

    /// One human-readable stats line for stderr.
    #[must_use]
    pub fn stats_line(&self) -> String {
        let text = self.cache.text_stats();
        let digest = self.cache.digest_stats();
        let memo = self.memo.stats();
        format!(
            "serve: {} requests, {} ok, {} errors; cache {} hits ({} text, {} digest), \
             {} misses, {} entries; sweep memo {} hits, {} misses",
            self.stats.requests,
            self.stats.ok,
            self.stats.errors,
            text.hits + digest.hits,
            text.hits,
            digest.hits,
            digest.misses,
            self.cache.entries(),
            memo.hits(),
            memo.misses(),
        )
    }

    /// The fault plan aimed at connection `conn`, if the engine carries
    /// one. Such a plan turns the connection's cache, sweep memo and
    /// request dedup off: an injected panic must reach the isolation
    /// machinery rather than a cache hit, and can never alias a clean
    /// request or poison a cached entry. Other connections keep the
    /// cache and dedup.
    fn plan_for(&self, conn: u64) -> Option<&'static FaultPlan> {
        self.opts
            .engine
            .faults()
            .filter(|plan| plan.targets_serve_conn(conn))
    }

    /// Handles one coalesced batch of input lines with a standalone
    /// server state (stdin-style single connection, no limits beyond
    /// those in the options). Equivalent to [`ServeCore::handle_batch`]
    /// with connection ordinal 0 and throwaway gauges; transports that
    /// share state across connections call `handle_batch` directly.
    pub fn handle_lines(&mut self, lines: &[(usize, String)]) -> Vec<String> {
        let state = ServerState::new();
        let ctx = ConnCtx {
            conn: 0,
            state: &state,
        };
        self.handle_batch(lines, &ctx)
    }

    /// Handles one coalesced batch of input lines (`(line_no, text)`
    /// pairs, 1-based) and returns one response line per request slot,
    /// in input order. Blank lines produce no slot.
    ///
    /// This is where every per-request overload policy lands, in order:
    /// the admission bound sheds slots past `--max-queue` (structured
    /// `overloaded` responses), injected latency is charged against the
    /// batch, and the request deadline is checked once — after parse and
    /// cache resolution, before the evaluation fan-out — so a batch
    /// either evaluates whole or times out whole and response bytes stay
    /// independent of evaluation interleaving. A `ctl` shutdown slot
    /// flips the shared drain flag; the transport notices after writing
    /// this batch's responses.
    pub fn handle_batch(&mut self, lines: &[(usize, String)], ctx: &ConnCtx<'_>) -> Vec<String> {
        let batch_entry = Instant::now();
        let plan = self.plan_for(ctx.conn);
        let caching = self.opts.cache && plan.is_none();
        // Ping gauges are snapshot before this batch is counted, so a
        // single connection's ping responses are a deterministic
        // function of its own request stream.
        let gauges = (ctx.state.conns(), ctx.state.inflight());

        let mut slots: Vec<Slot> = Vec::new();
        let mut queue: Vec<QueueEntry> = Vec::new();
        let mut admitted: usize = 0;

        for (line_no, text) in lines {
            if text.trim().is_empty() {
                continue;
            }
            for parsed in parse_line(text, *line_no) {
                self.stats.requests += 1;
                let slot = match parsed {
                    Err(e) => Slot::Ready(self.rendered_err(&e)),
                    Ok(Query::Ping { id }) => Slot::Ready(self.pong(id.as_deref(), ctx, gauges)),
                    Ok(Query::Shutdown { id }) => {
                        ctx.state.begin_drain();
                        Slot::Ready(render_ctl(id.as_deref()))
                    }
                    Ok(Query::Scenario(req)) => {
                        let ordinal = self.served_slots;
                        self.served_slots += 1;
                        admitted += 1;
                        let bound = self.opts.limits.max_queue;
                        if bound > 0 && admitted > bound {
                            Slot::Ready(self.rendered_err(&RequestError {
                                id: Some(req.id),
                                kind: ErrorKind::Overloaded,
                                line: *line_no,
                                message: format!(
                                    "request shed: admission bound of {bound} per batch exceeded"
                                ),
                                key: None,
                            }))
                        } else {
                            if let Some(delay) =
                                plan.and_then(|p| p.serve_latency(ctx.conn, ordinal))
                            {
                                std::thread::sleep(delay);
                            }
                            self.resolve(req, *line_no, ctx.conn, ordinal, caching, &mut queue)
                        }
                    }
                };
                slots.push(slot);
            }
        }

        let expired = self
            .opts
            .limits
            .request_deadline
            .is_some_and(|deadline| batch_entry.elapsed() > deadline);
        if expired {
            // All-or-none: every still-pending slot in this batch times
            // out together, so the response corpus cannot depend on how
            // far the evaluation fan happened to get.
            for slot in slots.iter_mut() {
                if let Slot::Pending { id, line, .. } = slot {
                    let err = RequestError {
                        id: Some(id.clone()),
                        kind: ErrorKind::Timeout,
                        line: *line,
                        message: "request deadline exceeded before evaluation".to_string(),
                        key: None,
                    };
                    *slot = Slot::Ready(self.rendered_err(&err));
                }
            }
        } else {
            let fanned = queue.len();
            ctx.state.batch_started(fanned);
            self.evaluate_queue(queue, caching, &mut slots);
            ctx.state.batch_finished(fanned);
        }

        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(line) => line,
                // Unreachable by construction: evaluate_queue rewrites
                // every Pending slot. Render a structured error rather
                // than panicking if that invariant ever breaks.
                Slot::Pending { id, line, .. } => self.rendered_err(&RequestError {
                    id: Some(id),
                    kind: ErrorKind::Internal,
                    line,
                    message: "internal: evaluation slot left unresolved".to_string(),
                    key: None,
                }),
            })
            .collect()
    }

    /// Renders a `ping` response from the batch-entry gauge snapshot
    /// and this core's counters.
    fn pong(&self, id: Option<&str>, ctx: &ConnCtx<'_>, gauges: (usize, usize)) -> String {
        let text = self.cache.text_stats();
        let digest = self.cache.digest_stats();
        let info = PingInfo {
            version: env!("CARGO_PKG_VERSION").to_string(),
            git_rev: self.opts.git_rev.clone(),
            conn: ctx.conn,
            conns: gauges.0,
            inflight: gauges.1,
            draining: ctx.state.draining(),
            cache_entries: self.cache.entries(),
            cache_hits: text.hits + digest.hits,
            cache_misses: digest.misses,
            requests: self.served_slots,
        };
        render_ping(id, &info)
    }

    /// Resolves one parsed request against the cache, queueing an
    /// evaluation on a full miss. `conn` is the connection ordinal and
    /// `ordinal` the connection-local scenario request index — together
    /// the coordinates that `panic@serve` fault plans target.
    fn resolve(
        &mut self,
        req: Request,
        line_no: usize,
        conn: u64,
        ordinal: u64,
        caching: bool,
        queue: &mut Vec<QueueEntry>,
    ) -> Slot {
        if caching {
            if let Some(hit) = self.cache.lookup_text(&req.scenario) {
                let line = render_response(&req.id, req.include_output, hit, &self.opts.git_rev);
                return Slot::Ready(self.finish_ok(&req.id, line));
            }
        }
        let label = format!("request:{line_no}");
        let compiled = match CompiledScenario::compile(&req.scenario, &label) {
            Ok(c) => c,
            Err(e) => {
                let key = e.key.clone();
                return Slot::Ready(self.rendered_err(&RequestError {
                    id: Some(req.id),
                    kind: ErrorKind::BadRequest,
                    line: line_no,
                    message: format!("invalid scenario: {e}"),
                    key,
                }));
            }
        };
        let digest = compiled.canonical().digest();
        if caching {
            if let Some(hit) = self.cache.lookup_digest(&req.scenario, digest) {
                let line = render_response(&req.id, req.include_output, hit, &self.opts.git_rev);
                return Slot::Ready(self.finish_ok(&req.id, line));
            }
        }
        // Deduplication is skipped while a fault plan targets this
        // connection so an injected panic cannot alias a clean request
        // onto the same evaluation: every slot then owns its own entry.
        let plan = self.plan_for(conn);
        let existing = queue
            .iter()
            .position(|e| plan.is_none() && e.digest == digest);
        let queue_idx = existing.unwrap_or_else(|| {
            queue.push(QueueEntry {
                digest,
                compiled,
                text: req.scenario,
                inject_panic: plan.filter(|p| p.serve_panic_target(conn) == Some(ordinal)),
            });
            queue.len() - 1
        });
        Slot::Pending {
            id: req.id,
            line: line_no,
            include_output: req.include_output,
            queue_idx,
        }
    }

    /// Evaluates the miss queue, rewrites every `Pending` slot into a
    /// `Ready` response, and then moves each fresh evaluation into the
    /// cache (in queue order), so no entry is copied.
    fn evaluate_queue(&mut self, queue: Vec<QueueEntry>, caching: bool, slots: &mut [Slot]) {
        if queue.is_empty() {
            return;
        }
        let mut results: Vec<Option<Result<CachedEval, String>>> = Vec::new();
        results.resize_with(queue.len(), || None);

        // Robustness scenarios need the engine + memo and already
        // parallelize internally; everything else fans out across the
        // queue with per-item isolation.
        let mut fan: Vec<(usize, &QueueEntry)> = Vec::new();
        for (idx, entry) in queue.iter().enumerate() {
            if entry.compiled.canonical().kind == ScenarioKind::Robustness {
                let outcome =
                    self.evaluate_robustness(&entry.compiled, entry.inject_panic, caching);
                if let Some(slot) = results.get_mut(idx) {
                    *slot = Some(finish_eval(entry, outcome));
                }
            } else {
                fan.push((idx, entry));
            }
        }

        if !fan.is_empty() {
            match self
                .opts
                .engine
                .try_par_map_isolated(0, &fan, |(_, entry)| {
                    if let Some(plan) = entry.inject_panic {
                        // focal-lint: allow(panic-freedom) -- deliberate injected fault; the engine's per-item isolation must contain it
                        panic!("injected fault: {plan}");
                    }
                    entry.compiled.evaluate()
                }) {
                Ok(outcomes) => {
                    for ((idx, entry), outcome) in fan.iter().zip(outcomes) {
                        let outcome = match outcome {
                            Ok(inner) => inner.map_err(|e| format!("evaluation failed: {e}")),
                            Err(ce) => Err(format!("evaluation panicked: {}", ce.payload)),
                        };
                        if let Some(slot) = results.get_mut(*idx) {
                            *slot = Some(finish_eval(entry, outcome));
                        }
                    }
                }
                Err(ce) => {
                    // The fan-out harness itself failed (armed fault in
                    // the chunk machinery): every queued request in this
                    // batch degrades, later batches are unaffected.
                    for (idx, _) in &fan {
                        if let Some(slot) = results.get_mut(*idx) {
                            *slot = Some(Err(format!("evaluation panicked: {}", ce.payload)));
                        }
                    }
                }
            }
        }

        for slot in slots.iter_mut() {
            let Slot::Pending {
                id,
                line,
                include_output,
                queue_idx,
            } = slot
            else {
                continue;
            };
            let rendered = match results.get(*queue_idx).and_then(Option::as_ref) {
                Some(Ok(eval)) => {
                    let line = render_response(id, *include_output, eval, &self.opts.git_rev);
                    self.finish_ok(id, line)
                }
                Some(Err(message)) => self.rendered_err(&RequestError {
                    id: Some(id.clone()),
                    kind: ErrorKind::Evaluation,
                    line: *line,
                    message: message.clone(),
                    key: None,
                }),
                None => self.rendered_err(&RequestError {
                    id: Some(id.clone()),
                    kind: ErrorKind::Internal,
                    line: *line,
                    message: "internal: evaluation result missing".to_string(),
                    key: None,
                }),
            };
            *slot = Slot::Ready(rendered);
        }

        if caching {
            for (entry, result) in queue.into_iter().zip(results) {
                if let Some(Ok(eval)) = result {
                    self.cache.insert(entry.text, eval);
                }
            }
        }
    }

    /// Evaluates one robustness scenario under panic isolation,
    /// through the memo when caching is active.
    fn evaluate_robustness(
        &mut self,
        compiled: &CompiledScenario,
        inject_panic: Option<&FaultPlan>,
        caching: bool,
    ) -> Result<focal_scenario::ScenarioOutput, String> {
        let engine = self.opts.engine;
        let memo = &mut self.memo;
        // AssertUnwindSafe: on a panic mid-evaluation the memo may have
        // absorbed some completed sub-experiments, but entries are only
        // ever inserted whole, so later lookups still see exactly the
        // values a clean evaluation would produce.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = inject_panic {
                // focal-lint: allow(panic-freedom) -- deliberate injected fault; this catch_unwind must contain it
                panic!("injected fault: {plan}");
            }
            compiled.evaluate_on(&engine, caching.then_some(memo))
        }));
        match run {
            Ok(Ok(output)) => Ok(output),
            Ok(Err(e)) => Err(format!("evaluation failed: {e}")),
            Err(payload) => Err(format!(
                "evaluation panicked: {}",
                payload_to_string(payload.as_ref())
            )),
        }
    }

    /// Counts and (optionally) dumps a success response.
    fn finish_ok(&mut self, id: &str, line: String) -> String {
        self.stats.ok += 1;
        self.dump(id, &line);
        line
    }

    /// Renders, counts and (optionally) dumps an error response.
    fn rendered_err(&mut self, error: &RequestError) -> String {
        self.stats.errors += 1;
        let line = render_err(error);
        let name = match &error.id {
            Some(id) => id.clone(),
            None => format!("line-{}", error.line),
        };
        self.dump(&name, &line);
        line
    }

    fn dump(&self, id: &str, line: &str) {
        if let Some(dump) = &self.opts.dump_dir {
            let name = format!("{}{id}", self.opts.dump_prefix);
            if let Err(e) = dump.write_serve(&name, line) {
                eprintln!("warning: serve transcript dump failed for '{name}': {e}");
            }
        }
    }
}

/// Builds the cache entry (or error string) from one finished
/// evaluation. The scenario digest is the one computed when the entry
/// was queued, and the rendered bytes move into the entry uncopied,
/// trimmed to their length because the cache never evicts.
fn finish_eval(
    entry: &QueueEntry,
    outcome: Result<focal_scenario::ScenarioOutput, String>,
) -> Result<CachedEval, String> {
    let output = outcome?;
    let bytes = output.to_bytes();
    let digest_entry = focal_scenario::digest_entry(&bytes);
    let mut output_text = String::from_utf8(bytes)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    output_text.shrink_to_fit();
    let compiled = &entry.compiled;
    Ok(CachedEval {
        scenario_id: compiled.id().to_string(),
        kind: compiled.canonical().kind.as_str().to_string(),
        digest_entry,
        output_text,
        scenario_digest: entry.digest,
        seed: compiled.mc_seed().unwrap_or(0),
    })
}

/// Renders the response line for request `id` from a (cached or fresh)
/// evaluation. Pure: the same evaluation always renders the same
/// bytes, which is the cache-hit byte-identity guarantee.
fn render_response(id: &str, include_output: bool, eval: &CachedEval, git_rev: &str) -> String {
    let provenance = Provenance {
        scenario_digest: eval.scenario_digest,
        seed: eval.seed,
        git_rev: git_rev.to_string(),
    };
    render_ok(
        id,
        &eval.scenario_id,
        &eval.kind,
        &eval.digest_entry,
        &provenance,
        include_output.then_some(eval.output_text.as_str()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> ServeCore {
        core_with_limits(Limits::default())
    }

    fn core_with_limits(limits: Limits) -> ServeCore {
        ServeCore::new(ServeOptions {
            engine: Engine::serial(),
            cache: true,
            dump_dir: None,
            dump_prefix: String::new(),
            git_rev: "testrev".to_string(),
            limits,
        })
    }

    fn fig3_request(id: &str) -> String {
        let scenario =
            "[scenario]\nid = \"fig3-serve\"\nkind = \"figure\"\nstudy = \"multicore\"\n";
        format!(
            "{{\"id\": \"{id}\", \"scenario\": \"{}\"}}",
            crate::json::escape(scenario)
        )
    }

    #[test]
    fn cold_and_warm_responses_are_byte_identical() {
        let mut core = core();
        let cold = core.handle_lines(&[(1, fig3_request("q1"))]);
        let warm = core.handle_lines(&[(2, fig3_request("q1"))]);
        assert_eq!(cold, warm);
        assert_eq!(core.cache.text_stats().hits, 1);
        assert!(cold[0].contains("\"ok\":true"));
        assert!(cold[0].contains("\"scenario_id\":\"fig3-serve\""));
        assert!(cold[0].contains("\"git_rev\":\"testrev\""));
    }

    #[test]
    fn malformed_lines_are_isolated_errors() {
        let mut core = core();
        let lines = vec![
            (1, "{not json".to_string()),
            (2, fig3_request("good")),
            (
                3,
                "{\"id\": \"x\", \"scenario\": \"[scenario]\\nbogus\"}".to_string(),
            ),
        ];
        let responses = core.handle_lines(&lines);
        assert_eq!(responses.len(), 3);
        assert!(responses[0].contains("\"ok\":false"));
        assert!(responses[0].contains("\"line\":1"));
        assert!(responses[1].contains("\"ok\":true"));
        assert!(responses[2].contains("\"ok\":false"));
        assert!(responses[2].contains("\"line\":3"));
        assert_eq!(core.stats().errors, 2);
        assert_eq!(core.stats().ok, 1);
    }

    #[test]
    fn cache_off_produces_identical_bytes() {
        let mut on = core();
        let mut off = ServeCore::new(ServeOptions {
            cache: false,
            ..on.opts.clone()
        });
        let lines: Vec<(usize, String)> = (1..=3)
            .map(|i| (i, fig3_request(&format!("q{i}"))))
            .collect();
        let a = on.handle_lines(&lines);
        let b = off.handle_lines(&lines);
        assert_eq!(a, b);
        // Second round: `on` serves from cache, `off` re-evaluates.
        let a2 = on.handle_lines(&lines);
        let b2 = off.handle_lines(&lines);
        assert_eq!(a2, b2);
        assert_eq!(a, a2);
    }

    #[test]
    fn duplicate_scenarios_in_one_batch_evaluate_once() {
        let mut core = core();
        let lines = vec![(1, fig3_request("a")), (2, fig3_request("b"))];
        let responses = core.handle_lines(&lines);
        assert_eq!(responses.len(), 2);
        // Same scenario, different ids: identical apart from the id.
        assert_eq!(
            responses[0].replace("\"id\":\"a\"", "\"id\":\"b\""),
            responses[1]
        );
    }

    #[test]
    fn include_output_embeds_the_rendered_text() {
        let mut core = core();
        let scenario =
            "[scenario]\nid = \"fig3-serve\"\nkind = \"figure\"\nstudy = \"multicore\"\n";
        let line = format!(
            "{{\"id\": \"q\", \"scenario\": \"{}\", \"include_output\": true}}",
            crate::json::escape(scenario)
        );
        let responses = core.handle_lines(&[(1, line)]);
        assert!(responses[0].contains("\"output\":\""));
        let parsed = crate::json::JsonValue::parse(&responses[0]).unwrap();
        let output = parsed
            .get("output")
            .and_then(crate::json::JsonValue::as_str)
            .unwrap();
        assert!(output.contains(','), "expected CSV output, got {output:?}");
    }
}
