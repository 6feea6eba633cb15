//! A traced mirror of `ServeCore::handle_batch`.
//!
//! It calls the same public functions `ServeCore` calls, in the same
//! order, with the same arguments, and wraps each call in a span. The
//! one difference is that `CompiledScenario::compile` is split into the
//! stages it runs (`toml::parse`, `schema::from_document`,
//! `canonicalize`) so each gets its own span; since a compiled scenario
//! cannot be built from its canonical form outside the scenario crate,
//! each miss is compiled once more for evaluation under a `Compile`
//! span that no figure counts. The benchmark compares the mirror's
//! response lines with `ServeCore`'s and refuses to report per-layer
//! numbers when they differ, so a mirror that drifts from `service.rs`
//! cannot publish figures.

use crate::trace::{Layer, Span, Tracer, NONE};
use focal_core::SweepMemo;
use focal_engine::Engine;
use focal_scenario::{
    canonicalize, schema, toml, CanonicalScenario, CompiledScenario, ScenarioKind, ScenarioOutput,
    StudyFamily,
};
use focal_serve::{
    parse_line, render_err, render_ok, CachedEval, ErrorKind, Provenance, Query, Request,
    RequestError, ServeCache,
};

/// Family names in `StudyFamily` order, for per-family evaluate time.
pub const FAMILIES: [&str; 13] = [
    "wafer",
    "multicore",
    "asymmetric",
    "accelerator",
    "dark-silicon",
    "caching",
    "microarch",
    "speculation",
    "dvfs",
    "gating",
    "die-shrink",
    "case-study",
    "taxonomy",
];

fn family_index(family: StudyFamily) -> u8 {
    FAMILIES
        .iter()
        .position(|f| *f == family.as_str())
        .unwrap_or(0) as u8
}

enum Slot {
    Ready(String),
    Pending {
        id: String,
        line: usize,
        include_output: bool,
        queue_idx: usize,
    },
}

struct QueueEntry {
    digest: u64,
    canonical: CanonicalScenario,
    text: String,
    line: usize,
    req: u32,
}

pub struct Mirror {
    engine: Engine,
    pub cache: ServeCache,
    memo: SweepMemo,
    git_rev: String,
    pub tracer: Tracer,
    /// Rendered output bytes and the number of outputs rendered.
    pub output_bytes: u64,
    pub outputs: u64,
}

impl Mirror {
    pub fn new(engine: Engine, git_rev: String) -> Mirror {
        Mirror {
            engine,
            cache: ServeCache::new(),
            memo: SweepMemo::new(),
            git_rev,
            tracer: Tracer::new(),
            output_bytes: 0,
            outputs: 0,
        }
    }

    /// Mirrors `ServeCore::handle_batch` with caching on, no limits and
    /// no fault plan. `first_req` numbers the batch's first line in the
    /// stream; each line carries one request.
    pub fn handle_batch(&mut self, lines: &[(usize, String)], first_req: u32) -> Vec<String> {
        self.tracer.req = NONE;
        let batch = self.tracer.begin(Layer::Batch);
        let mut slots: Vec<Slot> = Vec::new();
        let mut queue: Vec<QueueEntry> = Vec::new();
        for (offset, (line_no, text)) in lines.iter().enumerate() {
            if text.trim().is_empty() {
                continue;
            }
            self.tracer.req = first_req + offset as u32;
            let s = self.tracer.begin(Layer::Parse);
            let parsed = parse_line(text, *line_no);
            self.tracer.end(s);
            for p in parsed {
                let slot = match p {
                    Err(e) => Slot::Ready(render_err(&e)),
                    Ok(Query::Scenario(req)) => self.resolve(req, *line_no, &mut queue),
                    // The benchmark's streams carry scenario requests
                    // only; anything else fails the fidelity check.
                    Ok(_) => Slot::Ready("<mirror: unsupported query>".to_string()),
                };
                slots.push(slot);
            }
        }
        self.tracer.req = NONE;
        self.evaluate_queue(queue, &mut slots);
        self.tracer.end(batch);
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(line) => line,
                Slot::Pending { .. } => "<mirror: unresolved slot>".to_string(),
            })
            .collect()
    }

    fn resolve(&mut self, req: Request, line_no: usize, queue: &mut Vec<QueueEntry>) -> Slot {
        let s = self.tracer.begin(Layer::TextLookup);
        let hit = self.cache.lookup_text(&req.scenario);
        self.tracer.end(s);
        if let Some(eval) = hit {
            return Slot::Ready(render_response(&mut self.tracer, &req, eval, &self.git_rev));
        }
        let label = format!("request:{line_no}");
        let s = self.tracer.begin(Layer::Toml);
        let doc = toml::parse(&req.scenario, &label);
        self.tracer.end(s);
        let def = doc.and_then(|doc| {
            let s = self.tracer.begin(Layer::Schema);
            let def = schema::from_document(&doc, &label);
            self.tracer.end(s);
            def
        });
        let canonical = def.and_then(|def| {
            let s = self.tracer.begin(Layer::Canonicalize);
            let canonical = canonicalize(&def);
            self.tracer.end(s);
            canonical
        });
        let canonical = match canonical {
            Ok(c) => c,
            Err(e) => {
                let key = e.key.clone();
                return Slot::Ready(render_err(&RequestError {
                    id: Some(req.id),
                    kind: ErrorKind::BadRequest,
                    line: line_no,
                    message: format!("invalid scenario: {e}"),
                    key,
                }));
            }
        };
        let s = self.tracer.begin(Layer::Digest);
        let digest = canonical.digest();
        self.tracer.end(s);
        let s = self.tracer.begin(Layer::DigestLookup);
        let hit = self.cache.lookup_digest(&req.scenario, digest);
        self.tracer.end(s);
        if let Some(eval) = hit {
            return Slot::Ready(render_response(&mut self.tracer, &req, eval, &self.git_rev));
        }
        let queue_idx = match queue.iter().position(|e| e.digest == digest) {
            Some(idx) => idx,
            None => {
                queue.push(QueueEntry {
                    digest,
                    canonical,
                    text: req.scenario,
                    line: line_no,
                    req: self.tracer.req,
                });
                queue.len() - 1
            }
        };
        Slot::Pending {
            id: req.id,
            line: line_no,
            include_output: req.include_output,
            queue_idx,
        }
    }

    fn evaluate_queue(&mut self, queue: Vec<QueueEntry>, slots: &mut [Slot]) {
        if queue.is_empty() {
            return;
        }
        let mut compiled: Vec<Result<CompiledScenario, String>> = Vec::with_capacity(queue.len());
        for entry in &queue {
            self.tracer.req = entry.req;
            let s = self.tracer.begin(Layer::Compile);
            let c = CompiledScenario::compile(&entry.text, &format!("request:{}", entry.line));
            self.tracer.end(s);
            compiled.push(c.map_err(|e| format!("invalid scenario: {e}")));
        }
        let mut results: Vec<Option<Result<CachedEval, String>>> = Vec::new();
        results.resize_with(queue.len(), || None);

        let mut fan: Vec<(usize, &CompiledScenario)> = Vec::new();
        for (idx, (entry, c)) in queue.iter().zip(&compiled).enumerate() {
            let c = match c {
                Ok(c) => c,
                Err(e) => {
                    results[idx] = Some(Err(e.clone()));
                    continue;
                }
            };
            if entry.canonical.kind == ScenarioKind::Robustness {
                self.tracer.req = entry.req;
                let s = self.tracer.begin(Layer::Evaluate);
                self.tracer.spans[s as usize].family = family_index(entry.canonical.family);
                let engine = self.engine;
                let memo = &mut self.memo;
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.evaluate_memo_on(&engine, memo)
                }));
                self.tracer.end(s);
                let outcome = match run {
                    Ok(Ok(output)) => Ok(output),
                    Ok(Err(e)) => Err(format!("evaluation failed: {e}")),
                    Err(payload) => Err(format!(
                        "evaluation panicked: {}",
                        panic_message(payload.as_ref())
                    )),
                };
                let result = self.finish_eval(c, outcome);
                if let Ok(eval) = &result {
                    self.insert(&entry.text, eval);
                }
                results[idx] = Some(result);
            } else {
                fan.push((idx, c));
            }
        }

        if !fan.is_empty() {
            self.tracer.req = NONE;
            let s = self.tracer.begin(Layer::Fanout);
            let epoch = self.tracer.epoch;
            let outcomes = self.engine.try_par_map_isolated(0, &fan, |(_, c)| {
                let start = epoch.elapsed().as_nanos() as u64;
                let result = c.evaluate();
                (result, start, epoch.elapsed().as_nanos() as u64)
            });
            self.tracer.end(s);
            match outcomes {
                Ok(outcomes) => {
                    for ((idx, c), outcome) in fan.iter().zip(outcomes) {
                        let entry = &queue[*idx];
                        let outcome = match outcome {
                            Ok((inner, start, end)) => {
                                self.tracer.record(Span {
                                    layer: Layer::Evaluate,
                                    family: family_index(entry.canonical.family),
                                    req: entry.req,
                                    parent: s,
                                    start,
                                    end,
                                });
                                inner.map_err(|e| format!("evaluation failed: {e}"))
                            }
                            Err(ce) => Err(format!("evaluation panicked: {}", ce.payload)),
                        };
                        self.tracer.req = entry.req;
                        let result = self.finish_eval(c, outcome);
                        if let Ok(eval) = &result {
                            self.insert(&entry.text, eval);
                        }
                        results[*idx] = Some(result);
                    }
                }
                Err(ce) => {
                    for (idx, _) in &fan {
                        results[*idx] = Some(Err(format!("evaluation panicked: {}", ce.payload)));
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
            self.tracer.req = queue[*queue_idx].req;
            let rendered = match results.get(*queue_idx).and_then(Option::as_ref) {
                Some(Ok(eval)) => {
                    let req = Request {
                        id: id.clone(),
                        scenario: String::new(),
                        include_output: *include_output,
                    };
                    render_response(&mut self.tracer, &req, eval, &self.git_rev)
                }
                Some(Err(message)) => render_err(&RequestError {
                    id: Some(id.clone()),
                    kind: ErrorKind::Evaluation,
                    line: *line,
                    message: message.clone(),
                    key: None,
                }),
                None => render_err(&RequestError {
                    id: Some(id.clone()),
                    kind: ErrorKind::Internal,
                    line: *line,
                    message: "internal: evaluation result missing".to_string(),
                    key: None,
                }),
            };
            *slot = Slot::Ready(rendered);
        }
        self.tracer.req = NONE;
    }

    fn insert(&mut self, text: &str, eval: &CachedEval) {
        let s = self.tracer.begin(Layer::Insert);
        self.cache.insert(text, eval.clone());
        self.tracer.end(s);
    }

    /// `ServeCore`'s `finish_eval`: render the output once, digest it and
    /// keep everything a response needs.
    fn finish_eval(
        &mut self,
        compiled: &CompiledScenario,
        outcome: Result<ScenarioOutput, String>,
    ) -> Result<CachedEval, String> {
        let output = outcome?;
        let s = self.tracer.begin(Layer::Output);
        let bytes = output.to_bytes();
        let digest_entry = focal_scenario::digest_entry(&bytes);
        let output_text = String::from_utf8_lossy(&bytes).into_owned();
        self.tracer.end(s);
        self.output_bytes += bytes.len() as u64;
        self.outputs += 1;
        let s = self.tracer.begin(Layer::Digest);
        let scenario_digest = compiled.canonical().digest();
        self.tracer.end(s);
        Ok(CachedEval {
            scenario_id: compiled.id().to_string(),
            kind: compiled.canonical().kind.as_str().to_string(),
            digest_entry,
            output_text,
            scenario_digest,
            seed: compiled.mc_seed().unwrap_or(0),
        })
    }
}

/// `ServeCore`'s `panic_message`.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `ServeCore`'s `render_response`, inside a `proto.render` span.
fn render_response(tracer: &mut Tracer, req: &Request, eval: &CachedEval, git_rev: &str) -> String {
    let s = tracer.begin(Layer::Render);
    let provenance = Provenance {
        scenario_digest: eval.scenario_digest,
        seed: eval.seed,
        git_rev: git_rev.to_string(),
    };
    let line = render_ok(
        &req.id,
        &eval.scenario_id,
        &eval.kind,
        &eval.digest_entry,
        &provenance,
        req.include_output.then_some(eval.output_text.as_str()),
    );
    tracer.end(s);
    line
}
