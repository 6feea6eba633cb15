//! In-memory spans and per-layer self time.
//!
//! A span is a layer name, a start and end on one clock, the span that
//! caused it and the request it served. A layer's self time is its
//! span's duration minus the part of that interval its child spans
//! cover, so nested and parallel children are never counted twice.
//! Spans stay in memory while the benchmark runs and are written out
//! once at the end.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers the traced run separates. `Compile` is the mirror's own
/// extra call that rebuilds an evaluable scenario after the timed
/// front-end stages; it is not a layer of the program and is excluded
/// from every per-layer figure and from the tracing overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Batch,
    Parse,
    Render,
    TextLookup,
    DigestLookup,
    Insert,
    Toml,
    Schema,
    Canonicalize,
    Digest,
    Evaluate,
    Output,
    Fanout,
    Compile,
    Figures,
    Findings,
    Robustness,
    DefectSim,
    Corpus,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Batch => "service.batch",
            Layer::Parse => "proto.parse",
            Layer::Render => "proto.render",
            Layer::TextLookup => "cache.text_lookup",
            Layer::DigestLookup => "cache.digest_lookup",
            Layer::Insert => "cache.insert",
            Layer::Toml => "scenario.toml",
            Layer::Schema => "scenario.schema",
            Layer::Canonicalize => "scenario.canonicalize",
            Layer::Digest => "scenario.digest",
            Layer::Evaluate => "studies.evaluate",
            Layer::Output => "render.output",
            Layer::Fanout => "engine.fanout",
            Layer::Compile => "mirror.compile",
            Layer::Figures => "studies.figures",
            Layer::Findings => "studies.findings",
            Layer::Robustness => "core.robustness",
            Layer::DefectSim => "wafer.defect_sim",
            Layer::Corpus => "scenario.corpus",
        }
    }
}

/// No parent / no single request.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// Index into the study-family table for `Evaluate` spans.
    pub family: u8,
    pub req: u32,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

pub struct Tracer {
    pub epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// Request the next spans belong to.
    pub req: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: NONE,
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, layer: Layer) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            family: 0,
            req: self.req,
            parent: self.stack.last().copied().unwrap_or(NONE),
            start: self.now(),
            end: 0,
        });
        self.stack.push(idx);
        idx
    }

    pub fn end(&mut self, idx: u32) {
        let now = self.now();
        self.spans[idx as usize].end = now;
        self.stack.pop();
    }

    /// Records a span timed elsewhere (on an engine worker thread).
    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Self time in ns of every span, indexed like `spans`.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NONE {
                children[s.parent as usize].push(i as u32);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut covered: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = self.spans[k as usize];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                covered.sort_unstable();
                let mut total = 0u64;
                let mut reach = s.start;
                for (a, b) in covered {
                    if b > reach {
                        total += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(total)
            })
            .collect()
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path, families: &[&str]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tlayer\tfamily\treq\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let family = if s.layer == Layer::Evaluate {
                families.get(s.family as usize).copied().unwrap_or("-")
            } else {
                "-"
            };
            let id = |v: u32| {
                if v == NONE {
                    "-".to_string()
                } else {
                    v.to_string()
                }
            };
            writeln!(
                out,
                "{i}\t{}\t{family}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                id(s.req),
                id(s.parent),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}
