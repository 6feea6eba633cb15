//! The serve workloads: one `focal-serve` connection driven through
//! alternating closed-loop and open-loop rounds, every response
//! byte-checked against `ServeCore::handle_lines` between rounds, and
//! (traced) the closed-loop rounds replayed through the span-instrumented
//! mirror.

use crate::gen::{CacheClass, Generator, Request};
use crate::mirror::{Mirror, FAMILIES};
use crate::net::{Conn, Responses, Server};
use crate::stats::{lower_quartile, median, per_window, percentile};
use crate::trace::Layer;
use crate::{Args, Outcome};
use focal_engine::Engine;
use focal_serve::json::JsonValue;
use focal_serve::{detect_git_rev, CacheStats, Limits, ServeCore, ServeOptions};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Requests in flight in the closed loop (`focal-loadgen`'s default).
const WINDOW: usize = 64;

/// Server launches per run; `setup_s` is their median.
const SETUP_RUNS: usize = 5;

/// A run sends its closed-loop requests in this many rounds, with an
/// open-loop round after every `CLOSED_ROUNDS / OPEN_ROUNDS` of them, and
/// holds the responses of one round at a time. Open-loop rounds stay
/// long: the first requests after an idle pause are slow, and in short
/// rounds they would be more than a percent of the samples.
const CLOSED_ROUNDS: usize = 50;
const OPEN_ROUNDS: usize = 5;

/// Open-loop percentiles are taken per window of this many consecutive
/// requests (ten beyond the 99th percentile).
const LATENCY_WINDOW: usize = 1000;

/// The server coalesces the complete lines its reader already holds into
/// one batch, and its reader buffers 8 KiB (std's `BufReader` default).
/// The in-process replays pack consecutive lines into batches of at most
/// this many bytes and `WINDOW` lines, the shape the closed loop gives.
const READ_BUFFER: usize = 8 * 1024;

/// A serve workload's fixed settings, calibrated once on the commit that
/// introduced the benchmark (2-core x86-64 container).
pub struct ServeWorkload {
    pub name: &'static str,
    /// Closed-loop requests per second of `--seconds`: the closed rounds
    /// send `closed_per_s × seconds / 2` requests in all.
    pub closed_per_s: f64,
    /// Open-loop send rate; the open rounds last `seconds / 2` in all.
    pub rate: f64,
    /// Share of replayed requests that are fresh respellings.
    pub respell_share: f64,
}

pub const EXPLORE_COLD: ServeWorkload = ServeWorkload {
    name: "explore-cold",
    closed_per_s: 11000.0,
    rate: 2000.0,
    respell_share: 0.0,
};

pub const REPLAY_WARM: ServeWorkload = ServeWorkload {
    name: "replay-warm",
    closed_per_s: 70000.0,
    rate: 10000.0,
    respell_share: 0.25,
};

fn lines(requests: &[Request]) -> Vec<&str> {
    requests.iter().map(|r| r.line.as_str()).collect()
}

/// Greedy packing of consecutive lines into server-shaped batches.
fn batches(lines: &[&str]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < lines.len() {
        let mut end = start + 1;
        let mut bytes = lines[start].len();
        while end < lines.len() && end - start < WINDOW && bytes + lines[end].len() <= READ_BUFFER {
            bytes += lines[end].len();
            end += 1;
        }
        out.push(start..end);
        start = end;
    }
    out
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Closed,
    Open,
}

/// Answers every request of the connection in-process, in send order,
/// and compares the server's responses with those answers.
struct Checker {
    core: ServeCore,
    mirror: Option<Mirror>,
    /// Lines sent on the connection so far (the server numbers lines).
    line_no: usize,
    failed: u64,
    /// Responses on which the traced mirror differs from `ServeCore`.
    drifted: u64,
    /// Expected server counters: scenario requests and cache misses.
    requests: u64,
    misses: u64,
    /// Expected outcome counts over the measured rounds, by `CacheClass`.
    measured: [u64; 3],
    closed_requests: u64,
    /// `ServeCore::handle_lines` time over the closed-loop rounds.
    untraced_ns: u64,
    /// The mirror's text hits, digest hits and misses in the closed-loop
    /// rounds.
    closed_cache: [u64; 3],
}

const OK_MARKER: &str = "\"ok\":true,\"scenario_id\":";

fn cache_stats(mirror: &Mirror) -> (CacheStats, CacheStats) {
    (mirror.cache.text_stats(), mirror.cache.digest_stats())
}

impl Checker {
    fn new(threads: usize, trace: bool) -> Checker {
        let git_rev = detect_git_rev();
        let engine = Engine::with_threads(threads);
        Checker {
            core: ServeCore::new(ServeOptions {
                engine,
                cache: true,
                dump_dir: None,
                dump_prefix: String::new(),
                git_rev: git_rev.clone(),
                limits: Limits::default(),
            }),
            mirror: trace.then(|| Mirror::new(engine, git_rev)),
            line_no: 0,
            failed: 0,
            drifted: 0,
            requests: 0,
            misses: 0,
            measured: [0; 3],
            closed_requests: 0,
            untraced_ns: 0,
            closed_cache: [0; 3],
        }
    }

    fn check(&mut self, requests: &[Request], responses: &Responses, phase: Phase) {
        for r in requests {
            self.requests += 1;
            self.misses += u64::from(r.class == CacheClass::Miss);
            if phase != Phase::Warmup {
                self.measured[r.class as usize] += 1;
            }
        }
        let closed = phase == Phase::Closed;
        if closed {
            self.closed_requests += requests.len() as u64;
        }
        let before = self.mirror.as_ref().map(|m| {
            let (text, digest) = cache_stats(m);
            (
                m.tracer.spans.len(),
                m.outputs,
                m.output_bytes,
                text,
                digest,
            )
        });
        let sent = lines(requests);
        for range in batches(&sent) {
            let batch: Vec<(usize, String)> = range
                .clone()
                .map(|i| (self.line_no + i + 1, sent[i].to_string()))
                .collect();
            let t = Instant::now();
            let expected = self.core.handle_lines(&batch);
            if closed {
                self.untraced_ns += t.elapsed().as_nanos() as u64;
            }
            self.failed += range.len().abs_diff(expected.len()) as u64;
            for (i, want) in range.clone().zip(&expected) {
                let got = responses.get(i);
                if got != Some(want.as_bytes()) || !want.contains(OK_MARKER) {
                    self.failed += 1;
                    if self.failed <= 3 {
                        let got = String::from_utf8_lossy(got.unwrap_or_default());
                        eprintln!(
                            "perfbench: request failed\n  sent: {}  got:  {got:.400}\n  \
                             want: {want:.400}",
                            sent[i]
                        );
                    }
                }
            }
            if let Some(mirror) = self.mirror.as_mut() {
                let got = mirror.handle_batch(&batch, (self.line_no + range.start) as u32);
                self.drifted += got.iter().zip(&expected).filter(|(a, b)| a != b).count() as u64;
                self.drifted += got.len().abs_diff(expected.len()) as u64;
            }
        }
        self.line_no += requests.len();
        if let (Some(mirror), Some((spans, outputs, bytes, text, digest))) =
            (self.mirror.as_mut(), before)
        {
            if closed {
                let (t, d) = cache_stats(mirror);
                self.closed_cache[0] += t.hits - text.hits;
                self.closed_cache[1] += d.hits - digest.hits;
                self.closed_cache[2] += d.misses - digest.misses;
            } else {
                // Only the closed-loop rounds are traced.
                mirror.tracer.spans.truncate(spans);
                mirror.outputs = outputs;
                mirror.output_bytes = bytes;
            }
        }
    }

    /// Compares the server's `ping` cache counters with the outcome the
    /// generator expected for every request on the connection.
    fn counters_agree(&self, ping: &str) -> Result<bool, String> {
        let value = JsonValue::parse(ping.trim()).map_err(|e| format!("ping response: {e}"))?;
        let num = |v: Option<&JsonValue>| match v {
            Some(JsonValue::Num(n)) => Ok(*n as u64),
            _ => Err(format!("ping response lacks a counter: {ping}")),
        };
        let info = value.get("ping");
        let cache = info.and_then(|p| p.get("cache"));
        let hits = num(cache.and_then(|c| c.get("hits")))?;
        let misses = num(cache.and_then(|c| c.get("misses")))?;
        let entries = num(cache.and_then(|c| c.get("entries")))?;
        let requests = num(info.and_then(|p| p.get("requests")))?;
        let want_hits = self.requests - self.misses;
        let agree = hits == want_hits
            && misses == self.misses
            && entries == self.misses
            && requests == self.requests;
        if !agree {
            eprintln!(
                "perfbench: server cache counters (hits {hits}, misses {misses}, entries \
                 {entries}, requests {requests}) disagree with the stream (hits {want_hits}, \
                 misses {}, requests {})",
                self.misses, self.requests
            );
        }
        Ok(agree)
    }
}

/// What the TCP rounds measured.
#[derive(Default)]
struct Measured {
    closed_secs: f64,
    /// Every open-loop round trip, in send order.
    latency_ns: Vec<u64>,
    send_lag_ns: Vec<u64>,
    saturated: bool,
}

pub fn run(w: &ServeWorkload, args: &Args, threads: usize) -> Result<Outcome, String> {
    let mut generator = if w.name == REPLAY_WARM.name {
        Generator::replay_warm(args.seed, Path::new(crate::suite::CORPUS), w.respell_share)?
    } else {
        Generator::explore_cold(args.seed)
    };
    let per_round =
        |per_s: f64, rounds: usize| (per_s * args.seconds / 2.0 / rounds as f64).round() as usize;
    let n_closed = per_round(w.closed_per_s, CLOSED_ROUNDS).max(WINDOW);
    let n_open = per_round(w.rate, OPEN_ROUNDS).max(1);

    let warmup = generator.warmup();
    let bin = args.bin_dir.join("focal-serve");
    let mut setup = Vec::with_capacity(SETUP_RUNS);
    let mut kept = None;
    for run in 0..SETUP_RUNS {
        let started = Instant::now();
        let server = Server::spawn(&bin, threads)?;
        let mut conn = Conn::connect(&server.addr)?;
        let (_, warm) = conn.closed_loop(&lines(&warmup), WINDOW)?;
        setup.push(started.elapsed().as_secs_f64());
        if run + 1 < SETUP_RUNS {
            drop(conn);
            server.finish()?;
        } else {
            kept = Some((server, conn, warm));
        }
    }
    let (server, mut conn, warm) = kept.ok_or("no server was set up")?;

    // Request lines are generated before each round starts and checked
    // after it ends; only the rounds themselves are timed.
    let mut checker = Checker::new(threads, args.trace);
    checker.check(&warmup, &warm, Phase::Warmup);
    let mut m = Measured::default();
    for round in 0..CLOSED_ROUNDS {
        let closed = generator.phase('c', round * n_closed, n_closed)?;
        let (elapsed, responses) = conn.closed_loop(&lines(&closed), WINDOW)?;
        m.closed_secs += elapsed.as_secs_f64();
        checker.check(&closed, &responses, Phase::Closed);
        if (round + 1) % (CLOSED_ROUNDS / OPEN_ROUNDS) != 0 {
            continue;
        }
        let open_round = round / (CLOSED_ROUNDS / OPEN_ROUNDS);
        let open = generator.phase('o', open_round * n_open, n_open)?;
        let result = conn.open_loop(&lines(&open), w.rate)?;
        m.saturated |= result.saturated();
        m.latency_ns.extend(&result.latency_ns);
        m.send_lag_ns.extend(&result.send_lag_ns);
        checker.check(&open, &result.responses, Phase::Open);
    }
    let ping = conn.ping()?;
    let peak_rss_kb = server.peak_rss_kb()?;
    drop(conn);
    server.finish()?;

    let counters_ok = checker.counters_agree(&ping)?;
    let measured_n = checker.measured.iter().sum::<u64>().max(1) as f64;
    let closed_n = checker.closed_requests as f64;
    eprintln!(
        "perfbench: {} responses checked, {} failed; {CLOSED_ROUNDS} rounds of {n_closed} closed-loop \
         and {OPEN_ROUNDS} of {n_open} open-loop requests at {}/s{}; shares text-hit {:.4}, digest-hit {:.4}, \
         miss {:.4}; {} digest collisions drawn again; ServeCore {:.2} us/request in-process; \
         peak RSS server {peak_rss_kb} kB, benchmark {} kB",
        checker.requests,
        checker.failed,
        w.rate,
        if m.saturated { " SATURATED" } else { "" },
        checker.measured[CacheClass::TextHit as usize] as f64 / measured_n,
        checker.measured[CacheClass::DigestHit as usize] as f64 / measured_n,
        checker.measured[CacheClass::Miss as usize] as f64 / measured_n,
        generator.redraws(),
        checker.untraced_ns as f64 / 1e3 / closed_n,
        crate::net::peak_rss_kb("self")?,
    );

    let mut metrics: Vec<(String, f64)> = Vec::new();
    if let Some(mirror) = &checker.mirror {
        if checker.drifted > 0 {
            return Err(format!(
                "the traced mirror differs from ServeCore on {} responses; refusing to \
                 report per-layer numbers",
                checker.drifted
            ));
        }
        let per_req = |ns: u64| ns as f64 / 1e3 / closed_n;
        let mut self_ns = vec![0u64; Layer::Corpus as usize + 1];
        let mut evaluate_ns = [0u64; FAMILIES.len()];
        let (mut traced_ns, mut compile_ns) = (0u64, 0u64);
        for (span, ns) in mirror.tracer.spans.iter().zip(mirror.tracer.self_times()) {
            self_ns[span.layer as usize] += ns;
            match span.layer {
                Layer::Batch => traced_ns += span.end - span.start,
                Layer::Compile => compile_ns += span.end - span.start,
                Layer::Evaluate => evaluate_ns[span.family as usize] += ns,
                _ => {}
            }
        }
        mirror
            .tracer
            .write(&crate::spans_path(args), &FAMILIES)
            .map_err(|e| format!("write spans: {e}"))?;
        for layer in [
            Layer::Parse,
            Layer::Render,
            Layer::TextLookup,
            Layer::DigestLookup,
            Layer::Insert,
            Layer::Toml,
            Layer::Schema,
            Layer::Canonicalize,
            Layer::Digest,
            Layer::Evaluate,
            Layer::Output,
            Layer::Fanout,
        ] {
            metrics.push((
                format!("{}_us", layer.name()),
                per_req(self_ns[layer as usize]),
            ));
        }
        for (family, ns) in FAMILIES.iter().zip(evaluate_ns) {
            metrics.push((format!("studies.evaluate_us.{family}"), per_req(ns)));
        }
        let handle_us = per_req(checker.untraced_ns);
        let [text_hits, digest_hits, misses] = checker.closed_cache;
        metrics.extend([
            ("cache.entries".to_string(), mirror.cache.entries() as f64),
            (
                "cache.text_hit_frac".to_string(),
                text_hits as f64 / closed_n,
            ),
            (
                "cache.digest_hit_frac".to_string(),
                digest_hits as f64 / closed_n,
            ),
            ("cache.miss_frac".to_string(), misses as f64 / closed_n),
            (
                "render.output_bytes".to_string(),
                mirror.output_bytes as f64 / mirror.outputs.max(1) as f64,
            ),
            ("service.handle_us".to_string(), handle_us),
            (
                "transport.us".to_string(),
                m.closed_secs * 1e6 / closed_n - handle_us,
            ),
            (
                "client.send_lag_p99_us".to_string(),
                percentile(&m.send_lag_ns, 99.0) / 1e3,
            ),
            (
                "trace.overhead_frac".to_string(),
                (traced_ns - compile_ns) as f64 / checker.untraced_ns as f64 - 1.0,
            ),
        ]);
    } else {
        // On two cores each closed-loop round settles into a fast or a
        // slow placement of the client and server threads (measured on
        // replay-warm: near 100k or near 60k requests/s), so throughput
        // is all closed-loop requests over all closed-loop time, which
        // averages the 50 rounds. Stolen CPU time and stalls of the
        // shared host only ever add latency to some windows, while a
        // slower program raises all of them, so each latency is the first
        // quartile over the open-loop windows.
        metrics.push(("evals_per_s".into(), closed_n / m.closed_secs));
        if m.saturated {
            eprintln!(
                "perfbench: the open-loop backlog grew at {}/s (saturated); latency not reported",
                w.rate
            );
        } else {
            let p50 = lower_quartile(&per_window(&m.latency_ns, LATENCY_WINDOW, 50.0));
            let p99 = lower_quartile(&per_window(&m.latency_ns, LATENCY_WINDOW, 99.0));
            metrics.push(("latency_p50_us".into(), p50 / 1e3));
            metrics.push(("latency_p99_us".into(), p99 / 1e3));
        }
        metrics.push(("setup_s".into(), median(&setup)));
        metrics.push(("peak_rss_mb".into(), peak_rss_kb as f64 / 1024.0));
    }
    Ok(Outcome {
        correct: checker.failed == 0 && counters_ok,
        attempted: checker.requests,
        failed: checker.failed,
        metrics,
    })
}
