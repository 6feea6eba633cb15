//! Transports: newline-delimited JSON over a byte stream or TCP.
//!
//! # Batching policy
//!
//! [`serve_stream_ctx`] blocks for the first request line, then
//! *coalesces* every further complete line already sitting in the read
//! buffer — up to [`MAX_BATCH`] — into one
//! [`ServeCore::handle_batch`] call, so a pipelining client gets its
//! queries fanned out across the engine in one `try_par_map_isolated`
//! instead of being evaluated one at a time. Coalescing never changes
//! response *content or order* (each response is a pure function of
//! its own request line), only how much parallelism a moment of the
//! input stream enjoys — which is why serve output stays byte-diffable
//! while throughput scales with client pipelining.
//!
//! # Reading under timeouts
//!
//! TCP sockets carry a 100 ms read timeout so the serve loop *ticks*
//! even while a client is silent: each tick checks the drain flag and
//! the `--idle-timeout` budget. Partial lines survive ticks in a
//! persistent buffer ([`std::io::BufRead::read_until`] appends), and —
//! deliberately — partial bytes do **not** reset the idle clock: a
//! slow-loris client dribbling one byte per tick times out exactly
//! like a silent one. Every exit path writes one final structured line
//! (`timeout`, `shutdown`) before closing; only client-initiated EOF
//! closes silently.
//!
//! # Concurrency model
//!
//! [`serve_tcp`] follows the engine's confinement discipline: the only
//! thread primitive is a scoped spawn, every connection gets its own
//! [`ServeCore`] (cache, memo, counters — nothing shared), and all
//! cross-connection state lives in one [`ServerState`] owned by the
//! accept loop (gauges, the drain flag, the force-close registry).
//! Determinism under concurrent clients is therefore structural:
//! connections cannot observe each other's requests.
//!
//! # Overload and drain
//!
//! `--max-conns` is a live concurrency cap: a connection over the cap
//! receives one structured `rejected` line and is closed, and admitted
//! connections are never evicted. `--max-accepts` bounds the total
//! accepted (then the server drains and exits — how smoke jobs shut it
//! down); a `{"ctl": "shutdown"}` request triggers the same drain. A
//! drain stops accepting, lets connections finish their in-flight
//! batch and send a final `shutdown` line, and force-closes the read
//! half of any connection still open at `--drain-deadline` (write
//! halves stay open so final lines are still delivered).

use crate::chaos::{ChaosReader, ChaosWriter};
use crate::load::{ConnCtx, ServerState};
use crate::proto::{render_err, ErrorKind, RequestError, MAX_BATCH};
use crate::service::{ServeCore, ServeOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Accept-loop poll interval and the granularity of drain-deadline
/// checks.
const POLL_TICK: Duration = Duration::from_millis(5);

/// Read-timeout tick on TCP connections: how often an idle connection
/// re-checks the drain flag and its idle budget.
const READ_TICK: Duration = Duration::from_millis(100);

/// One read attempt's outcome.
enum Tick {
    /// A complete line (or the final unterminated line before EOF).
    Line(String),
    /// No complete line yet (read timeout / interrupted); partial
    /// bytes, if any, are parked in the carry buffer.
    Idle,
    /// Clean end of input.
    Eof,
}

/// Reads toward one complete line, carrying partial bytes across read
/// timeouts in `partial`.
fn read_tick<R: Read>(reader: &mut BufReader<R>, partial: &mut Vec<u8>) -> std::io::Result<Tick> {
    match reader.read_until(b'\n', partial) {
        Ok(0) => {
            if partial.is_empty() {
                Ok(Tick::Eof)
            } else {
                // Final line without a trailing newline.
                let line = String::from_utf8_lossy(partial).into_owned();
                partial.clear();
                Ok(Tick::Line(line))
            }
        }
        Ok(_) if partial.last() == Some(&b'\n') => {
            let line = String::from_utf8_lossy(partial).into_owned();
            partial.clear();
            Ok(Tick::Line(line))
        }
        // Bytes arrived but EOF cut the line short.
        Ok(_) => {
            let line = String::from_utf8_lossy(partial).into_owned();
            partial.clear();
            Ok(Tick::Line(line))
        }
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::Interrupted
            ) =>
        {
            Ok(Tick::Idle)
        }
        Err(e) => Err(e),
    }
}

/// Writes one final structured notice line and flushes — the last
/// bytes a connection sees before the server closes it.
fn finish_with_notice<W: Write>(
    writer: &mut W,
    kind: ErrorKind,
    message: &str,
) -> std::io::Result<()> {
    let line = render_err(&RequestError::notice(kind, message));
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Serves one byte stream to completion with a standalone server state
/// (stdin-style single connection, ordinal 0).
///
/// # Errors
///
/// Propagates I/O failures on the underlying stream; protocol-level
/// problems are per-request error *responses*, never `Err`.
pub fn serve_stream<R: Read, W: Write>(
    reader: &mut BufReader<R>,
    writer: &mut W,
    core: &mut ServeCore,
) -> std::io::Result<()> {
    let state = ServerState::new();
    let ctx = ConnCtx {
        conn: 0,
        state: &state,
    };
    serve_stream_ctx(reader, writer, core, &ctx)
}

/// Serves one byte stream to completion: reads request lines until EOF
/// (or an idle timeout / drain), writes one response line per request,
/// and never closes without a final structured line except on
/// client-initiated EOF.
///
/// # Errors
///
/// Propagates I/O failures on the underlying stream; protocol-level
/// problems are per-request error *responses*, never `Err`.
pub fn serve_stream_ctx<R: Read, W: Write>(
    reader: &mut BufReader<R>,
    writer: &mut W,
    core: &mut ServeCore,
    ctx: &ConnCtx<'_>,
) -> std::io::Result<()> {
    let idle_timeout = core.limits().idle_timeout;
    let mut line_no: usize = 0;
    let mut partial: Vec<u8> = Vec::new();
    let mut last_line = Instant::now();
    loop {
        // Block (tick) for one line, then drain whatever else has
        // already arrived (bounded by MAX_BATCH) without blocking.
        let first = loop {
            match read_tick(reader, &mut partial)? {
                Tick::Line(l) => break Some(l),
                Tick::Eof => break None,
                Tick::Idle => {
                    if ctx.state.draining() {
                        return finish_with_notice(
                            writer,
                            ErrorKind::Shutdown,
                            "server draining; connection closing",
                        );
                    }
                    if let Some(limit) = idle_timeout {
                        if last_line.elapsed() > limit {
                            return finish_with_notice(
                                writer,
                                ErrorKind::Timeout,
                                "idle timeout: no complete request line arrived in time",
                            );
                        }
                    }
                }
            }
        };
        let Some(first) = first else {
            if ctx.state.draining() {
                // A force-closed read half reads as EOF: the final
                // shutdown line still goes out on the intact write
                // half (best-effort if the client truly left).
                return finish_with_notice(
                    writer,
                    ErrorKind::Shutdown,
                    "server draining; connection closing",
                );
            }
            return Ok(()); // client EOF: clean close, nothing to say
        };
        last_line = Instant::now();
        line_no += 1;
        let mut batch: Vec<(usize, String)> = Vec::new();
        if !first.trim().is_empty() {
            batch.push((line_no, first));
        }
        while batch.len() < MAX_BATCH && buffered_line_ready(reader) {
            match read_tick(reader, &mut partial)? {
                Tick::Line(l) => {
                    line_no += 1;
                    if !l.trim().is_empty() {
                        batch.push((line_no, l));
                    }
                }
                _ => break,
            }
        }
        if batch.is_empty() {
            continue; // blank input; wait for the next line or EOF
        }
        for response in core.handle_batch(&batch, ctx) {
            writer.write_all(response.as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
        if ctx.state.draining() {
            return finish_with_notice(
                writer,
                ErrorKind::Shutdown,
                "server draining; connection closing",
            );
        }
    }
}

/// Whether the reader's internal buffer already holds a complete line
/// (so reading it cannot block).
fn buffered_line_ready<R: Read>(reader: &BufReader<R>) -> bool {
    reader.buffer().contains(&b'\n')
}

/// TCP server configuration.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// When set, the actually-bound address is written here once
    /// listening — how CI scripts discover an ephemeral port.
    pub port_file: Option<std::path::PathBuf>,
    /// Live concurrent-connection cap: a connection over the cap gets
    /// one structured `rejected` line and is closed (0 = unlimited).
    pub max_conns: usize,
    /// Accept at most this many connections in total, then drain and
    /// return (0 = serve until a `ctl` shutdown). Lets smoke jobs shut
    /// the server down cleanly.
    pub max_accepts: usize,
}

/// Binds and serves TCP connections, one scoped thread per connection,
/// each with a fresh [`ServeCore`] built from `opts` (the dump prefix
/// is extended with the connection ordinal). Returns after a drain
/// (`--max-accepts` exhausted or a `ctl` shutdown) completes.
///
/// # Errors
///
/// Propagates bind/port-file I/O failures. Per-connection I/O errors
/// are reported on stderr and end only that connection.
pub fn serve_tcp(tcp: &TcpOptions, opts: &ServeOptions) -> std::io::Result<()> {
    let listener = TcpListener::bind(&tcp.addr)?;
    let local = listener.local_addr()?;
    // Non-blocking accept: the loop must keep ticking to notice the
    // drain flag and enforce the drain deadline, and `std` offers no
    // way to interrupt a blocking accept without extra deps.
    listener.set_nonblocking(true)?;
    if let Some(path) = &tcp.port_file {
        std::fs::write(path, format!("{local}\n"))?;
    }
    eprintln!("focal-serve: listening on {local}");

    let state = ServerState::new();
    // focal-lint: allow(concurrency-confinement) -- serve accept loop: scoped thread per connection, each owning a private ServeCore; cross-connection state confined to one ServerState
    std::thread::scope(|scope| {
        let mut accepted: u64 = 0;
        loop {
            if state.draining() {
                break;
            }
            if tcp.max_accepts != 0 && accepted >= tcp.max_accepts as u64 {
                // Soft stop: quit accepting but let in-flight
                // connections run to natural completion — the drain
                // flag (which actively closes them) is only raised if
                // they outlive the drain deadline below.
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if tcp.max_conns != 0 && state.conns() >= tcp.max_conns {
                        reject(stream);
                        continue;
                    }
                    let conn = accepted;
                    accepted += 1;
                    state.conn_opened();
                    let slot = state.register(&stream);
                    let conn_opts = ServeOptions {
                        dump_prefix: format!("{}c{conn}-", opts.dump_prefix),
                        ..opts.clone()
                    };
                    let state_ref = &state;
                    scope.spawn(move || {
                        serve_conn(stream, conn_opts, conn, state_ref);
                        state_ref.deregister(slot);
                        state_ref.conn_closed();
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_TICK);
                }
                Err(e) => {
                    eprintln!("focal-serve: accept failed: {e}");
                    std::thread::sleep(POLL_TICK);
                }
            }
        }
        // Drain. If a ctl shutdown raised the flag, connections notice
        // at their next read tick or batch boundary, send their final
        // shutdown line and close; after --max-accepts they simply run
        // until client EOF. Either way this loop waits up to the drain
        // deadline for the gauge to reach zero.
        let deadline = Instant::now() + opts.limits.drain_deadline;
        while state.conns() > 0 && Instant::now() < deadline {
            std::thread::sleep(POLL_TICK);
        }
        if state.conns() > 0 {
            // Deadline expired. Raise the flag (idempotent) so
            // stragglers self-close with a structured line at their
            // next tick, give them that tick, then force their read
            // halves shut — reads EOF, the final line still goes out
            // on the write half, and the scope join below completes.
            state.begin_drain();
            let grace = Instant::now() + READ_TICK * 3;
            while state.conns() > 0 && Instant::now() < grace {
                std::thread::sleep(POLL_TICK);
            }
            let stragglers = state.conns();
            if stragglers > 0 {
                let closed = state.force_close_all();
                eprintln!(
                    "focal-serve: drain deadline expired with {stragglers} connections open; \
                     force-closed {closed}"
                );
            }
        }
    });
    eprintln!("focal-serve: drained; exiting");
    Ok(())
}

/// Sends the one structured `rejected` line an over-capacity connection
/// receives before close. Best-effort: an unwritable socket is simply
/// dropped.
fn reject(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let line = render_err(&RequestError::notice(
        ErrorKind::Rejected,
        "connection rejected: server at max-conns capacity",
    ));
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

/// Serves one accepted connection to completion.
fn serve_conn(stream: TcpStream, opts: ServeOptions, conn: u64, state: &ServerState) {
    // Response lines are small; Nagle would trade 40 ms of latency per
    // window for nothing.
    let _ = stream.set_nodelay(true);
    // The read tick keeps the serve loop checking the drain flag and
    // idle budget while the client is silent; a generous write timeout
    // keeps a stalled client from pinning the connection thread.
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown-peer".to_string());
    let faults = opts.engine.faults();
    let mut core = ServeCore::new(opts);
    let ctx = ConnCtx { conn, state };
    let result = match stream.try_clone() {
        Ok(write_half) => {
            // Chaos adapters are always installed; they forward
            // untouched unless a shortread/shortwrite plan targets this
            // connection.
            let mut reader = BufReader::new(ChaosReader::new(stream, conn, faults));
            let mut writer = std::io::BufWriter::new(ChaosWriter::new(write_half, conn, faults));
            serve_stream_ctx(&mut reader, &mut writer, &mut core, &ctx)
        }
        Err(e) => Err(e),
    };
    if let Err(e) = result {
        eprintln!("focal-serve: connection {peer} failed: {e}");
    }
    eprintln!("focal-serve: {peer} done; {}", core.stats_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use focal_engine::Engine;
    use std::io::Cursor;

    fn opts() -> ServeOptions {
        ServeOptions {
            engine: Engine::serial(),
            cache: true,
            dump_dir: None,
            dump_prefix: String::new(),
            git_rev: "testrev".to_string(),
            limits: crate::load::Limits::default(),
        }
    }

    fn run(input: &str) -> Vec<String> {
        let mut reader = BufReader::new(Cursor::new(input.as_bytes().to_vec()));
        let mut out: Vec<u8> = Vec::new();
        let mut core = ServeCore::new(opts());
        serve_stream(&mut reader, &mut out, &mut core).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn one_response_per_request_line_in_order() {
        let scenario =
            "[scenario]\nid = \"fig3-serve\"\nkind = \"figure\"\nstudy = \"multicore\"\n";
        let ok_line = format!(
            "{{\"id\": \"q1\", \"scenario\": \"{}\"}}",
            crate::json::escape(scenario)
        );
        let input = format!("{ok_line}\nnot-json\n\n{ok_line}\n");
        let lines = run(&input);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"id\":\"q1\""));
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[1].contains("\"ok\":false"));
        assert!(lines[1].contains("\"line\":2"));
        // The blank line is skipped but still counted for numbering:
        // the second ok response came from input line 4.
        assert_eq!(lines[0], lines[2]);
    }

    #[test]
    fn coalescing_never_changes_bytes() {
        // Same corpus served through a tiny pipe (one line at a time)
        // and via one pre-filled buffer (maximal coalescing) must
        // produce identical bytes.
        let scenario =
            "[scenario]\nid = \"fig3-serve\"\nkind = \"figure\"\nstudy = \"multicore\"\n";
        let line = format!(
            "{{\"id\": \"q\", \"scenario\": \"{}\"}}",
            crate::json::escape(scenario)
        );
        let input = format!("{line}\n").repeat(10);

        let coalesced = run(&input);

        let mut one_at_a_time = Vec::new();
        let mut core = ServeCore::new(opts());
        for (i, l) in input.lines().enumerate() {
            for r in core.handle_lines(&[(i + 1, l.to_string())]) {
                one_at_a_time.push(r);
            }
        }
        assert_eq!(coalesced, one_at_a_time);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(run("").is_empty());
        assert!(run("\n\n \n").is_empty());
    }

    #[test]
    fn final_unterminated_line_is_served() {
        let scenario =
            "[scenario]\nid = \"fig3-serve\"\nkind = \"figure\"\nstudy = \"multicore\"\n";
        let line = format!(
            "{{\"id\": \"q1\", \"scenario\": \"{}\"}}",
            crate::json::escape(scenario)
        );
        // No trailing newline: the line must still be answered.
        let lines = run(&line);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"ok\":true"));
    }

    #[test]
    fn ping_and_shutdown_flow_through_the_stream() {
        let input = "{\"ping\": true, \"id\": \"p\"}\n{\"ctl\": \"shutdown\", \"id\": \"c\"}\n";
        let lines = run(input);
        // ping response, ctl ack, then the final shutdown notice.
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ping\":{"));
        assert!(lines[0].contains("\"conn\":0"));
        assert!(lines[1].contains("\"ctl\":\"shutdown\""));
        assert!(lines[2].contains("\"kind\":\"shutdown\""));
        assert!(lines[2].contains("\"line\":0"));
    }
}
