//! Overload-safety and chaos-injection end-to-end tests: deadlines,
//! backpressure, graceful drain, rejection bytes, and the invariant
//! that every response surviving an injected fault is byte-identical
//! to the fault-free run.

use focal_engine::{Engine, FaultPlan};
use focal_serve::{
    serve_stream, serve_tcp, ChaosReader, ChaosWriter, Limits, ServeCore, ServeOptions, TcpOptions,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn opts_with(limits: Limits) -> ServeOptions {
    ServeOptions {
        engine: Engine::serial(),
        cache: true,
        dump_dir: None,
        dump_prefix: String::new(),
        git_rev: "testrev".to_string(),
        limits,
    }
}

/// [`opts_with`] on an engine carrying the plan parsed from `spec`.
fn faulted_opts(spec: &str, limits: Limits) -> ServeOptions {
    let plan = FaultPlan::parse(spec).expect("plan").leak();
    ServeOptions {
        engine: Engine::serial().with_faults(Some(plan)),
        ..opts_with(limits)
    }
}

fn scenario_line(id: &str) -> String {
    let scenario = "[scenario]\nid = \"fig3-serve\"\nkind = \"figure\"\nstudy = \"multicore\"\n";
    format!(
        "{{\"id\": \"{id}\", \"scenario\": \"{}\"}}",
        focal_serve::json::escape(scenario)
    )
}

/// Launches serve_tcp on an ephemeral port and returns (join handle,
/// resolved address).
fn spawn_server(
    tcp: TcpOptions,
    opts: ServeOptions,
    tag: &str,
) -> (std::thread::JoinHandle<std::io::Result<()>>, String) {
    let port_file =
        std::env::temp_dir().join(format!("focal-overload-{tag}-{}-port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let tcp = TcpOptions {
        port_file: Some(port_file.clone()),
        ..tcp
    };
    let handle = std::thread::spawn(move || serve_tcp(&tcp, &opts));
    let mut addr = String::new();
    for _ in 0..300 {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if s.trim().parse::<std::net::SocketAddr>().is_ok() {
                addr = s.trim().to_string();
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!addr.is_empty(), "server never wrote its port file");
    let _ = std::fs::remove_file(&port_file);
    (handle, addr)
}

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (reader, stream)
}

fn ask(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writer.write_all(line.as_bytes()).expect("send");
    writer.write_all(b"\n").expect("send newline");
    writer.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    assert!(!response.is_empty(), "server dropped the connection");
    response.trim_end().to_string()
}

#[test]
fn over_capacity_connection_gets_exact_rejection_bytes() {
    let tcp = TcpOptions {
        addr: "127.0.0.1:0".to_string(),
        port_file: None,
        max_conns: 1,
        max_accepts: 0,
    };
    let limits = Limits {
        drain_deadline: Duration::from_millis(2000),
        ..Limits::default()
    };
    let (server, addr) = spawn_server(tcp, opts_with(limits), "reject");

    // First client is admitted (proved by a served ping).
    let (mut r1, mut w1) = connect(&addr);
    let pong = ask(&mut r1, &mut w1, "{\"ping\": true, \"id\": \"p\"}");
    assert!(pong.contains("\"ping\":{"), "{pong}");

    // Second client is over the cap: exactly one structured rejected
    // line, then close. The bytes are pinned — clients key on them.
    let (mut r2, _w2) = connect(&addr);
    let mut line = String::new();
    r2.read_line(&mut line).expect("rejection line");
    assert_eq!(
        line.trim_end(),
        "{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"rejected\",\"line\":0,\
         \"message\":\"connection rejected: server at max-conns capacity\"}}"
    );
    let mut rest = String::new();
    assert_eq!(
        r2.read_line(&mut rest).expect("eof"),
        0,
        "socket stays open"
    );

    // Shut the server down from the admitted connection.
    let ack = ask(&mut r1, &mut w1, "{\"ctl\": \"shutdown\"}");
    assert!(ack.contains("\"ctl\":\"shutdown\""), "{ack}");
    let mut notice = String::new();
    r1.read_line(&mut notice).expect("shutdown notice");
    assert!(notice.contains("\"kind\":\"shutdown\""), "{notice}");
    server.join().expect("server thread").expect("serve_tcp");
}

#[test]
fn idle_connection_times_out_with_a_structured_line() {
    let tcp = TcpOptions {
        addr: "127.0.0.1:0".to_string(),
        port_file: None,
        max_conns: 0,
        max_accepts: 1,
    };
    let limits = Limits {
        idle_timeout: Some(Duration::from_millis(300)),
        drain_deadline: Duration::from_millis(2000),
        ..Limits::default()
    };
    let (server, addr) = spawn_server(tcp, opts_with(limits), "idle");

    let (mut reader, mut writer) = connect(&addr);
    // Slow-loris: dribble a partial line; partial bytes must NOT
    // reset the idle clock.
    writer.write_all(b"{\"id\": \"never").expect("partial send");
    writer.flush().expect("flush");
    let started = Instant::now();
    let mut line = String::new();
    reader.read_line(&mut line).expect("timeout line");
    assert!(line.contains("\"kind\":\"timeout\""), "{line}");
    assert!(line.contains("\"line\":0"), "{line}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout took {:?}",
        started.elapsed()
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);
    server.join().expect("server thread").expect("serve_tcp");
}

#[test]
fn ctl_shutdown_drains_every_connection_within_the_deadline() {
    let tcp = TcpOptions {
        addr: "127.0.0.1:0".to_string(),
        port_file: None,
        max_conns: 0,
        max_accepts: 0,
    };
    let limits = Limits {
        drain_deadline: Duration::from_millis(3000),
        ..Limits::default()
    };
    let (server, addr) = spawn_server(tcp, opts_with(limits), "drain");

    let (mut ra, mut wa) = connect(&addr);
    let (mut rb, mut wb) = connect(&addr);
    // Both connections demonstrably served.
    assert!(ask(&mut ra, &mut wa, &scenario_line("a1")).contains("\"ok\":true"));
    assert!(ask(&mut rb, &mut wb, &scenario_line("b1")).contains("\"ok\":true"));

    let started = Instant::now();
    let ack = ask(&mut ra, &mut wa, "{\"ctl\": \"shutdown\", \"id\": \"c\"}");
    assert_eq!(
        ack,
        "{\"id\":\"c\",\"ok\":true,\"ctl\":\"shutdown\",\"draining\":true}"
    );
    // The initiating connection gets its shutdown notice...
    let mut notice_a = String::new();
    ra.read_line(&mut notice_a).expect("notice a");
    assert!(notice_a.contains("\"kind\":\"shutdown\""), "{notice_a}");
    // ...and so does the idle bystander, without asking for anything.
    let mut notice_b = String::new();
    rb.read_line(&mut notice_b).expect("notice b");
    assert!(notice_b.contains("\"kind\":\"shutdown\""), "{notice_b}");
    let mut eof = String::new();
    assert_eq!(rb.read_line(&mut eof).expect("eof b"), 0);

    server.join().expect("server thread").expect("serve_tcp");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "drain took {:?}",
        started.elapsed()
    );
}

#[test]
fn ping_reports_server_introspection() {
    let mut core = ServeCore::new(opts_with(Limits::default()));
    let first = core.handle_lines(&[(1, "{\"ping\": true, \"id\": \"p0\"}".to_string())]);
    let parsed = focal_serve::json::JsonValue::parse(&first[0]).expect("pong parses");
    let ping = parsed.get("ping").expect("ping object");
    let get_u64 = |v: &focal_serve::json::JsonValue, key: &str| match v.get(key) {
        Some(focal_serve::json::JsonValue::Num(n)) => *n,
        _ => -1.0,
    };
    assert_eq!(
        ping.get("version")
            .and_then(focal_serve::json::JsonValue::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert_eq!(
        ping.get("git_rev")
            .and_then(focal_serve::json::JsonValue::as_str),
        Some("testrev")
    );
    assert_eq!(get_u64(ping, "conn"), 0.0);
    assert_eq!(get_u64(ping, "requests"), 0.0);
    let cache = ping.get("cache").expect("cache object");
    assert_eq!(get_u64(cache, "entries"), 0.0);

    // After one scenario, the gauges move.
    let _ = core.handle_lines(&[(2, scenario_line("q1"))]);
    let after = core.handle_lines(&[(3, "{\"ping\": true}".to_string())]);
    let parsed = focal_serve::json::JsonValue::parse(&after[0]).expect("pong parses");
    let ping = parsed.get("ping").expect("ping object");
    assert_eq!(get_u64(ping, "requests"), 1.0);
    let cache = ping.get("cache").expect("cache object");
    assert_eq!(get_u64(cache, "entries"), 1.0);
}

#[test]
fn admission_bound_sheds_excess_requests_in_order() {
    let limits = Limits {
        max_queue: 2,
        ..Limits::default()
    };
    let mut core = ServeCore::new(opts_with(limits));
    let lines: Vec<(usize, String)> = (1..=5)
        .map(|i| (i, scenario_line(&format!("q{i}"))))
        .collect();
    let responses = core.handle_lines(&lines);
    assert_eq!(responses.len(), 5);
    for (i, response) in responses.iter().enumerate() {
        if i < 2 {
            assert!(response.contains("\"ok\":true"), "slot {i}: {response}");
        } else {
            assert!(
                response.contains("\"kind\":\"overloaded\""),
                "slot {i}: {response}"
            );
            assert!(response.contains(&format!("\"id\":\"q{}\"", i + 1)));
        }
    }
    // The next batch admits afresh: the bound is per batch, not a
    // lifetime budget.
    let again = core.handle_lines(&[(9, scenario_line("q9"))]);
    assert!(again[0].contains("\"ok\":true"), "{}", again[0]);
}

#[test]
fn injected_latency_trips_the_request_deadline() {
    let limits = Limits {
        request_deadline: Some(Duration::from_millis(40)),
        ..Limits::default()
    };
    let mut core = ServeCore::new(faulted_opts("latency@serve:80ms", limits));
    let responses = core.handle_lines(&[(1, scenario_line("slow"))]);
    assert!(
        responses[0].contains("\"kind\":\"timeout\""),
        "{}",
        responses[0]
    );
    assert!(responses[0].contains("\"id\":\"slow\""));
    // Without the fault the same request clears the same deadline.
    let ok = ServeCore::new(opts_with(limits)).handle_lines(&[(2, scenario_line("fast"))]);
    assert!(ok[0].contains("\"ok\":true"), "{}", ok[0]);
}

#[test]
fn short_reads_and_writes_leave_response_bytes_identical() {
    let input = format!(
        "{}\n{}\n{}\n",
        scenario_line("q1"),
        scenario_line("q2"),
        "{\"bad\": 1}"
    );
    let baseline = {
        let mut reader = BufReader::new(std::io::Cursor::new(input.clone().into_bytes()));
        let mut out: Vec<u8> = Vec::new();
        let mut core = ServeCore::new(opts_with(Limits::default()));
        serve_stream(&mut reader, &mut out, &mut core).expect("baseline serve");
        out
    };
    for spec in ["shortread@serve:conn0", "shortwrite@serve"] {
        let opts = faulted_opts(spec, Limits::default());
        let faults = opts.engine.faults();
        let mut reader = BufReader::new(ChaosReader::new(
            std::io::Cursor::new(input.clone().into_bytes()),
            0,
            faults,
        ));
        let mut sink: Vec<u8> = Vec::new();
        let mut core = ServeCore::new(opts);
        {
            let mut writer = ChaosWriter::new(&mut sink, 0, faults);
            serve_stream(&mut reader, &mut writer, &mut core).expect("chaos serve");
        }
        assert_eq!(
            String::from_utf8_lossy(&sink),
            String::from_utf8_lossy(&baseline),
            "bytes diverged under {spec}"
        );
    }
}

#[test]
fn injected_panic_poisons_one_request_and_spares_the_rest() {
    let lines: Vec<(usize, String)> = (1..=5)
        .map(|i| (i, scenario_line(&format!("q{i}"))))
        .collect();
    let baseline = ServeCore::new(opts_with(Limits::default())).handle_lines(&lines);

    let faulted =
        ServeCore::new(faulted_opts("panic@serve:3", Limits::default())).handle_lines(&lines);

    assert_eq!(faulted.len(), baseline.len());
    for (i, (b, f)) in baseline.iter().zip(&faulted).enumerate() {
        if i == 3 {
            assert!(f.contains("\"kind\":\"evaluation\""), "slot 3: {f}");
            assert!(f.contains("injected fault"), "slot 3: {f}");
        } else {
            assert_eq!(b, f, "surviving slot {i} diverged from the fault-free run");
        }
    }

    // The wrong connection is untouched.
    let other_conn =
        ServeCore::new(faulted_opts("panic@serve:conn7:3", Limits::default())).handle_lines(&lines);
    assert_eq!(other_conn, baseline);
}

#[test]
fn faulted_request_does_not_poison_the_cache() {
    // The plan targets this connection, so its core runs without a
    // cache: a faulted evaluation has nowhere to be stored.
    let mut core = ServeCore::new(faulted_opts("panic@serve:1", Limits::default()));

    let cold = core.handle_lines(&[(1, scenario_line("cold"))]);
    assert!(cold[0].contains("\"ok\":true"));

    // Ordinal 1 is the next scenario slot on this core: the injected
    // panic must produce an error response and leave the cache alone.
    let faulted = core.handle_lines(&[(2, scenario_line("hurt"))]);
    assert!(faulted[0].contains("injected fault"), "{}", faulted[0]);
    assert_eq!(core.cache_entries(), 0, "faulted eval must not be cached");

    // The identical request recomputes and its bytes match the cold
    // response exactly.
    let warm = core.handle_lines(&[(3, scenario_line("cold"))]);
    assert_eq!(warm[0], cold[0], "cache returned poisoned bytes");
}

#[test]
fn a_plan_for_another_connection_keeps_the_cache_on() {
    let mut core = ServeCore::new(faulted_opts("panic@serve:conn7:0", Limits::default()));
    let cold = core.handle_lines(&[(1, scenario_line("q"))]);
    let warm = core.handle_lines(&[(2, scenario_line("q"))]);
    assert_eq!(warm, cold);
    assert_eq!(core.cache_entries(), 1);
    assert!(
        core.stats_line().contains("cache 1 hits"),
        "{}",
        core.stats_line()
    );
}
