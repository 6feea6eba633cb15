//! End-to-end TCP: a real listener, a real client socket, malformed
//! input mid-stream — the connection must survive and keep answering,
//! and `--dump-dir` transcripts must land under the `serve/` namespace.
//! A hostile request costs its own connection a structured error, never
//! the server.

use focal_engine::Engine;
use focal_serve::{serve_tcp, ServeOptions, TcpOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn scenario_line(id: &str) -> String {
    let scenario = "[scenario]\nid = \"fig3-serve\"\nkind = \"figure\"\nstudy = \"multicore\"\n";
    format!(
        "{{\"id\": \"{id}\", \"scenario\": \"{}\"}}\n",
        focal_serve::json::escape(scenario)
    )
}

#[test]
fn malformed_line_does_not_drop_the_connection() {
    let tmp = std::env::temp_dir().join(format!("focal-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let port_file = tmp.join("port");

    let tcp = TcpOptions {
        addr: "127.0.0.1:0".to_string(),
        port_file: Some(port_file.clone()),
        max_conns: 0,
        max_accepts: 1,
    };
    let opts = ServeOptions {
        engine: Engine::with_threads(2),
        cache: true,
        dump_dir: Some(focal_report::DumpDir::new(tmp.join("dump"))),
        dump_prefix: String::new(),
        git_rev: "e2e".to_string(),
        limits: focal_serve::Limits::default(),
    };

    let server = std::thread::spawn(move || serve_tcp(&tcp, &opts));

    // Wait for the server to publish its ephemeral port.
    let addr = {
        let mut addr = String::new();
        for _ in 0..200 {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if s.trim().parse::<std::net::SocketAddr>().is_ok() {
                    addr = s.trim().to_string();
                    break;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(!addr.is_empty(), "server never wrote its port file");
        addr
    };

    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let mut ask = |line: &str| -> String {
        writer.write_all(line.as_bytes()).expect("send");
        writer.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        assert!(!response.is_empty(), "server dropped the connection");
        response
    };

    // Good request, then garbage, then another good request on the
    // SAME connection: all three answered, stream intact.
    let first = ask(&scenario_line("q1"));
    assert!(first.contains("\"ok\":true"), "{first}");
    let bad = ask("this is not json\n");
    assert!(bad.contains("\"ok\":false"), "{bad}");
    assert!(bad.contains("\"line\":2"), "{bad}");
    let third = ask(&scenario_line("q3"));
    assert!(third.contains("\"ok\":true"), "{third}");
    // Same scenario → identical bytes apart from the request id.
    assert_eq!(first.replace("\"id\":\"q1\"", "\"id\":\"q3\""), third);

    drop(writer);
    drop(reader);
    server
        .join()
        .expect("server thread")
        .expect("serve_tcp result");

    // Transcripts landed under the serve/ namespace, one per request,
    // named by request id (connection-prefixed) or line number.
    let serve_dir = tmp.join("dump").join("serve");
    let mut names: Vec<String> = std::fs::read_dir(&serve_dir)
        .expect("serve dump namespace exists")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec!["c0-line-2.json", "c0-q1.json", "c0-q3.json"],
        "unexpected serve transcripts"
    );
    let transcript = std::fs::read_to_string(serve_dir.join("c0-q1.json")).expect("transcript");
    assert_eq!(transcript, first);

    let _ = std::fs::remove_dir_all(&tmp);
}

/// Sends one line on a fresh connection and returns the response line.
fn ask_once(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    stream.write_all(line.as_bytes()).expect("send");
    stream.flush().expect("flush");
    let mut response = String::new();
    BufReader::new(&stream)
        .read_line(&mut response)
        .expect("recv");
    assert!(!response.is_empty(), "server dropped the connection");
    response
}

/// A scenario whose array nests 15,000 levels deep used to overflow the
/// connection thread's stack and abort the whole process, so the next
/// connection was refused.
#[test]
fn a_deep_array_request_leaves_the_server_answering_other_connections() {
    let port_file =
        std::env::temp_dir().join(format!("focal-serve-e2e-deep-{}-port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let tcp = TcpOptions {
        addr: "127.0.0.1:0".to_string(),
        port_file: Some(port_file.clone()),
        max_conns: 0,
        max_accepts: 2,
    };
    let opts = ServeOptions {
        engine: Engine::serial(),
        cache: true,
        dump_dir: None,
        dump_prefix: String::new(),
        git_rev: "e2e".to_string(),
        limits: focal_serve::Limits::default(),
    };
    let server = std::thread::spawn(move || serve_tcp(&tcp, &opts));
    let mut addr = String::new();
    for _ in 0..300 {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if s.trim().parse::<std::net::SocketAddr>().is_ok() {
                addr = s.trim().to_string();
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let _ = std::fs::remove_file(&port_file);
    assert!(!addr.is_empty(), "server never wrote its port file");

    let depth = 15_000;
    let deep = format!(
        "[scenario]\nid = \"deep\"\nkind = \"figure\"\nstudy = \"multicore\"\n\
         [params]\ngamma = {}0.2{}\n",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let hostile = ask_once(
        &addr,
        &format!(
            "{{\"id\": \"deep\", \"scenario\": \"{}\"}}\n",
            focal_serve::json::escape(&deep)
        ),
    );
    assert!(hostile.contains("\"kind\":\"bad_request\""), "{hostile}");
    assert!(hostile.contains("\"key\":\"gamma\""), "{hostile}");

    let answered = ask_once(&addr, &scenario_line("after"));
    assert!(answered.contains("\"id\":\"after\""), "{answered}");
    assert!(answered.contains("\"ok\":true"), "{answered}");

    server
        .join()
        .expect("server thread")
        .expect("server drains after its two accepts");
}
