//! Binary-level contract of `focal-serve --inject`: a fault site that
//! can never fire in the server is a usage error (exit 2, naming the
//! valid sites), and a valid plan survives a later `--threads`.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn serve_with(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_focal-serve"))
        .arg("--stdin")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("focal-serve binary runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("request written");
    child.wait_with_output().expect("focal-serve exits")
}

#[test]
fn focal_serve_rejects_inject_sites_that_cannot_fire() {
    for spec in ["panic@srve:3", "panic@figures:3"] {
        let out = serve_with(&["--inject", spec], "");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(
            stderr.contains("valid sites: serve, mc"),
            "{spec}: {stderr}"
        );
    }
}

#[test]
fn a_plan_outlives_a_later_threads_flag() {
    let scenario = "[scenario]\nid = \"fig3-serve\"\nkind = \"figure\"\nstudy = \"multicore\"\n";
    let line = format!(
        "{{\"id\": \"q\", \"scenario\": \"{}\"}}\n",
        focal_serve::json::escape(scenario)
    );
    let out = serve_with(&["--inject", "panic@serve:0", "--threads", "2"], &line);
    assert_eq!(out.status.code(), Some(0));
    let response = String::from_utf8_lossy(&out.stdout);
    assert!(
        response.contains("injected fault: panic@serve:0"),
        "{response}"
    );
}
