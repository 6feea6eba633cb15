//! Protocol robustness: the negative corpus in
//! `tests/fixtures/negative.ndjson` — truncated JSON, wrong envelope
//! shapes, unknown keys, malformed scenario TOML, duplicate batch ids —
//! must produce one structured error response per request slot, naming
//! the offending input line, and must never panic or drop a slot.

use focal_engine::Engine;
use focal_serve::json::JsonValue;
use focal_serve::{serve_stream, ServeCore, ServeOptions, MAX_BATCH};
use std::io::{BufReader, Cursor};

fn opts() -> ServeOptions {
    ServeOptions {
        engine: Engine::serial(),
        cache: true,
        dump_dir: None,
        dump_prefix: String::new(),
        git_rev: "testrev".to_string(),
        limits: focal_serve::Limits::default(),
    }
}

fn serve(input: &str) -> Vec<String> {
    let mut reader = BufReader::new(Cursor::new(input.as_bytes().to_vec()));
    let mut out: Vec<u8> = Vec::new();
    let mut core = ServeCore::new(opts());
    serve_stream(&mut reader, &mut out, &mut core).expect("in-memory serve cannot fail");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Parses a response and returns (ok, error line, error message).
fn dissect(response: &str) -> (bool, Option<i64>, String) {
    let v = JsonValue::parse(response).expect("every response line is valid JSON");
    let ok = v.get("ok").and_then(JsonValue::as_bool).expect("ok field");
    let line = v.get("error").and_then(|e| e.get("line")).map(|l| match l {
        JsonValue::Num(n) => *n as i64,
        _ => panic!("error.line must be a number"),
    });
    let message = v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_string();
    (ok, line, message)
}

#[test]
fn negative_corpus_yields_structured_errors_naming_the_line() {
    let corpus = include_str!("fixtures/negative.ndjson");
    let input_lines: Vec<&str> = corpus.lines().collect();
    let responses = serve(corpus);

    // Every response is an error naming a real input line.
    assert!(!responses.is_empty());
    for response in &responses {
        let (ok, line, message) = dissect(response);
        assert!(!ok, "negative corpus produced a success: {response}");
        let line = line.expect("error responses carry the input line") as usize;
        assert!(
            (1..=input_lines.len()).contains(&line),
            "line {line} out of corpus range: {response}"
        );
        assert!(!message.is_empty(), "empty error message: {response}");
    }

    // Exact slot accounting: single-request lines yield one response,
    // the 2-element batch yields two, envelope failures yield one.
    // Corpus lines: 9 single + 1 batch(2) + 2 envelope errors = 13.
    assert_eq!(responses.len(), 13, "{responses:#?}");

    // Spot-check the line attribution across the corpus.
    let lines_seen: Vec<i64> = responses
        .iter()
        .map(|r| dissect(r).1.expect("line"))
        .collect();
    assert_eq!(
        lines_seen,
        vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10, 11, 12],
        "{responses:#?}"
    );
}

#[test]
fn specific_errors_name_their_keys_and_causes() {
    let corpus = include_str!("fixtures/negative.ndjson");
    let responses = serve(corpus);

    let expect = |needle: &str| {
        assert!(
            responses.iter().any(|r| r.contains(needle)),
            "no response contains {needle:?}: {responses:#?}"
        );
    };
    expect("malformed JSON");
    expect("\"key\":\"scenario\"");
    expect("\"key\":\"id\"");
    expect("unknown key `verbose`");
    expect("`include_output` must be a boolean");
    expect("invalid scenario");
    expect("duplicate request id `dup`");
    expect("unknown key `extra` in batch envelope");
    expect("`batch` must be an array");
    // Scenario errors surface the inner TOML position under the
    // request-line pseudo-file, so clients can find the bad key.
    expect("request:8");
}

#[test]
fn oversized_batch_is_rejected_as_one_error() {
    let items: Vec<String> = (0..=MAX_BATCH)
        .map(|i| format!(r#"{{"id": "q{i}", "scenario": "t"}}"#))
        .collect();
    let input = format!("{{\"batch\": [{}]}}\n", items.join(","));
    let responses = serve(&input);
    assert_eq!(responses.len(), 1);
    let (ok, line, message) = dissect(&responses[0]);
    assert!(!ok);
    assert_eq!(line, Some(1));
    assert!(message.contains("batch too large"), "{message}");
}

#[test]
fn oversized_line_is_rejected_without_reading_ahead_harm() {
    let huge = format!(
        "{{\"id\": \"big\", \"scenario\": \"{}\"}}\n{{\"id\": \"after\", \"scenario\": \"[scenario]\\nid = \\\"x\\\"\\nkind = \\\"figure\\\"\\nstudy = \\\"multicore\\\"\\n\"}}\n",
        "x".repeat(2 << 20)
    );
    let responses = serve(&huge);
    assert_eq!(responses.len(), 2);
    assert!(responses[0].contains("too long"));
    // The stream survives: the next line still gets a real answer.
    assert!(responses[1].contains("\"ok\":true"));
    assert!(responses[1].contains("\"id\":\"after\""));
}

#[test]
fn errors_never_leak_into_neighboring_requests() {
    let good = "{\"id\": \"g\", \"scenario\": \"[scenario]\\nid = \\\"x\\\"\\nkind = \\\"figure\\\"\\nstudy = \\\"multicore\\\"\\n\"}";
    let corpus = include_str!("fixtures/negative.ndjson");
    let input = format!("{good}\n{corpus}{good}\n");
    let responses = serve(&input);
    let first = responses.first().expect("first response");
    let last = responses.last().expect("last response");
    assert!(first.contains("\"ok\":true"));
    assert!(last.contains("\"ok\":true"));
    assert_eq!(
        responses
            .iter()
            .filter(|r| r.contains("\"ok\":true"))
            .count(),
        2
    );
}

#[test]
fn a_huge_sample_count_is_a_bad_request_not_an_abort() {
    let good = |id: &str| {
        format!(
            "{{\"id\": \"{id}\", \"scenario\": \"[scenario]\\nid = \\\"x\\\"\\nkind = \\\"figure\\\"\\nstudy = \\\"multicore\\\"\\n\"}}"
        )
    };
    let huge = "{\"id\": \"huge\", \"scenario\": \"[scenario]\\nid = \\\"h\\\"\\nkind = \\\"robustness\\\"\\nstudy = \\\"taxonomy\\\"\\n[monte_carlo]\\nsamples = 100000000000\\nseed = 42\\njitter = 0.1\\n\"}";
    let input = format!("{}\n{huge}\n{}\n", good("before"), good("after"));
    let responses = serve(&input);
    assert_eq!(responses.len(), 3, "{responses:#?}");
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    assert!(responses[2].contains("\"ok\":true"), "{}", responses[2]);

    let (ok, line, message) = dissect(&responses[1]);
    assert!(!ok);
    assert_eq!(line, Some(2));
    let error = JsonValue::parse(&responses[1])
        .ok()
        .and_then(|v| v.get("error").cloned())
        .expect("error object");
    assert_eq!(
        error.get("kind").and_then(JsonValue::as_str),
        Some("bad_request")
    );
    assert_eq!(
        error.get("key").and_then(JsonValue::as_str),
        Some("samples")
    );
    assert!(message.contains("at most 1048576"), "{message}");
}

/// Serves `ok / hostile / ok` and checks that the hostile scenario is a
/// `bad_request` on line 2 naming `key` while both neighbours are
/// answered: one request must never take the server down.
fn hostile_scenario_is_a_bad_request(scenario: &str, key: &str, fragment: &str) {
    let good = |id: &str| {
        format!(
            "{{\"id\": \"{id}\", \"scenario\": \"[scenario]\\nid = \\\"x\\\"\\nkind = \\\"figure\\\"\\nstudy = \\\"multicore\\\"\\n\"}}"
        )
    };
    let hostile = format!(
        "{{\"id\": \"hostile\", \"scenario\": \"{}\"}}",
        focal_serve::json::escape(scenario)
    );
    let input = format!("{}\n{hostile}\n{}\n", good("before"), good("after"));
    let responses = serve(&input);
    assert_eq!(responses.len(), 3, "{responses:#?}");
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    assert!(responses[2].contains("\"ok\":true"), "{}", responses[2]);

    let (ok, line, message) = dissect(&responses[1]);
    assert!(!ok);
    assert_eq!(line, Some(2));
    let error = JsonValue::parse(&responses[1])
        .ok()
        .and_then(|v| v.get("error").cloned())
        .expect("error object");
    assert_eq!(
        error.get("kind").and_then(JsonValue::as_str),
        Some("bad_request")
    );
    assert_eq!(error.get("key").and_then(JsonValue::as_str), Some(key));
    assert!(message.contains(fragment), "{message}");
}

#[test]
fn a_deeply_nested_array_is_a_bad_request_not_a_stack_overflow() {
    let depth = 50_000;
    let scenario = format!(
        "[scenario]\nid = \"deep\"\nkind = \"figure\"\nstudy = \"multicore\"\n\
         [params]\ngamma = {}0.2{}\n",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    hostile_scenario_is_a_bad_request(&scenario, "gamma", "nest deeper than 32");
}

// The grid and list requests below are past the bounds but small
// enough to evaluate harmlessly where the bounds are missing: the
// values that used to abort the server (`die_steps = 100000000000`,
// 3,000-entry `bce` and `parallel_fraction` lists) grow memory until
// the process dies. `tests/fixtures/huge-steps.toml` in the scenario
// crate keeps the exact value at the compile level.

#[test]
fn an_oversized_grid_is_a_bad_request_naming_the_key() {
    let scenario = "[scenario]\nid = \"h\"\nkind = \"figure\"\nstudy = \"wafer\"\n\
                    [sweep]\ndie_steps = 100000\n";
    hostile_scenario_is_a_bad_request(scenario, "die_steps", "at most 256 grid points");
}

#[test]
fn an_oversized_sweep_list_is_a_bad_request_naming_the_key() {
    let bces: Vec<String> = (1..=3000).map(|i| i.to_string()).collect();
    let scenario = format!(
        "[scenario]\nid = \"h\"\nkind = \"figure\"\nstudy = \"multicore\"\n\
         [sweep]\nbce = [{}]\n",
        bces.join(", ")
    );
    hostile_scenario_is_a_bad_request(&scenario, "bce", "at most 32 entries, got 3000");
}

#[test]
fn an_oversized_case_study_core_count_is_a_bad_request_naming_the_key() {
    let scenario = "[scenario]\nid = \"h\"\nkind = \"figure\"\nstudy = \"case-study\"\n\
                    [params]\nbase_cores = 1000\n";
    hostile_scenario_is_a_bad_request(scenario, "base_cores", "at most 256");
}
