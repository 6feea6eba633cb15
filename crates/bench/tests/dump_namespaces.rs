//! Pins the `--dump-dir` contract. Hand-coded figure dumps, DSL
//! scenario dumps, and serve transcripts share one root but land in
//! `registry/`, `scenarios/`, and `serve/` respectively — the SAME id
//! used by all three producers yields three distinct files that never
//! interleave or clobber each other. And the suite's dump is the report
//! beside it: dumping changes no stdout byte, and every file is one
//! digest entry of its stage, under faults and failed writes too.

use focal_report::{DumpDir, NS_REGISTRY, NS_SCENARIOS, NS_SERVE};
use focal_scenario::digest_entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scenarios_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/scenarios")
}

fn suite(args: &[&str], dump_dir: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_suite"));
    cmd.arg("--no-timings").args(args).env("FOCAL_THREADS", "2");
    if let Some(dir) = dump_dir {
        cmd.arg("--dump-dir").arg(dir);
    }
    cmd.output().expect("suite binary runs")
}

/// One stage line of a `--no-timings` report.
struct StageLine {
    name: String,
    status: String,
    entries: Vec<(String, String)>,
}

/// The JSON string literals of `line`, unescaped.
fn json_strings(line: &str) -> Vec<String> {
    let mut strings = Vec::new();
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '"' {
            continue;
        }
        let mut s = String::new();
        while let Some(c) = chars.next() {
            match c {
                '"' => break,
                '\\' => s.extend(chars.next()),
                c => s.push(c),
            }
        }
        strings.push(s);
    }
    strings
}

/// Parses the stage lines of a `--no-timings` suite report: each is
/// `{"name": …, "ok": …, "status": …, "entries": {…}}` on one line.
fn stages(stdout: &[u8]) -> Vec<StageLine> {
    let text = std::str::from_utf8(stdout).expect("UTF-8 report");
    assert!(
        text.starts_with("{\n  \"suite\": \"focal-reproduction\""),
        "{text}"
    );
    text.lines()
        .filter(|l| l.trim_start().starts_with("{\"name\": "))
        .map(|line| {
            let s = json_strings(line);
            assert_eq!(
                [&s[0], &s[2], &s[3], &s[5]],
                ["name", "ok", "status", "entries"]
            );
            let entries = s[6..]
                .chunks(2)
                .map(|kv| (kv[0].clone(), kv[1].clone()))
                .collect();
            StageLine {
                name: s[1].clone(),
                status: s[4].clone(),
                entries,
            }
        })
        .collect()
}

/// The files under `dir/namespace`, keyed by file stem, with their bytes.
fn dumped(dir: &Path, namespace: &str) -> BTreeMap<String, Vec<u8>> {
    let Ok(files) = std::fs::read_dir(dir.join(namespace)) else {
        return BTreeMap::new();
    };
    files
        .map(|e| e.expect("a dump entry").path())
        .map(|path| {
            let stem = path.file_stem().expect("a file name").to_string_lossy();
            (
                stem.into_owned(),
                std::fs::read(&path).expect("a dump file"),
            )
        })
        .collect()
}

fn is_digest(value: &str) -> bool {
    value.contains(" bytes, fnv64=")
}

fn temp_root(label: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("focal-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn suite_dump_is_the_report_beside_it() {
    let scenarios = scenarios_dir();
    let scenarios = scenarios.to_str().expect("UTF-8 path");
    let arg_sets: [&[&str]; 6] = [
        &[],
        &["--scenarios", scenarios],
        &["--scenarios", scenarios, "--inject", "nan@mc:1017"],
        &["--inject", "panic@figures:3"],
        &["--scenarios", scenarios, "--inject", "panic@scenarios:1"],
        &["--scenarios", scenarios, "--scenarios-only"],
    ];
    let root = temp_root("dump-report");
    for (i, args) in arg_sets.iter().enumerate() {
        let dir = root.join(i.to_string());
        let plain = suite(args, None);
        let dumping = suite(args, Some(&dir));
        assert_eq!(plain.status.code(), dumping.status.code(), "{args:?}");
        assert!(plain.stdout == dumping.stdout, "{args:?}: stdout moved");
        let report = stages(&dumping.stdout);
        assert!(!report.is_empty(), "{args:?}: no stages");
        for (stage, namespace) in [("figures", NS_REGISTRY), ("scenarios", NS_SCENARIOS)] {
            let digests: BTreeMap<&str, &str> = report
                .iter()
                .filter(|s| s.name == stage)
                .flat_map(|s| &s.entries)
                .filter(|(_, v)| is_digest(v))
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let files = dumped(&dir, namespace);
            let ids: Vec<&str> = files.keys().map(String::as_str).collect();
            let expected: Vec<&str> = digests.keys().copied().collect();
            assert_eq!(ids, expected, "{args:?}: {namespace}/ holds other ids");
            for (id, bytes) in &files {
                assert_eq!(digest_entry(bytes), digests[id.as_str()], "{args:?}: {id}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_failed_dump_write_keeps_the_report() {
    let root = temp_root("dump-file");
    std::fs::create_dir_all(&root).expect("temp dir");
    let not_a_dir = root.join("regular-file");
    std::fs::write(&not_a_dir, "").expect("a regular file");
    let out = suite(&[], Some(&not_a_dir));
    assert_eq!(out.status.code(), Some(1));
    let report = stages(&out.stdout);
    let names: Vec<&str> = report.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "figures",
            "findings",
            "robustness",
            "crossovers",
            "defect-sim"
        ]
    );
    let figures = &report[0];
    assert_eq!(figures.status, "failed");
    assert_eq!(figures.entries.len(), 10, "{:?}", figures.entries);
    assert_eq!(
        figures.entries.iter().filter(|(_, v)| is_digest(v)).count(),
        9
    );
    let (key, error) = figures.entries.last().expect("an entry");
    assert_eq!(key, "dump-error");
    assert!(error.starts_with("registry/fig1.csv: "), "{error}");
    for stage in &report[1..] {
        assert_eq!(stage.status, "ok", "{}", stage.name);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn suite_dump_namespaces_never_interleave() {
    let root = std::env::temp_dir().join(format!("focal-dump-ns-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .arg("--no-timings")
        .arg("--dump-dir")
        .arg(&root)
        .arg("--scenarios")
        .arg(scenarios_dir())
        .env("FOCAL_THREADS", "2")
        .output()
        .expect("suite binary runs");
    assert!(
        out.status.success(),
        "suite exited {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );

    // A serve transcript joins the same root, reusing an id that
    // already exists in BOTH other namespaces.
    let dump = DumpDir::new(&root);
    dump.write_serve("fig3", "{\"ok\":true}")
        .expect("serve transcript writes");

    // The root contains exactly the three namespace directories — no
    // flat files that could interleave between producers.
    let mut top: Vec<String> = std::fs::read_dir(&root)
        .expect("dump root exists")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    top.sort();
    assert_eq!(top, vec![NS_REGISTRY, NS_SCENARIOS, NS_SERVE]);

    // The shared id "fig3" exists once per namespace, each with the
    // namespace's own content type.
    let registry = root.join(NS_REGISTRY).join("fig3.csv");
    let scenario = root.join(NS_SCENARIOS).join("fig3.csv");
    let serve = root.join(NS_SERVE).join("fig3.json");
    for path in [&registry, &scenario, &serve] {
        assert!(path.is_file(), "missing {}", path.display());
    }

    // The DSL twin must still byte-match its hand-coded oracle — the
    // namespace split exists so this comparison stays possible even
    // though both sides use the same id.
    let oracle = std::fs::read(&registry).expect("registry dump");
    let twin = std::fs::read(&scenario).expect("scenario dump");
    assert_eq!(oracle, twin, "fig3 DSL twin diverged from the registry");

    // Every namespace holds only its own extension: registry/ and
    // scenarios/ never contain .json, serve/ never contains .csv.
    let extensions = |ns: &str| -> Vec<String> {
        let mut exts: Vec<String> = std::fs::read_dir(root.join(ns))
            .expect("namespace dir")
            .filter_map(Result::ok)
            .filter_map(|e| {
                e.path()
                    .extension()
                    .map(|x| x.to_string_lossy().into_owned())
            })
            .collect();
        exts.sort();
        exts.dedup();
        exts
    };
    assert_eq!(extensions(NS_REGISTRY), vec!["csv"]);
    assert!(!extensions(NS_SCENARIOS).contains(&"json".to_string()));
    assert_eq!(extensions(NS_SERVE), vec!["json"]);

    let _ = std::fs::remove_dir_all(&root);
}
