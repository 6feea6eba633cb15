//! `focal-serve` — the carbon-query server binary.
//!
//! ```text
//! focal-serve [--stdin]                      serve stdin → stdout (default)
//! focal-serve --tcp <addr>                   serve TCP (127.0.0.1:0 = free port)
//!             [--port-file <path>]           write the bound address here
//!             [--max-conns <n>]              concurrent-connection cap; over-cap
//!                                            connections get one `rejected` line
//!                                            (0 = unlimited)
//!             [--max-accepts <n>]            accept n connections total, then
//!                                            drain and exit (0 = until ctl)
//! common:     [--no-cache]                   disable the evaluation cache + memo
//!             [--dump-dir <dir>]             also write serve/<request-id>.json
//!             [--threads <n>]                engine threads (default: FOCAL_THREADS)
//!             [--idle-timeout <ms>]          close idle connections (0 = never)
//!             [--request-deadline <ms>]      shed requests stuck pre-evaluation
//!                                            (0 = never)
//!             [--max-queue <n>]              admission bound per coalesced batch
//!                                            (0 = unbounded)
//!             [--drain-deadline <ms>]        force-close stragglers this long
//!                                            after a drain begins (default 5000)
//!             [--inject <spec>]              run under a deterministic fault plan, e.g.
//!                                            panic@serve:3, latency@serve:conn2:50ms,
//!                                            shortread@serve, shortwrite@serve:conn0,
//!                                            nan@mc:1017 (sites: serve, mc)
//! ```
//!
//! Exit status: 0 on clean shutdown (stdin EOF, `--max-accepts`
//! reached, or a `{"ctl": "shutdown"}` request drained), 1 on an I/O
//! failure, 2 on a usage error (including an `--inject` site that could
//! never fire in the server). Stats go to stderr only; stdout
//! carries nothing but response lines.

use focal_engine::fault::{MC_SITE, SERVE_SITE};
use focal_engine::{Engine, FaultPlan};
use focal_report::DumpDir;
use focal_serve::{
    serve_stream, serve_tcp, ChaosReader, ChaosWriter, ServeCore, ServeOptions, TcpOptions,
};
use std::io::BufReader;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: focal-serve [--stdin | --tcp <addr>] [--port-file <path>] \
         [--max-conns <n>] [--max-accepts <n>] [--no-cache] [--dump-dir <dir>] \
         [--threads <n>] [--idle-timeout <ms>] [--request-deadline <ms>] \
         [--max-queue <n>] [--drain-deadline <ms>] [--inject <spec>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tcp_addr: Option<String> = None;
    let mut port_file: Option<std::path::PathBuf> = None;
    let mut max_conns: usize = 0;
    let mut max_accepts: usize = 0;
    let mut opts = ServeOptions::from_env();
    let mut faults: Option<&'static FaultPlan> = None;

    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--stdin" => {}
            "--tcp" => {
                i += 1;
                match args.get(i) {
                    Some(addr) => tcp_addr = Some(addr.clone()),
                    None => usage(),
                }
            }
            "--port-file" => {
                i += 1;
                match args.get(i) {
                    Some(path) => port_file = Some(path.into()),
                    None => usage(),
                }
            }
            "--max-conns" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => max_conns = n,
                    None => usage(),
                }
            }
            "--max-accepts" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => max_accepts = n,
                    None => usage(),
                }
            }
            "--no-cache" => opts.cache = false,
            "--dump-dir" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => opts.dump_dir = Some(DumpDir::new(dir)),
                    None => usage(),
                }
            }
            "--threads" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => opts.engine = Engine::with_threads(n),
                    _ => usage(),
                }
            }
            "--idle-timeout" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(0) => opts.limits.idle_timeout = None,
                    Some(ms) => opts.limits.idle_timeout = Some(Duration::from_millis(ms)),
                    None => usage(),
                }
            }
            "--request-deadline" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(0) => opts.limits.request_deadline = None,
                    Some(ms) => opts.limits.request_deadline = Some(Duration::from_millis(ms)),
                    None => usage(),
                }
            }
            "--max-queue" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => opts.limits.max_queue = n,
                    None => usage(),
                }
            }
            "--drain-deadline" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(ms) => opts.limits.drain_deadline = Duration::from_millis(ms),
                    None => usage(),
                }
            }
            "--inject" => {
                i += 1;
                match args
                    .get(i)
                    .map(|s| FaultPlan::parse_for(s, &[SERVE_SITE, MC_SITE]))
                {
                    Some(Ok(plan)) => {
                        eprintln!("focal-serve: armed fault plan {}", plan.spec());
                        faults = Some(plan.leak());
                    }
                    Some(Err(e)) => {
                        eprintln!("focal-serve: bad --inject spec: {e}");
                        std::process::exit(2);
                    }
                    None => usage(),
                }
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    // Attached after parsing, so a later `--threads` cannot drop it.
    opts.engine = opts.engine.with_faults(faults);

    let result = match tcp_addr {
        Some(addr) => serve_tcp(
            &TcpOptions {
                addr,
                port_file,
                max_conns,
                max_accepts,
            },
            &opts,
        ),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            // Chaos adapters cover the stdin transport too (conn 0);
            // they are transparent unless a shortread/shortwrite plan
            // targets it.
            let mut reader = BufReader::new(ChaosReader::new(stdin.lock(), 0, faults));
            let mut writer = std::io::BufWriter::new(ChaosWriter::new(stdout.lock(), 0, faults));
            let mut core = ServeCore::new(opts);
            let r = serve_stream(&mut reader, &mut writer, &mut core);
            eprintln!("{}", core.stats_line());
            r
        }
    };
    if let Err(e) = result {
        eprintln!("focal-serve: {e}");
        std::process::exit(1);
    }
}
