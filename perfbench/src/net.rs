//! The real `focal-serve` process and the client side of one TCP
//! connection: a closed loop with a fixed window, an open loop on a
//! fixed schedule, and a `ping` for the server's cache counters.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A client read that takes longer than this fails the run instead of
/// hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

pub type Result<T> = std::result::Result<T, String>;

fn io<T>(what: &str, r: std::io::Result<T>) -> Result<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Response lines in arrival order (without their newlines).
pub struct Responses {
    lines: Vec<Vec<u8>>,
    scratch: Vec<u8>,
}

impl Responses {
    fn with_capacity(n: usize) -> Responses {
        Responses {
            lines: Vec::with_capacity(n),
            scratch: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn get(&self, i: usize) -> Option<&[u8]> {
        self.lines.get(i).map(Vec::as_slice)
    }

    /// Appends the next line from `reader`. Each line gets its own exact
    /// allocation, so a long phase never stalls on copying one growing
    /// buffer.
    fn read_from<R: BufRead>(&mut self, reader: &mut R) -> Result<()> {
        self.scratch.clear();
        let n = io("read response", reader.read_until(b'\n', &mut self.scratch))?;
        if n == 0 {
            return Err("server closed the connection early".to_string());
        }
        if self.scratch.last() == Some(&b'\n') {
            self.scratch.pop();
        }
        self.lines.push(self.scratch.clone());
        Ok(())
    }
}

/// `VmHWM` of process `pid` (`self` for this one) in kB.
pub fn peak_rss_kb(pid: &str) -> Result<u64> {
    let path = format!("/proc/{pid}/status");
    let status = io(&path, std::fs::read_to_string(&path))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// A running `focal-serve --tcp` process.
pub struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: String,
}

impl Server {
    /// Launches the server on an ephemeral port with `threads` engine
    /// threads and waits until it reports that it listens. It serves one
    /// connection and exits when that connection closes.
    pub fn spawn(bin: &Path, threads: usize) -> Result<Server> {
        let mut child = io(
            &format!("spawn {}", bin.display()),
            Command::new(bin)
                .args(["--tcp", "127.0.0.1:0", "--max-accepts", "1"])
                // The one connection lives for the whole run, which is
                // longer than the default drain deadline.
                .args(["--drain-deadline", "600000"])
                .env("FOCAL_THREADS", threads.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn(),
        )?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or("no server stderr")?);
        let mut line = String::new();
        loop {
            line.clear();
            if io("read server stderr", stderr.read_line(&mut line))? == 0 {
                let _ = child.wait();
                return Err("focal-serve exited before listening".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("focal-serve: listening on ") {
                let addr = addr.to_string();
                return Ok(Server {
                    child,
                    stderr,
                    addr,
                });
            }
        }
    }

    /// The server's peak resident set in kB.
    pub fn peak_rss_kb(&self) -> Result<u64> {
        peak_rss_kb(&self.child.id().to_string())
    }

    /// Waits for the server to exit after its connection closed.
    pub fn finish(mut self) -> Result<()> {
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        let status = io("wait for focal-serve", self.child.wait())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("focal-serve exited with {status}: {rest}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After `finish` the server has exited; on an error path it may
        // still run, and must not outlive the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn> {
        let stream = io("connect", TcpStream::connect(addr))?;
        // Small pipelined lines: Nagle plus delayed ACK would turn every
        // window into a 40 ms round trip.
        io("set nodelay", stream.set_nodelay(true))?;
        io("set timeout", stream.set_read_timeout(Some(READ_TIMEOUT)))?;
        let writer = io("clone stream", stream.try_clone())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends `lines` (each ending in a newline) with at most `window`
    /// requests in flight: whenever responses arrive, the window is
    /// refilled in one write. Returns the time from the first send to the
    /// last response, and the responses.
    pub fn closed_loop(&mut self, lines: &[&str], window: usize) -> Result<(Duration, Responses)> {
        let mut responses = Responses::with_capacity(lines.len());
        let mut pending: Vec<u8> = Vec::new();
        let mut sent = 0;
        let started = Instant::now();
        while responses.len() < lines.len() {
            let room = (responses.len() + window).min(lines.len());
            if sent < room {
                for line in &lines[sent..room] {
                    pending.extend_from_slice(line.as_bytes());
                }
                io("send", self.writer.write_all(&pending))?;
                pending.clear();
                sent = room;
            }
            // Block for one response, then take every further one that
            // has already arrived.
            loop {
                responses.read_from(&mut self.reader)?;
                if !self.reader.buffer().contains(&b'\n') {
                    break;
                }
            }
        }
        Ok((started.elapsed(), responses))
    }

    /// Sends `lines` at `rate` per second on a fixed schedule whatever
    /// the server does, timing each response from its request's
    /// scheduled send time.
    pub fn open_loop(&mut self, lines: &[&str], rate: f64) -> Result<OpenLoop> {
        let n = lines.len();
        let received = AtomicUsize::new(0);
        let gap = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now() + Duration::from_millis(5);
        let due = |i: usize| start + gap.mul_f64(i as f64);
        let reader = &mut self.reader;
        let writer = &mut self.writer;
        std::thread::scope(|scope| {
            let receiver = scope.spawn(|| -> Result<(Vec<u64>, Responses)> {
                let mut out = Responses::with_capacity(n);
                let mut latency = Vec::with_capacity(n);
                for i in 0..n {
                    out.read_from(reader)?;
                    latency.push(due(i).elapsed().as_nanos() as u64);
                    received.store(i + 1, Ordering::Relaxed);
                }
                Ok((latency, out))
            });
            let mut lag = Vec::with_capacity(n);
            let mut backlog = Vec::with_capacity(n);
            let mut sent = Ok(());
            for (i, line) in lines.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lag.push(at.elapsed().as_nanos() as u64);
                backlog.push(i - received.load(Ordering::Relaxed));
                sent = io("send", writer.write_all(line.as_bytes()));
                if sent.is_err() {
                    break;
                }
            }
            let (latency, responses) = receiver
                .join()
                .map_err(|_| "receiver thread panicked".to_string())??;
            sent?;
            Ok(OpenLoop {
                latency_ns: latency,
                send_lag_ns: lag,
                backlog,
                responses,
            })
        })
    }

    /// Sends `{"ping": true}` and returns the response line.
    pub fn ping(&mut self) -> Result<String> {
        io("send ping", self.writer.write_all(b"{\"ping\":true}\n"))?;
        let mut line = String::new();
        io("read ping", self.reader.read_line(&mut line))?;
        Ok(line)
    }
}

pub struct OpenLoop {
    pub latency_ns: Vec<u64>,
    pub send_lag_ns: Vec<u64>,
    /// Requests sent but unanswered, sampled at each send.
    pub backlog: Vec<usize>,
    pub responses: Responses,
}

impl OpenLoop {
    /// Whether the backlog grew across the phase: the last quarter's mean
    /// backlog is more than twice the first quarter's plus a slack of 32
    /// requests, so ordinary queueing jitter never trips it.
    pub fn saturated(&self) -> bool {
        let q = self.backlog.len() / 4;
        if q == 0 {
            return false;
        }
        let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
        let first = mean(&self.backlog[..q]);
        let last = mean(&self.backlog[self.backlog.len() - q..]);
        last > 2.0 * first + 32.0
    }
}
