//! Short-read / short-write chaos adapters for the serve transports.
//!
//! Both transports wrap their streams in these adapters permanently.
//! Each adapter asks the engine's fault plan once, at construction,
//! whether it targets its connection; without such a plan it forwards
//! calls untouched (one bool test of overhead). When
//! `shortread@serve[:conn<N>]` or `shortwrite@serve[:conn<N>]` targets
//! the connection, reads are delivered at most
//! [`SHORT_READ_BYTES`] at a time and writes are accepted at most
//! [`SHORT_WRITE_BYTES`] at a time — the classic partial-syscall shapes
//! a real kernel produces under memory pressure or tiny TCP windows.
//!
//! The invariant the chaos CI job gates: short reads and writes change
//! *when* bytes move, never *which* bytes move, so every response line
//! stays byte-identical to the fault-free run. A serving stack that
//! fails this test is assuming "one read = one line" or "one write =
//! one syscall" somewhere.

use focal_engine::FaultPlan;
use std::io::{Read, Write};

/// Maximum bytes per read under a short-read fault. Seven is
/// deliberately prime and smaller than any request line, so every line
/// crosses several reads and never lands on a clean boundary.
pub const SHORT_READ_BYTES: usize = 7;

/// Maximum bytes per write under a short-write fault. Five is
/// smaller than every JSON token of interest (`false`, `":"`), so
/// framing errors cannot hide inside a single write.
pub const SHORT_WRITE_BYTES: usize = 5;

/// A reader that truncates reads to [`SHORT_READ_BYTES`] under a
/// matching `shortread@serve` fault.
#[derive(Debug)]
pub struct ChaosReader<R> {
    inner: R,
    short: bool,
}

impl<R: Read> ChaosReader<R> {
    /// Wraps `inner` for connection ordinal `conn`, shortening reads if
    /// `faults` is a `shortread@serve` plan for that connection.
    pub fn new(inner: R, conn: u64, faults: Option<&FaultPlan>) -> ChaosReader<R> {
        let short = faults.is_some_and(|plan| plan.serve_short_read(conn));
        ChaosReader { inner, short }
    }
}

impl<R: Read> Read for ChaosReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.short && buf.len() > SHORT_READ_BYTES {
            if let Some(short) = buf.get_mut(..SHORT_READ_BYTES) {
                return self.inner.read(short);
            }
        }
        self.inner.read(buf)
    }
}

/// A writer that accepts at most [`SHORT_WRITE_BYTES`] per call under a
/// matching `shortwrite@serve` fault, forcing every caller through its
/// partial-write retry path.
#[derive(Debug)]
pub struct ChaosWriter<W> {
    inner: W,
    short: bool,
}

impl<W: Write> ChaosWriter<W> {
    /// Wraps `inner` for connection ordinal `conn`, shortening writes if
    /// `faults` is a `shortwrite@serve` plan for that connection.
    pub fn new(inner: W, conn: u64, faults: Option<&FaultPlan>) -> ChaosWriter<W> {
        let short = faults.is_some_and(|plan| plan.serve_short_write(conn));
        ChaosWriter { inner, short }
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.short && buf.len() > SHORT_WRITE_BYTES {
            if let Some(short) = buf.get(..SHORT_WRITE_BYTES) {
                return self.inner.write(short);
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn disarmed_adapters_are_transparent() {
        let mut reader = ChaosReader::new(Cursor::new(b"hello world".to_vec()), 0, None);
        let mut buf = [0u8; 64];
        assert_eq!(reader.read(&mut buf).unwrap(), 11);

        let mut sink: Vec<u8> = Vec::new();
        let mut writer = ChaosWriter::new(&mut sink, 0, None);
        assert_eq!(writer.write(b"hello world").unwrap(), 11);
    }

    #[test]
    fn armed_adapters_shorten_io_but_preserve_bytes() {
        let plan = FaultPlan::parse("shortread@serve:conn0").unwrap();
        let mut reader =
            ChaosReader::new(Cursor::new(b"hello chaos world".to_vec()), 0, Some(&plan));
        let mut buf = [0u8; 64];
        assert_eq!(reader.read(&mut buf).unwrap(), SHORT_READ_BYTES);
        // A full read loop still reassembles the exact bytes.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        let mut all = buf[..SHORT_READ_BYTES].to_vec();
        all.extend_from_slice(&rest);
        assert_eq!(all, b"hello chaos world");
        // Wrong connection: untouched.
        let mut other =
            ChaosReader::new(Cursor::new(b"hello chaos world".to_vec()), 3, Some(&plan));
        assert_eq!(other.read(&mut buf).unwrap(), 17);

        let plan = FaultPlan::parse("shortwrite@serve").unwrap();
        let mut sink: Vec<u8> = Vec::new();
        {
            let mut writer = ChaosWriter::new(&mut sink, 9, Some(&plan));
            assert_eq!(
                writer.write(b"hello chaos world").unwrap(),
                SHORT_WRITE_BYTES
            );
            // write_all retries through the short writes.
            writer.write_all(b" and again").unwrap();
        }
        assert!(sink.ends_with(b" and again"));
    }
}
