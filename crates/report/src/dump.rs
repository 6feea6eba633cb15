//! Namespaced artifact dumps under one `--dump-dir` root.
//!
//! Three producers write artifacts during a run and must never collide
//! or interleave, so each gets its own subdirectory of the dump root:
//!
//! * `registry/<figure-id>.csv` — hand-coded figure dumps (the oracle
//!   artifacts DSL twins are byte-compared against);
//! * `scenarios/<scenario-id>.{csv,txt}` — DSL scenario evaluations;
//! * `serve/<request-id>.json` — serve response transcripts, one file
//!   per request, named by the (sanitized) client request id.
//!
//! A DSL twin deliberately reuses the id of the figure it mirrors and a
//! serve client can name requests after scenarios, so flat files under
//! the root would clobber each other; the namespace split is what makes
//! the three producers safely composable
//! (`crates/bench/tests/dump_namespaces.rs` pins non-interleaving).
//!
//! Request ids come off the wire, so [`sanitize_id`] maps them onto a
//! conservative filename alphabet before they touch the filesystem —
//! `../../etc/passwd` becomes `.._.._etc_passwd`, staying inside the
//! namespace.

use std::io;
use std::path::{Path, PathBuf};

/// The `registry/` namespace (hand-coded figure dumps).
pub const NS_REGISTRY: &str = "registry";
/// The `scenarios/` namespace (DSL scenario dumps).
pub const NS_SCENARIOS: &str = "scenarios";
/// The `serve/` namespace (serve response transcripts).
pub const NS_SERVE: &str = "serve";

/// Maps an untrusted id onto the filename alphabet `[A-Za-z0-9._-]`
/// (anything else becomes `_`), so wire-supplied ids cannot escape
/// their dump namespace or embed separators. Empty ids become `"_"`.
#[must_use]
pub fn sanitize_id(id: &str) -> String {
    if id.is_empty() {
        return "_".to_string();
    }
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// One `--dump-dir` root with lazily created namespace subdirectories.
#[derive(Debug, Clone)]
pub struct DumpDir {
    root: PathBuf,
}

impl DumpDir {
    /// Wraps `root` (not created until the first write).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> DumpDir {
        DumpDir { root: root.into() }
    }

    /// The dump root.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where [`DumpDir::write`] puts an artifact, relative to the root:
    /// `<namespace>/<sanitized name>.<ext>`.
    #[must_use]
    pub fn relative_path(namespace: &str, name: &str, ext: &str) -> String {
        format!("{namespace}/{}.{ext}", sanitize_id(name))
    }

    /// Writes one artifact into `namespace` as `<name>.<ext>`,
    /// creating the namespace directory on first use. `name` is
    /// sanitized; `namespace` and `ext` are caller-controlled
    /// constants.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the directory or writing the file.
    pub fn write(
        &self,
        namespace: &str,
        name: &str,
        ext: &str,
        bytes: &[u8],
    ) -> io::Result<PathBuf> {
        std::fs::create_dir_all(self.root.join(namespace))?;
        let path = self.root.join(DumpDir::relative_path(namespace, name, ext));
        std::fs::write(&path, bytes)?;
        Ok(path)
    }

    /// Writes a serve transcript: `serve/<request-id>.json`.
    ///
    /// # Errors
    ///
    /// See [`DumpDir::write`].
    pub fn write_serve(&self, request_id: &str, response_line: &str) -> io::Result<PathBuf> {
        let mut bytes = response_line.as_bytes().to_vec();
        if !response_line.ends_with('\n') {
            bytes.push(b'\n');
        }
        self.write(NS_SERVE, request_id, "json", &bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_hostile_ids_into_the_namespace() {
        assert_eq!(sanitize_id("p0-r12"), "p0-r12");
        assert_eq!(sanitize_id("../../etc/passwd"), ".._.._etc_passwd");
        assert_eq!(sanitize_id("a b\"c"), "a_b_c");
        assert_eq!(sanitize_id(""), "_");
    }

    #[test]
    fn namespaces_land_in_their_own_subdirs() {
        let root = std::env::temp_dir().join(format!("focal-dump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dump = DumpDir::new(&root);
        let a = dump.write(NS_REGISTRY, "fig3", "csv", b"x,y\n").unwrap();
        let b = dump.write(NS_SCENARIOS, "fig3", "csv", b"x,y\n").unwrap();
        let c = dump.write_serve("fig3", "{\"ok\":true}").unwrap();
        assert!(a.ends_with("registry/fig3.csv"));
        assert!(b.ends_with("scenarios/fig3.csv"));
        assert!(c.ends_with("serve/fig3.json"));
        assert_eq!(std::fs::read_to_string(c).unwrap(), "{\"ok\":true}\n");
        let _ = std::fs::remove_dir_all(&root);
    }
}
