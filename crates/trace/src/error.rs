//! The error type of the trace sink's file I/O.
//!
//! Everything fallible in the sink's public API funnels through
//! [`TraceError`], which always names the file involved — a sweep that
//! dies on "Invalid argument" with no path is not debuggable at 2am.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// What went wrong in a trace file operation, and where.
#[derive(Debug)]
pub enum TraceError {
    /// An operating-system I/O failure on `path`.
    Io {
        /// The file being written.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
}

impl TraceError {
    pub(crate) fn io(path: &Path, source: io::Error) -> TraceError {
        TraceError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    /// The file the error concerns.
    pub fn path(&self) -> &Path {
        match self {
            TraceError::Io { path, .. } => path,
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io { source, .. } => Some(source),
        }
    }
}
