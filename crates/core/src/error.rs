//! Structured errors for training, persistence, and recovery.
//!
//! Every fallible operation in the crash-safety layer surfaces a
//! [`HignnError`] instead of panicking, and each variant maps to a
//! distinct process exit code (used by the `hignn` binary) so operators
//! and supervisors can tell an I/O failure from data corruption from
//! numeric divergence without parsing messages.

use std::fmt;
use std::io;
use std::path::Path;

/// The error type of the `hignn` crate's fallible APIs.
#[derive(Debug)]
pub enum HignnError {
    /// An operating-system I/O failure (file missing, permission,
    /// disk full). Exit code 3.
    Io {
        /// What was being accessed (usually a path).
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A file parsed but failed validation: bad magic, checksum
    /// mismatch, truncation, implausible lengths. Exit code 4.
    Corrupt {
        /// Which artifact failed (e.g. `checkpoint level 2`).
        what: String,
        /// Why it failed.
        detail: String,
    },
    /// Training produced a non-finite loss, parameter or embedding.
    /// Checked on every build; exit code 5.
    Diverged {
        /// 1-based hierarchy level that diverged.
        level: usize,
        /// 0-based epoch within that level.
        epoch: usize,
        /// What was observed (e.g. `loss = NaN`).
        detail: String,
    },
    /// Invalid configuration or usage (bad flag combination,
    /// mismatched resume inputs). Exit code 2.
    Config(String),
}

impl HignnError {
    /// Wraps an I/O error with the path or operation it came from.
    /// `InvalidData` errors are promoted to [`HignnError::Corrupt`]
    /// since that is how the readers in `io`/`serialize` report
    /// validation failures.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        let context = context.into();
        if source.kind() == io::ErrorKind::InvalidData {
            HignnError::Corrupt { what: context, detail: source.to_string() }
        } else {
            HignnError::Io { context, source }
        }
    }

    /// Shorthand for [`HignnError::io`] with a filesystem path context.
    pub fn io_path(path: &Path, source: io::Error) -> Self {
        Self::io(path.display().to_string(), source)
    }

    /// Builds a [`HignnError::Corrupt`].
    pub(crate) fn corrupt(what: impl Into<String>, detail: impl Into<String>) -> Self {
        HignnError::Corrupt { what: what.into(), detail: detail.into() }
    }

    /// The process exit code the `hignn` binary uses for this error.
    /// Distinct per failure class: 2 usage/config, 3 I/O, 4 corruption,
    /// 5 divergence.
    pub fn exit_code(&self) -> i32 {
        match self {
            HignnError::Config(_) => 2,
            HignnError::Io { .. } => 3,
            HignnError::Corrupt { .. } => 4,
            HignnError::Diverged { .. } => 5,
        }
    }
}

impl fmt::Display for HignnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HignnError::Io { context, source } => write!(f, "I/O error: {context}: {source}"),
            HignnError::Corrupt { what, detail } => {
                write!(f, "corrupt data: {what}: {detail}")
            }
            HignnError::Diverged { level, epoch, detail } => write!(
                f,
                "training diverged at level {level}, epoch {epoch}: {detail} \
                 (check the inputs for NaN/Inf; levels already checkpointed stay resumable)"
            ),
            HignnError::Config(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for HignnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HignnError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct() {
        let errors = [
            HignnError::Config("x".into()),
            HignnError::io("f", io::Error::new(io::ErrorKind::NotFound, "gone")),
            HignnError::corrupt("f", "bad crc"),
            HignnError::Diverged { level: 1, epoch: 2, detail: "NaN".into() },
        ];
        let codes: Vec<i32> = errors.iter().map(HignnError::exit_code).collect();
        assert_eq!(codes, [2, 3, 4, 5], "one distinct code per failure class");
    }

    #[test]
    fn invalid_data_promotes_to_corrupt() {
        let e = HignnError::io("model.hgh", io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
        assert!(matches!(e, HignnError::Corrupt { .. }));
        assert_eq!(e.exit_code(), 4);
        let e = HignnError::io("model.hgh", io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(matches!(e, HignnError::Io { .. }));
        assert_eq!(e.exit_code(), 3);
    }
}
