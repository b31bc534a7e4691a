//! Error type shared by every store component.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the key-value store.
#[derive(Debug)]
pub enum Error {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A WAL or segment record failed its CRC check or was truncated.
    Corruption {
        /// Which file was found corrupted.
        file: String,
        /// Human-readable description of the corruption.
        detail: String,
    },
    /// A namespace name contained characters unusable as a directory name.
    InvalidNamespace(String),
    /// A record its encoder cannot represent (a length that overflows its
    /// field) was refused before anything was written.
    Unrepresentable(String),
    /// The store was already closed (e.g. a handle outlived shutdown).
    Closed,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Corruption { file, detail } => {
                write!(f, "corruption in {file}: {detail}")
            }
            Error::InvalidNamespace(name) => write!(f, "invalid namespace name: {name:?}"),
            Error::Unrepresentable(why) => write!(f, "unrepresentable record: {why}"),
            Error::Closed => write!(f, "store is closed"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// Shorthand constructor for corruption errors.
    pub fn corruption(file: impl Into<String>, detail: impl Into<String>) -> Self {
        Error::Corruption {
            file: file.into(),
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::corruption("wal.log", "bad crc");
        assert_eq!(e.to_string(), "corruption in wal.log: bad crc");
        let e = Error::InvalidNamespace("a/b".into());
        assert!(e.to_string().contains("a/b"));
    }

    #[test]
    fn io_error_source_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
