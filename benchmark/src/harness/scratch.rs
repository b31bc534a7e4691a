//! Where the benchmark writes: everything stays under the build's target
//! directory, inside the checkout. Stores and sockets live in one
//! `gt-benchmark-<pid>/` directory removed on drop (also while unwinding);
//! the trace goes to `bench-trace/`.

use std::path::{Path, PathBuf};

/// The cargo target directory this binary was built into: `CARGO_TARGET_DIR`
/// when the caller set one (the driver does), else this package's `target/`
/// (cargo's default, since the package is its own workspace).
///
/// Returned relative to the working directory when it lies beneath it: the
/// socket transport binds Unix sockets under this path, and `sun_path` holds
/// only ~100 bytes.
pub fn target_dir() -> PathBuf {
    let dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
    };
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
        Err(_) => dir,
    }
}

/// The run's scratch directory; removed when dropped.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Create `<target>/gt-benchmark-<pid>/` and point `TMPDIR` at it, so
    /// the cluster's own temporary files (its Unix-socket mesh paths come
    /// from `std::env::temp_dir()`) stay inside the checkout too. Call
    /// before any thread is spawned.
    pub fn create() -> std::io::Result<Scratch> {
        let root = target_dir().join(format!("gt-benchmark-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        std::env::set_var("TMPDIR", &root);
        Ok(Scratch { root })
    }

    /// A fresh, empty sub-directory.
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
