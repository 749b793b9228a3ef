//! `mpiexec`-style process launcher for [`SocketTransport`](crate::SocketTransport) machines.
//!
//! [`launch`] spawns `n` copies of a program, giving each the environment
//! that [`SocketTransport::connect_from_env`](crate::SocketTransport::connect_from_env)
//! reads (`PMG_COMM_RANK`, `PMG_COMM_SIZE`, `PMG_COMM_DIR`), and waits for
//! all of them. The ranks rendezvous through Unix-domain sockets in the
//! shared directory; by convention rank 0 gathers and reports the result.
//!
//! The `pmg-launch` binary is a thin CLI over this:
//!
//! ```text
//! pmg-launch -n 2 [--dir /tmp/ring] -- target/debug/spheres_rank --rtol 1e-6
//! ```

use crate::CommError;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of one launched rank.
#[derive(Debug)]
pub struct RankExit {
    /// The rank this process ran as.
    pub rank: usize,
    /// Its exit status.
    pub status: ExitStatus,
}

/// Spawn `n` ranks of `program args...` wired through `dir` (a fresh
/// temporary directory when `None`), wait for all of them, and return the
/// per-rank exit statuses in rank order.
///
/// Children inherit stdout/stderr, so rank output interleaves with the
/// launcher's. The rendezvous directory is removed afterwards if this call
/// created it.
pub fn launch<S: AsRef<OsStr>>(
    n: usize,
    program: &Path,
    args: &[S],
    dir: Option<&Path>,
) -> Result<Vec<RankExit>, CommError> {
    if n == 0 {
        return Err(CommError::Invalid("cannot launch 0 ranks".into()));
    }
    let (dir, owned) = match dir {
        Some(d) => {
            std::fs::create_dir_all(d)?;
            (d.to_path_buf(), false)
        }
        None => (fresh_dir()?, true),
    };
    let mut children: Vec<Child> = Vec::with_capacity(n);
    for rank in 0..n {
        let spawned = Command::new(program)
            .args(args)
            .env("PMG_COMM_RANK", rank.to_string())
            .env("PMG_COMM_SIZE", n.to_string())
            .env("PMG_COMM_DIR", &dir)
            .spawn();
        match spawned {
            Ok(c) => children.push(c),
            Err(e) => {
                // A rank failed to start: reap the ones already running so
                // nothing leaks, then report.
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                if owned {
                    let _ = std::fs::remove_dir_all(&dir);
                }
                return Err(CommError::Io(format!(
                    "spawn rank {rank} ({}): {e}",
                    program.display()
                )));
            }
        }
    }
    let mut exits = Vec::with_capacity(n);
    for (rank, mut c) in children.into_iter().enumerate() {
        let status = c.wait()?;
        exits.push(RankExit { rank, status });
    }
    if owned {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(exits)
}

/// A unique rendezvous directory under the system temp dir.
fn fresh_dir() -> Result<PathBuf, CommError> {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "pmg-launch-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d)?;
    Ok(d)
}
