//! The benchmark's clock: nanoseconds since one process-wide epoch, shared
//! by the generators and the tracing wrappers so client stamps and spans
//! live on one axis.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a generator needs from time. The real clock sleeps (a generator
/// never spins: a spinning one starves the replicas on a 2-core box); the
/// tests substitute a clock they can stall.
pub trait Clock {
    /// Current time, ns.
    fn now_ns(&self) -> u64;
    /// Blocks until at least `t_ns`.
    fn sleep_until(&self, t_ns: u64);
}

/// [`now_ns`] and `thread::sleep`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClock;

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        now_ns()
    }

    fn sleep_until(&self, t_ns: u64) {
        let now = now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}
