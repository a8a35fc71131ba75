//! Seed-deterministic key streams for the benchmark's load generators.
//!
//! `benchmark/` drives N client threads, each picking the keys its
//! m-operations touch. For results to be reproducible the key sequence
//! of thread `t` must depend only on `(seed, t)` — never on how many
//! other threads run, how the OS schedules them, or which platform
//! executes the binary. The stream therefore sits on a private
//! splitmix64 generator (no shared state, no library RNG whose algorithm
//! could drift) and derives one independent stream per thread index.

/// The sole PRNG behind key picking: splitmix64, chosen because its
/// output is fixed by the algorithm (stable across platforms and
/// dependency versions) and each call advances a single `u64` state.
#[derive(Debug, Clone, Copy)]
pub struct SkewRng {
    state: u64,
}

impl SkewRng {
    /// A stream fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SkewRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The key-popularity profile of a load-generator client. Uniform is the
/// only profile: it stays an enum because `benchmark/src/generator.rs`
/// names `KeySkew::Uniform` when it builds its [`KeyPicker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeySkew {
    /// Every key equally likely.
    Uniform,
}

/// A per-thread key stream: feed it the workload seed and the thread's
/// index, then call [`KeyPicker::next_key`] for each operation. The
/// sequence is a pure function of `(num_keys, seed, thread)`.
#[derive(Debug, Clone, Copy)]
pub struct KeyPicker {
    num_keys: usize,
    rng: SkewRng,
}

impl KeyPicker {
    /// A picker for `thread`'s stream of the `(skew, seed)` workload over
    /// keys `0..num_keys`.
    pub fn new(skew: KeySkew, num_keys: usize, seed: u64, thread: usize) -> Self {
        let KeySkew::Uniform = skew;
        assert!(num_keys > 0, "need at least one key");
        // Decorrelate the thread streams by running the thread index
        // through the same mixer; thread 0 is not the raw seed stream.
        let mut mixer = SkewRng::new(seed ^ (thread as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        KeyPicker {
            num_keys,
            rng: SkewRng::new(mixer.next_u64()),
        }
    }

    /// The next key of the stream.
    pub fn next_key(&mut self) -> u32 {
        (self.rng.next_u64() % self.num_keys as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(n: usize, seed: u64, thread: usize, count: usize) -> Vec<u32> {
        let mut p = KeyPicker::new(KeySkew::Uniform, n, seed, thread);
        (0..count).map(|_| p.next_key()).collect()
    }

    /// The determinism contract: the key sequence of a thread is a pure
    /// function of `(num_keys, seed, thread)` — identical across
    /// separate instantiations (separate "runs") and unaffected by how
    /// many sibling threads exist or how the OS interleaves them.
    #[test]
    fn sequences_are_deterministic_across_runs_and_thread_counts() {
        // Same (seed, thread) twice: identical sequence.
        assert_eq!(take(16, 42, 0, 256), take(16, 42, 0, 256));
        // Reference sequences computed serially...
        let serial: Vec<Vec<u32>> = (0..8).map(|t| take(16, 42, t, 256)).collect();
        // ...must match what real threads produce, for 4- and 8-thread
        // deployments alike (a thread's stream ignores the others).
        for threads in [4usize, 8] {
            let handles: Vec<_> = (0..threads)
                .map(|t| std::thread::spawn(move || take(16, 42, t, 256)))
                .collect();
            for (t, h) in handles.into_iter().enumerate() {
                assert_eq!(
                    h.join().unwrap(),
                    serial[t],
                    "thread {t} of {threads} diverged"
                );
            }
        }
        // Different seeds and different threads give different streams.
        assert_ne!(take(16, 42, 0, 256), take(16, 43, 0, 256));
        assert_ne!(take(16, 42, 0, 256), take(16, 42, 1, 256));
        // The uniform stream the benchmark's generators draw, pinned.
        let pinned: [[u32; 32]; 2] = [
            [
                4, 5, 2, 8, 9, 7, 4, 14, 15, 8, 2, 12, 2, 12, 12, 2, 1, 5, 15, 9, 3, 5, 0, 11, 8,
                10, 6, 10, 4, 13, 12, 4,
            ],
            [
                12, 14, 1, 1, 15, 10, 12, 11, 2, 10, 6, 13, 12, 1, 9, 3, 15, 13, 10, 11, 12, 5, 15,
                9, 3, 3, 7, 11, 11, 3, 6, 7,
            ],
        ];
        for (t, keys) in pinned.iter().enumerate() {
            assert_eq!(take(16, 42, t, 32), keys, "thread {t}");
        }
    }

    #[test]
    fn uniform_covers_the_keyspace_evenly() {
        let keys = take(16, 9, 0, 16_000);
        let mut counts = [0usize; 16];
        for k in &keys {
            counts[*k as usize] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&c),
                "key {k} count {c} outside uniform band"
            );
        }
    }
}
