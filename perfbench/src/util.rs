//! Small self-contained helpers: a seeded generator for the benchmark's
//! own inputs, an FNV-1a digest for output identity, and order
//! statistics.

/// splitmix64: the benchmark's input generator. Every input a workload
/// makes is a pure function of `--seed` through this stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Standard normal (Box–Muller, one draw per call).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// The splitmix64 finalizer, also used to derive sub-seeds.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sub-seed for stream `lane`, item `i` of the benchmark seed.
pub fn derive(seed: u64, lane: u64, i: u64) -> u64 {
    mix(mix(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407)) ^ i)
}

/// FNV-1a over 64-bit words: the output digest that traced and
/// untraced runs (and repeated passes) must agree on.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0
/// for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeated measurements of each item (a world, a walk, a round) of the
/// fixed set a workload cycles through. On a shared host other tenants
/// slow stretches of a run at random, by up to 1.7x for seconds at a
/// time. Every item is summarized by its fastest repeat, which varies
/// least from run to run: timed sets are small enough that each item is
/// repeated tens of times and meets some quiet stretch.
#[derive(Debug)]
pub struct Repeats {
    samples: Vec<Vec<f64>>,
}

impl Repeats {
    pub fn new(items: usize) -> Self {
        Repeats {
            samples: vec![Vec::new(); items],
        }
    }

    pub fn record(&mut self, item: usize, value: f64) {
        self.samples[item].push(value);
    }

    /// The fastest repeat of every item measured at least once.
    pub fn fastest(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }
}
