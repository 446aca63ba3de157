//! Set-associative LRU cache simulator.
//!
//! Used to measure the L1/L2 hit rates of the aggregation phase. The paper
//! reports (Table 2) that irregular neighbour accesses achieve only ~4 % L1
//! and ~20 % L2 hit rates on real hardware; this simulator reproduces those
//! numbers from the actual access streams of sampled subgraphs.

/// Geometry of a simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A cache with the given capacity, 128-byte lines, 8 ways.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            line_bytes: 128,
            ways: 8,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero capacity, line size, or
    /// ways, or capacity smaller than one way of lines).
    pub fn num_sets(&self) -> usize {
        assert!(self.line_bytes > 0 && self.ways > 0, "degenerate cache");
        let lines = (self.capacity_bytes / self.line_bytes) as usize;
        let sets = lines / self.ways;
        assert!(sets > 0, "cache too small for its associativity");
        sets
    }
}

/// Running hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// # Example
///
/// ```
/// use fastgl_gpusim::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { capacity_bytes: 1024, line_bytes: 64, ways: 2 });
/// assert!(!c.access(0));   // cold miss
/// assert!(c.access(32));   // same line: hit
/// assert_eq!(c.stats().hit_rate(), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    num_sets: usize,
    /// `sets[s]` holds the resident line tags of set `s` in LRU order,
    /// most-recently-used last.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        Self {
            config,
            num_sets,
            sets: vec![Vec::with_capacity(config.ways); num_sets],
            stats: CacheStats::default(),
        }
    }

    /// Accesses one byte address; returns `true` on hit. Misses insert the
    /// line, evicting the least-recently-used line of the set if full.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes;
        let set_idx = (line % self.num_sets as u64) as usize;
        let tag = line / self.num_sets as u64;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.push(t);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.config.ways {
                set.remove(0);
            }
            set.push(tag);
            self.stats.misses += 1;
            false
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 64 bytes, 2 ways => 2 sets.
        Cache::new(CacheConfig {
            capacity_bytes: 256,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (line % 2 == 0).
        c.access(0); // miss, set0 = [0]
        c.access(128); // miss, set0 = [0, 2]
        c.access(0); // hit,  set0 = [2, 0]
        c.access(256); // miss, evicts line 2, set0 = [0, 4]
        assert!(c.access(0), "line 0 should survive (was MRU)");
        assert!(!c.access(128), "line 2 was LRU and evicted");
    }

    #[test]
    fn capacity_working_set_all_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig {
            capacity_bytes: 8192,
            line_bytes: 64,
            ways: 4,
        });
        for addr in (0..8192).step_by(64) {
            assert!(!c.access(addr), "cold cache hit {addr}");
        }
        let before = c.stats();
        for addr in (0..8192).step_by(64) {
            assert!(c.access(addr));
        }
        let after = c.stats();
        assert_eq!(after.hits - before.hits, 128);
    }

    #[test]
    fn streaming_over_capacity_never_hits() {
        let mut c = tiny();
        for addr in (0..64 * 1024).step_by(64) {
            c.access(addr);
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = tiny();
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        let r = c.stats().hit_rate();
        assert!(r > 0.0 && r < 1.0);
    }

    #[test]
    #[should_panic(expected = "cache too small")]
    fn degenerate_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            capacity_bytes: 64,
            line_bytes: 64,
            ways: 2,
        });
    }

    #[test]
    fn config_accessors() {
        let c = tiny();
        assert_eq!(c.config().ways, 2);
        assert_eq!(c.config().num_sets(), 2);
    }
}
