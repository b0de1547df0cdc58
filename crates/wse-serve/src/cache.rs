//! The compiled-program cache.
//!
//! Wafer program construction — operator assembly, layout, routing, task
//! compilation, and the lint gate — dominates turnaround for repeat
//! shapes. Builds are deterministic functions of the [`ProgramKey`] (the
//! determinism test proves byte-identical images), so caching by key is
//! sound: a hit returns the *same bytes* a fresh compile would have
//! produced, and skips builder and lint entirely.

use crate::key::ProgramKey;
use crate::program::{AdmitError, CompiledProgram};
use std::collections::HashMap;

/// Hit/miss counters for the cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cold compiles (misses that ran builder + lint).
    pub cold: usize,
    /// Hits served from the cache.
    pub hits: usize,
    /// Compiles refused by admission (not cached; counted separately).
    pub rejected: usize,
}

impl CacheStats {
    /// Hits as a fraction of all successful lookups, `0.0` when empty.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cold + self.hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A map from [`ProgramKey`] to verified [`CompiledProgram`] images.
///
/// There is no eviction: a service run touches a handful of shapes, and an
/// image is a region-sized fabric (a few tiles of SRAM), so the cache is
/// tiny next to the machine it serves.
#[derive(Default)]
pub struct ProgramCache {
    map: HashMap<ProgramKey, CompiledProgram>,
    stats: CacheStats,
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// Returns the compiled program for `key`, compiling (and lint-gating)
    /// it on a miss. The boolean is `true` on a hit. Admission rejections
    /// are not cached — a rejected key re-runs the gate if resubmitted,
    /// which keeps the error fresh and costs nothing on the shared fabric.
    pub fn get_or_compile(
        &mut self,
        key: &ProgramKey,
    ) -> Result<(&CompiledProgram, bool), AdmitError> {
        if self.map.contains_key(key) {
            self.stats.hits += 1;
            return Ok((&self.map[key], true));
        }
        match CompiledProgram::compile(key) {
            Ok(program) => {
                self.stats.cold += 1;
                Ok((self.map.entry(*key).or_insert(program), false))
            }
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    /// Lookup without compiling.
    pub fn peek(&self, key: &ProgramKey) -> Option<&CompiledProgram> {
        self.map.get(key)
    }

    /// Number of distinct cached programs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no programs.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::StencilKind;

    #[test]
    fn second_lookup_is_a_hit_with_the_same_digest() {
        let mut cache = ProgramCache::new();
        let key = ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::Laplace9);
        let (first, hit) = cache.get_or_compile(&key).map(|(p, h)| (p.digest(), h)).unwrap();
        assert!(!hit);
        let (second, hit) = cache.get_or_compile(&key).map(|(p, h)| (p.digest(), h)).unwrap();
        assert!(hit);
        assert_eq!(first, second);
        assert_eq!(cache.stats(), CacheStats { cold: 1, hits: 1, rejected: 0 });
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_compile_separately() {
        let mut cache = ProgramCache::new();
        let a = ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::Laplace9);
        let b = ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(1.0, 0.0));
        cache.get_or_compile(&a).unwrap();
        cache.get_or_compile(&b).unwrap();
        assert_eq!(cache.stats().cold, 2);
        assert_eq!(cache.len(), 2);
        assert_ne!(cache.peek(&a).unwrap().digest(), cache.peek(&b).unwrap().digest());
    }

    #[test]
    fn rejections_are_counted_and_not_cached() {
        let mut cache = ProgramCache::new();
        let big = ProgramKey::bicgstab2d((96, 96), (48, 48), StencilKind::Laplace9);
        assert!(cache.get_or_compile(&big).is_err());
        assert!(cache.get_or_compile(&big).is_err());
        assert_eq!(cache.stats().rejected, 2);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }
}
