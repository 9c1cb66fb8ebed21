//! Process-wide program cache: link each generated shader once, share the
//! linked [`Program`] across every compute context and worker thread.
//!
//! A [`crate::ComputeContext`] already memoises programs per context
//! (PR 3's compile/bind split). A server-style deployment runs *N* worker
//! contexts, and without sharing each worker would relink the same kernel
//! mix — N× the link work for identical bytecode. `SharedProgramCache`
//! lifts the cache to the process: it is `Arc`-held, interior-mutexed,
//! and keyed by the generated `vertex\0fragment` source exactly like the
//! per-context cache, so a kernel built on any worker links at most once
//! process-wide. The cached value is a pristine linked
//! [`Program`] whose checked shaders and lowered bytecode stages are
//! `Arc`-shared ([`gpes_gles2::Program::fragment_executable_shared`]);
//! installing it into a context clones only the cheap interface tables.
//!
//! Both levels are bounded. This cache is a [`FifoCache`] of
//! [`SharedProgramCache::with_capacity`] entries. Each context keeps at
//! most [`crate::PROGRAM_CACHE_CAP`] programs of its own, and deletes an
//! evicted program from GL as soon as no kernel built on it is alive.
//!
//! This is the CNNdroid / TFLite-delegate amortisation argument applied
//! across contexts and threads instead of across iterations.

use crate::error::ComputeError;
use gpes_gles2::{Limits, Program};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Counters for a [`SharedProgramCache`] — the process-wide complement of
/// [`crate::ContextStats`].
///
/// `links` is the number the a10 ablation locks down: with the shared
/// cache in front of N workers it must stay constant as N grows, and must
/// not grow at all once the kernel mix has been warmed up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Programs actually compiled and linked (cache misses that did the
    /// work).
    pub links: u64,
    /// Lookups served from the cache without linking.
    pub hits: u64,
    /// Lookups that found no entry (every miss becomes a link unless the
    /// link itself fails).
    pub misses: u64,
    /// Entries discarded to keep the cache within its capacity bound.
    pub evictions: u64,
}

/// A bounded insertion-order (FIFO) map: inserting past `capacity`
/// evicts the oldest entries, which are **returned** to the caller so
/// site-specific retirement (recycling a texture, counting an eviction)
/// stays at the call site. One implementation behind the shared program
/// cache and both engine worker caches (pipelines, residencies), so the
/// eviction bookkeeping cannot drift between them.
pub(crate) struct FifoCache<K, V> {
    map: HashMap<K, V>,
    /// Keys in insertion order; the front is the next eviction, so
    /// staying within capacity is O(1) instead of a min-scan per insert.
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: std::hash::Hash + Eq + Clone, V> FifoCache<K, V> {
    pub(crate) fn new(capacity: usize) -> FifoCache<K, V> {
        FifoCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    pub(crate) fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts the entry and returns whatever was evicted to stay within
    /// capacity (never the entry just inserted, which joins at the back).
    pub(crate) fn insert(&mut self, key: K, value: V) -> Vec<(K, V)> {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
        }
        let mut evicted = Vec::new();
        while self.map.len() > self.capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    if let Some(value) = self.map.remove(&oldest) {
                        evicted.push((oldest, value));
                    }
                }
                None => break,
            }
        }
        evicted
    }

    /// Removes and returns every entry matching the predicate.
    pub(crate) fn extract_if(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> Vec<(K, V)> {
        let keys: Vec<K> = self
            .map
            .iter()
            .filter(|(k, v)| pred(k, v))
            .map(|(k, _)| k.clone())
            .collect();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(value) = self.map.remove(&key) {
                out.push((key, value));
            }
        }
        if !out.is_empty() {
            self.order.retain(|k| self.map.contains_key(k));
        }
        out
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Removes and returns every entry, oldest first.
    pub(crate) fn drain(&mut self) -> Vec<(K, V)> {
        let map = &mut self.map;
        self.order
            .drain(..)
            .filter_map(|key| map.remove(&key).map(|value| (key, value)))
            .collect()
    }
}

struct Inner {
    /// `vs \0 fs` source → linked program.
    cache: FifoCache<String, Arc<Program>>,
    stats: SharedCacheStats,
}

/// A thread-safe, process-wide cache of linked shader programs.
///
/// Cloneable via `Arc`; all methods take `&self`. Linking happens while
/// the interior mutex is held, which is what makes the concurrency
/// guarantee exact: when N threads race to build the same kernel, one
/// links and N−1 observe the finished entry — never N links, never a
/// torn entry.
///
/// # Example
///
/// ```
/// use gpes_core::{cache::SharedProgramCache, ComputeContext};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), gpes_core::ComputeError> {
/// let cache = Arc::new(SharedProgramCache::new());
/// let mut a = ComputeContext::new(16, 16)?;
/// let mut b = ComputeContext::new(16, 16)?;
/// a.set_shared_program_cache(Arc::clone(&cache));
/// b.set_shared_program_cache(Arc::clone(&cache));
/// // Identical kernels built on `a` and `b` now link exactly once.
/// # Ok(())
/// # }
/// ```
pub struct SharedProgramCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

/// Default capacity: generous for any realistic kernel mix, small enough
/// that a pathological source-per-request workload cannot retain linked
/// programs without bound.
pub const DEFAULT_SHARED_CACHE_CAPACITY: usize = 512;

impl SharedProgramCache {
    /// Creates a cache with the default capacity bound.
    pub fn new() -> SharedProgramCache {
        SharedProgramCache::with_capacity(DEFAULT_SHARED_CACHE_CAPACITY)
    }

    /// Creates a cache holding at most `capacity` linked programs;
    /// inserting beyond that evicts the oldest entries first.
    pub fn with_capacity(capacity: usize) -> SharedProgramCache {
        SharedProgramCache {
            inner: Mutex::new(Inner {
                cache: FifoCache::new(capacity),
                stats: SharedCacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Returns the cached program for `vs`/`fs`, linking (and caching) it
    /// on first sight. The link runs under the cache lock so concurrent
    /// requests for one source produce exactly one link.
    ///
    /// The `limits` and `strict` flag are part of the cache key: a
    /// program linked under a permissive driver must not be served to a
    /// context simulating a strict (Appendix-A) or tighter-limits
    /// driver, where the same source might not link at all.
    ///
    /// # Errors
    ///
    /// Compile/link diagnostics from the GL layer. Failures are not
    /// cached; a later call retries the link.
    pub fn get_or_link(
        &self,
        vs: &str,
        fs: &str,
        limits: &Limits,
        strict: bool,
    ) -> Result<Arc<Program>, ComputeError> {
        let key = program_key(vs, fs, limits, strict);
        let mut inner = self.inner.lock().expect("shared program cache poisoned");
        if let Some(program) = inner.cache.get(&key) {
            let program = Arc::clone(program);
            inner.stats.hits += 1;
            return Ok(program);
        }
        inner.stats.misses += 1;
        let program = Arc::new(Program::link_with(vs, fs, limits, strict)?);
        inner.stats.links += 1;
        // FIFO eviction past capacity: evicted entries still referenced
        // elsewhere stay alive through their `Arc`s; the cache just stops
        // advertising them.
        inner.stats.evictions += inner.cache.insert(key, Arc::clone(&program)).len() as u64;
        Ok(program)
    }

    /// Snapshot of the hit/miss/link/eviction counters.
    pub fn stats(&self) -> SharedCacheStats {
        self.inner
            .lock()
            .expect("shared program cache poisoned")
            .stats
    }

    /// Number of programs currently cached.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("shared program cache poisoned")
            .cache
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound this cache evicts towards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every cached entry (outstanding `Arc` handles stay valid).
    pub fn clear(&self) {
        self.inner
            .lock()
            .expect("shared program cache poisoned")
            .cache
            .clear();
    }

    /// Evicts one entry by exact key, if cached. Used by the kernel
    /// registry for *tenant-scoped* eviction: retiring a tenant's kernel
    /// removes exactly that tenant's program, never a neighbour's.
    /// Outstanding `Arc` handles (programs already adopted by worker
    /// contexts) stay valid. Returns whether an entry was removed.
    pub(crate) fn remove_key(&self, key: &str) -> bool {
        let mut inner = self.inner.lock().expect("shared program cache poisoned");
        let removed = !inner.cache.extract_if(|k, _| k == key).is_empty();
        if removed {
            inner.stats.evictions += 1;
        }
        removed
    }
}

/// The process-wide program identity: source + driver limits + strictness.
/// This string *is* the fingerprint the serving registry hands back for a
/// dynamically registered kernel — two registrations with equal keys share
/// one linked program no matter which tenant or worker triggers the link.
pub(crate) fn program_key(vs: &str, fs: &str, limits: &Limits, strict: bool) -> String {
    format!(
        "{strict}\u{0}{}:{}:{}:{}\u{0}{vs}\u{0}{fs}",
        limits.max_texture_size,
        limits.max_texture_units,
        limits.max_varying_vectors,
        limits.max_vertex_attribs,
    )
}

impl Default for SharedProgramCache {
    fn default() -> SharedProgramCache {
        SharedProgramCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry;

    fn fs(body: &str) -> String {
        format!("precision highp float;\nvoid main() {{ gl_FragColor = vec4({body}); }}\n")
    }

    #[test]
    fn second_lookup_hits_without_linking() {
        let cache = SharedProgramCache::new();
        let vs = geometry::passthrough_vertex_shader();
        let a = cache
            .get_or_link(&vs, &fs("0.5"), &Limits::default(), false)
            .expect("link");
        let b = cache
            .get_or_link(&vs, &fs("0.5"), &Limits::default(), false)
            .expect("hit");
        assert!(Arc::ptr_eq(&a, &b), "both handles share one program");
        let stats = cache.stats();
        assert_eq!((stats.links, stats.hits, stats.misses), (1, 1, 1));
    }

    #[test]
    fn link_errors_are_not_cached() {
        let cache = SharedProgramCache::new();
        let vs = geometry::passthrough_vertex_shader();
        let bad = "precision highp float;\nvoid main() { gl_FragColor = nonsense(); }\n";
        assert!(cache
            .get_or_link(&vs, bad, &Limits::default(), false)
            .is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().links, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn strict_and_limits_partition_the_cache() {
        // A shader a permissive driver links but Appendix A rejects: the
        // non-strict entry must never be served to a strict context.
        let cache = SharedProgramCache::new();
        let vs = geometry::passthrough_vertex_shader();
        let dynamic = "precision highp float;\nuniform float u_n;\n\
             void main() {\n\
               float acc = 0.0;\n\
               for (float i = 0.0; i < u_n; i += 1.0) { acc += 1.0; }\n\
               gl_FragColor = vec4(acc);\n\
             }";
        cache
            .get_or_link(&vs, dynamic, &Limits::default(), false)
            .expect("permissive link");
        assert!(
            cache
                .get_or_link(&vs, dynamic, &Limits::default(), true)
                .is_err(),
            "strict lookup must revalidate, not hit the permissive entry"
        );
        // Distinct limits are distinct entries too.
        let small = Limits {
            max_texture_size: 64,
            ..Limits::default()
        };
        cache
            .get_or_link(&vs, &fs("0.5"), &Limits::default(), false)
            .expect("default limits");
        cache
            .get_or_link(&vs, &fs("0.5"), &small, false)
            .expect("small limits");
        assert_eq!(cache.stats().links, 3);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let cache = SharedProgramCache::with_capacity(2);
        let vs = geometry::passthrough_vertex_shader();
        for body in ["0.1", "0.2", "0.3"] {
            cache
                .get_or_link(&vs, &fs(body), &Limits::default(), false)
                .expect("link");
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The oldest ("0.1") was evicted: fetching it again relinks…
        cache
            .get_or_link(&vs, &fs("0.1"), &Limits::default(), false)
            .expect("relink");
        assert_eq!(cache.stats().links, 4);
        // …while the newest survivor ("0.3") still hits.
        cache
            .get_or_link(&vs, &fs("0.3"), &Limits::default(), false)
            .expect("hit");
        assert_eq!(cache.stats().hits, 1);
    }
}
