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
//! Both levels are bounded. This cache is a `FifoCache` of
//! [`SharedProgramCache::with_capacity`] entries. Each context keeps at
//! most [`crate::PROGRAM_CACHE_CAP`] programs of its own, and deletes an
//! evicted program from GL as soon as no kernel built on it is alive.
//!
//! Beside the programs sits an **admission table**: fragment source →
//! the shader a strict admission ([`SharedProgramCache::admit`]) checked,
//! held as a [`Weak`] reference. It is keyed by one keyed hash of the
//! source per lookup and compares the bytes on a hit. A source that is
//! admitted again while its shader is alive — held by a registration, or
//! by a program a worker still caches — skips the front end, and a
//! program miss whose fragment source is in the table links the admitted
//! shader ([`Program::link_lowered`]) without compiling it again. The
//! table keeps nothing alive by itself, so it needs no capacity bound: an
//! insert that finds the table at twice the live size its last sweep
//! left sweeps out the dead entries, so sweeping costs O(1) per insert.
//!
//! Every kernel links the same pass-through vertex shader, so the cache
//! also keeps the last vertex shader it compiled, and its bytecode: a
//! link compiles its fragment shader at most, and an admitted one not at
//! all. A generated fragment source is checked after its codec prelude
//! ([`crate::kernel::codec_prelude`]), so only the kernel's own lines go
//! through the front end.
//!
//! This is the CNNdroid / TFLite-delegate amortisation argument applied
//! across contexts and threads instead of across iterations.

use crate::error::ComputeError;
use crate::serve::metrics::lock_recover;
use gpes_gles2::{GlError, Limits, Program};
use gpes_glsl::admission::{self, AdmissionDiagnostic};
use gpes_glsl::{compile_after, CheckedPrelude, CompiledShader, Executable, ShaderKind};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::{Arc, Mutex, Weak};

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
    /// Fragment front-end runs at admission: sources admitted (or
    /// rejected) by [`SharedProgramCache::admit`] because no live
    /// admitted shader had the same bytes.
    pub admissions: u64,
    /// Admissions served from a live admitted shader without running the
    /// front end.
    pub admission_hits: u64,
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
    /// The last vertex shader a link compiled.
    vertex: Option<CachedVertex>,
    stats: SharedCacheStats,
}

/// A vertex shader a link compiled: its source, whether it was compiled
/// strictly, the checked shader and its bytecode.
struct CachedVertex {
    source: String,
    strict: bool,
    shader: Arc<CompiledShader>,
    exe: Arc<Executable>,
}

impl Inner {
    /// The checked and lowered vertex shader `vs`, compiled and lowered
    /// only when it is not the one the last link used.
    fn vertex(
        &mut self,
        vs: &str,
        strict: bool,
    ) -> Result<(Arc<CompiledShader>, Arc<Executable>), GlError> {
        if let Some(cached) = &self.vertex {
            if cached.source == vs && cached.strict == strict {
                return Ok((Arc::clone(&cached.shader), Arc::clone(&cached.exe)));
            }
        }
        let shader = Arc::new(compile_after(None, ShaderKind::Vertex, vs, strict)?);
        let exe = gpes_glsl::lower_shared(&shader)?;
        self.vertex = Some(CachedVertex {
            source: vs.to_owned(),
            strict,
            shader: Arc::clone(&shader),
            exe: Arc::clone(&exe),
        });
        Ok((shader, exe))
    }
}

/// Table size below which an insert never sweeps the admission table.
const ADMITTED_SWEEP_FLOOR: usize = 32;

/// Hashes an admission-table key, already a keyed hash of the source, as
/// itself.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("admission-table keys are u64s")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// The admission table: fragment source → the shader its strict
/// admission produced, for as long as something else holds that shader.
/// Keyed by a keyed hash of the source ([`SharedProgramCache::source_key`])
/// computed once per lookup; an entry keeps the source bytes, compared on
/// a hit. Two sources with one key take turns in the entry.
#[derive(Default)]
struct Admitted {
    shaders: HashMap<u64, (Box<str>, Weak<CompiledShader>), BuildHasherDefault<KeyHasher>>,
    /// Table size at which the next insert sweeps out dead entries.
    sweep_at: usize,
    admissions: u64,
    hits: u64,
}

impl Admitted {
    fn live(&self, key: u64, fs: &str) -> Option<Arc<CompiledShader>> {
        match self.shaders.get(&key) {
            Some((source, shader)) if **source == *fs => shader.upgrade(),
            _ => None,
        }
    }

    /// Records `shader` as `source`'s admission. The table is swept when
    /// it has doubled since the last sweep, so it stays within twice its
    /// live entries (or the floor) at O(1) amortised cost per insert.
    fn insert(&mut self, key: u64, source: &str, shader: &Arc<CompiledShader>) {
        if self.shaders.len() >= self.sweep_at {
            self.shaders
                .retain(|_, (_, shader)| shader.strong_count() > 0);
            self.sweep_at = (2 * self.shaders.len()).max(ADMITTED_SWEEP_FLOOR);
        }
        self.shaders
            .insert(key, (source.into(), Arc::downgrade(shader)));
    }
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
    /// Its own lock, so admission never waits on a link.
    admitted: Mutex<Admitted>,
    /// The admission table's hash keys: std's keyed SipHash, because
    /// tenants choose the bytes.
    source_keys: RandomState,
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
                vertex: None,
                stats: SharedCacheStats::default(),
            }),
            admitted: Mutex::new(Admitted::default()),
            source_keys: RandomState::new(),
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
    /// A miss whose fragment source has a live admitted shader (see
    /// [`SharedProgramCache::admit`]) links that shader: strict admission
    /// accepts a subset of what either front end accepts, and yields the
    /// same checked shader. Any other miss checks `fs` after `fs_prelude`
    /// when it begins with the prelude's text
    /// ([`gpes_glsl::compile_after`]). `vs` is compiled and lowered only
    /// when the previous link used another vertex shader (or
    /// strictness).
    ///
    /// # Errors
    ///
    /// Compile/link diagnostics from the GL layer. Failures are not
    /// cached; a later call retries the link.
    pub fn get_or_link(
        &self,
        vs: &str,
        fs: &str,
        fs_prelude: Option<&Arc<CheckedPrelude>>,
        limits: &Limits,
        strict: bool,
    ) -> Result<Arc<Program>, ComputeError> {
        let key = program_key(vs, fs, limits, strict);
        let mut inner = lock_recover(&self.inner);
        if let Some(program) = inner.cache.get(&key) {
            let program = Arc::clone(program);
            inner.stats.hits += 1;
            return Ok(program);
        }
        inner.stats.misses += 1;
        let (vertex, vertex_exe) = inner.vertex(vs, strict)?;
        let admitted = lock_recover(&self.admitted).live(self.source_key(fs), fs);
        let fragment = match admitted {
            Some(fragment) => fragment,
            None => Arc::new(
                compile_after(fs_prelude, ShaderKind::Fragment, fs, strict)
                    .map_err(GlError::from)?,
            ),
        };
        let program = Arc::new(Program::link_lowered(vertex, vertex_exe, fragment, limits)?);
        inner.stats.links += 1;
        // FIFO eviction past capacity: evicted entries still referenced
        // elsewhere stay alive through their `Arc`s; the cache just stops
        // advertising them.
        inner.stats.evictions += inner.cache.insert(key, Arc::clone(&program)).len() as u64;
        Ok(program)
    }

    /// Strictly admits fragment shader `source`
    /// ([`gpes_glsl::admission::admit_after`]: preprocess → parse →
    /// Appendix A → sema, of only what follows `prelude`'s text when
    /// `source` begins with it), or returns the shader an earlier
    /// admission of the same bytes produced, if that shader is still
    /// alive. The source is hashed once per call and copied only into a
    /// new entry. Only accepted sources enter the table; a rejection runs
    /// the front end every time. The table holds [`Weak`] references:
    /// keeping the returned shader (or a program linked from it) alive is
    /// what lets the next admission of `source` skip the front end.
    ///
    /// # Errors
    ///
    /// The stage-tagged [`AdmissionDiagnostic`] of the first stage that
    /// refused `source`.
    pub fn admit(
        &self,
        source: &str,
        prelude: Option<&Arc<CheckedPrelude>>,
    ) -> Result<Arc<CompiledShader>, AdmissionDiagnostic> {
        let key = self.source_key(source);
        {
            let mut admitted = lock_recover(&self.admitted);
            if let Some(shader) = admitted.live(key, source) {
                admitted.hits += 1;
                return Ok(shader);
            }
            admitted.admissions += 1;
        }
        let shader = Arc::new(admission::admit_after(
            prelude,
            ShaderKind::Fragment,
            source,
        )?);
        lock_recover(&self.admitted).insert(key, source, &shader);
        Ok(shader)
    }

    /// The admission table's key for `source`.
    fn source_key(&self, source: &str) -> u64 {
        self.source_keys.hash_one(source)
    }

    /// Snapshot of the link and admission counters.
    pub fn stats(&self) -> SharedCacheStats {
        let stats = lock_recover(&self.inner).stats;
        let admitted = lock_recover(&self.admitted);
        SharedCacheStats {
            admissions: admitted.admissions,
            admission_hits: admitted.hits,
            ..stats
        }
    }

    /// Number of programs currently cached.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).cache.len()
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
        lock_recover(&self.inner).cache.clear();
    }

    /// Evicts one entry by exact key, if cached. Used by the kernel
    /// registry for *tenant-scoped* eviction: retiring a tenant's kernel
    /// removes exactly that tenant's program, never a neighbour's.
    /// Outstanding `Arc` handles (programs already adopted by worker
    /// contexts) stay valid. Returns whether an entry was removed.
    pub(crate) fn remove_key(&self, key: &str) -> bool {
        let mut inner = lock_recover(&self.inner);
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
            .get_or_link(&vs, &fs("0.5"), None, &Limits::default(), false)
            .expect("link");
        let b = cache
            .get_or_link(&vs, &fs("0.5"), None, &Limits::default(), false)
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
            .get_or_link(&vs, bad, None, &Limits::default(), false)
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
            .get_or_link(&vs, dynamic, None, &Limits::default(), false)
            .expect("permissive link");
        assert!(
            cache
                .get_or_link(&vs, dynamic, None, &Limits::default(), true)
                .is_err(),
            "strict lookup must revalidate, not hit the permissive entry"
        );
        // Distinct limits are distinct entries too.
        let small = Limits {
            max_texture_size: 64,
            ..Limits::default()
        };
        cache
            .get_or_link(&vs, &fs("0.5"), None, &Limits::default(), false)
            .expect("default limits");
        cache
            .get_or_link(&vs, &fs("0.5"), None, &small, false)
            .expect("small limits");
        assert_eq!(cache.stats().links, 3);
        assert_eq!(cache.stats().hits, 0);
    }

    /// Builds and runs `2x - 1` on a fresh 16×16 context, through
    /// `cache` when given. Returns the output bits and the kernel's
    /// fragment source.
    fn run_affine(cache: Option<&Arc<SharedProgramCache>>, strict: bool) -> (Vec<u32>, String) {
        use crate::{ComputeContext, Kernel, ScalarType};
        let x: Vec<f32> = (0..64).map(|i| i as f32 * 0.37 - 9.0).collect();
        let mut cc = ComputeContext::new(16, 16).expect("context");
        cc.gl().set_strict_shaders(strict);
        if let Some(cache) = cache {
            cc.set_shared_program_cache(Arc::clone(cache));
        }
        let gx = cc.upload(&x).expect("upload");
        let k = Kernel::builder("affine")
            .input("x", &gx)
            .output(ScalarType::F32, x.len())
            .body("return 2.0 * fetch_x(idx) - 1.0;")
            .build(&mut cc)
            .expect("build");
        let out = cc.run_f32(&k).expect("run");
        (
            out.iter().map(|v| v.to_bits()).collect(),
            k.fragment_source().to_owned(),
        )
    }

    #[test]
    fn an_admitted_shader_is_the_one_that_links() {
        let vs = geometry::passthrough_vertex_shader();
        for strict in [false, true] {
            // Reference: a plain context links from source.
            let (reference, source) = run_affine(None, strict);
            let cache = Arc::new(SharedProgramCache::new());
            let admitted = cache.admit(&source, None).expect("admits");
            let (served, _) = run_affine(Some(&cache), strict);
            assert_eq!(served, reference, "strict {strict}: output differs");
            let program = cache
                .get_or_link(&vs, &source, None, &Limits::default(), strict)
                .expect("hit");
            assert!(
                Arc::ptr_eq(&program.fragment, &admitted),
                "strict {strict}: the link re-ran the fragment front end"
            );
            let stats = cache.stats();
            assert_eq!((stats.links, stats.admissions), (1, 1));
        }
    }

    #[test]
    fn the_table_holds_live_accepted_shaders_only() {
        let cache = SharedProgramCache::new();
        // Rejections are never stored: each attempt runs the front end.
        let bad = "precision highp float;\nvoid main() { gl_FragColor = vec4(nope); }\n";
        for _ in 0..2 {
            let err = cache.admit(bad, None).unwrap_err();
            assert_eq!(err.stage, admission::AdmissionStage::Sema);
        }
        assert_eq!(cache.stats().admissions, 2);
        assert!(lock_recover(&cache.admitted).shaders.is_empty());

        let first = cache.admit(&fs("0.5"), None).expect("admits");
        let again = cache.admit(&fs("0.5"), None).expect("admits");
        assert!(Arc::ptr_eq(&first, &again));
        // One byte away is another source: the front end runs in full.
        cache.admit(&fs("0.6"), None).expect("admits");
        let stats = cache.stats();
        assert_eq!((stats.admissions, stats.admission_hits), (4, 1));
        // The table keeps nothing alive: once every handle is gone the
        // next admission of the same bytes runs the front end again.
        drop((first, again));
        cache.admit(&fs("0.5"), None).expect("admits");
        assert_eq!(cache.stats().admissions, 5);
    }

    #[test]
    fn the_table_sweeps_dead_entries_once_it_doubles() {
        let cache = SharedProgramCache::new();
        let table_len = || lock_recover(&cache.admitted).shaders.len();
        // Sources whose shaders are all dropped never hold more than the
        // sweep floor.
        for i in 0..200 {
            cache.admit(&fs(&format!("{i}.0")), None).expect("admits");
            assert!(table_len() <= ADMITTED_SWEEP_FLOOR, "{}", table_len());
        }
        // Live entries survive every sweep, and dead ones stay within
        // twice the live count.
        let live: Vec<_> = (0..40)
            .map(|i| cache.admit(&fs(&format!("0.{i}")), None).expect("admits"))
            .collect();
        for i in 0..200 {
            cache.admit(&fs(&format!("1{i}.0")), None).expect("admits");
            assert!(table_len() <= 2 * live.len() + 1, "{}", table_len());
        }
        let hits = cache.stats().admission_hits;
        for (i, shader) in live.iter().enumerate() {
            let again = cache.admit(&fs(&format!("0.{i}")), None).expect("admits");
            assert!(Arc::ptr_eq(shader, &again));
        }
        assert_eq!(cache.stats().admission_hits, hits + live.len() as u64);
    }

    #[test]
    fn a_poisoned_lock_still_serves() {
        let cache = SharedProgramCache::new();
        let vs = geometry::passthrough_vertex_shader();
        let limits = Limits::default();
        let shader = cache.admit(&fs("0.5"), None).expect("admits");
        cache
            .get_or_link(&vs, &fs("0.5"), None, &limits, false)
            .expect("link");
        // A thread panics while it holds both locks.
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _inner = cache.inner.lock();
                let _admitted = cache.admitted.lock();
                panic!("panic under the shared cache locks");
            });
            assert!(holder.join().is_err());
        });
        assert!(cache.inner.is_poisoned() && cache.admitted.is_poisoned());
        let hit = cache
            .admit(&fs("0.5"), None)
            .expect("admission after poisoning");
        assert!(Arc::ptr_eq(&hit, &shader));
        cache
            .get_or_link(&vs, &fs("0.5"), None, &limits, false)
            .expect("hit after poisoning");
        cache
            .get_or_link(&vs, &fs("0.7"), None, &limits, false)
            .expect("link after poisoning");
        assert!(cache.remove_key(&program_key(&vs, &fs("0.5"), &limits, false)));
        let stats = cache.stats();
        assert_eq!((stats.links, stats.hits, stats.evictions), (2, 1, 1));
        assert_eq!((stats.admissions, stats.admission_hits), (1, 1));
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let cache = SharedProgramCache::with_capacity(2);
        let vs = geometry::passthrough_vertex_shader();
        for body in ["0.1", "0.2", "0.3"] {
            cache
                .get_or_link(&vs, &fs(body), None, &Limits::default(), false)
                .expect("link");
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The oldest ("0.1") was evicted: fetching it again relinks…
        cache
            .get_or_link(&vs, &fs("0.1"), None, &Limits::default(), false)
            .expect("relink");
        assert_eq!(cache.stats().links, 4);
        // …while the newest survivor ("0.3") still hits.
        cache
            .get_or_link(&vs, &fs("0.3"), None, &Limits::default(), false)
            .expect("hit");
        assert_eq!(cache.stats().hits, 1);
    }
}
