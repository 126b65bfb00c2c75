//! Cross-sweep activity cache: content-addressed memoization of
//! generated spike tensors and prepared per-layer simulation state.
//!
//! A TW or policy sweep re-runs [`spikegen::FiringProfile::generate`]
//! — the single most expensive step of a full-fidelity run — once per
//! sweep point, even though the generated tensor depends only on
//! `(profile, neurons, timesteps, seed)` and not on the TW or policy
//! under test. [`ActivityCache`] memoizes those tensors (and the
//! [`PreparedLayer`] wrappers that additionally memoize TW-invariant
//! reports, see `ptb_accel::prepared`) keyed by their
//! *content identity*, so a sweep pays for generation once and each
//! subsequent point performs only the incremental re-simulation its
//! changed axis requires.
//!
//! ## Keys
//!
//! [`ActivityKey`] is the exact value identity of one generated tensor:
//! the profile's parameter bits ([`spikegen::ProfileKey`], IEEE-754
//! `to_bits` — exact equality, no epsilon), the neuron count, the
//! operational period, and the (already layer-derived) seed. Layer
//! state adds the effective [`ConvShape`]. The TW size and policy are
//! deliberately **not** part of any key: the cached artifacts are
//! TW- and policy-invariant by construction, which is what makes reuse
//! across sweep points sound. See DESIGN.md ("Cache keys and
//! invalidation") for the full argument.
//!
//! ## Modes
//!
//! * [`CacheMode::Off`] — every lookup regenerates; the reference
//!   behavior.
//! * [`CacheMode::Mem`] — in-memory maps for the process lifetime (the
//!   default).
//! * [`CacheMode::Disk`] — additionally persists spike tensors under
//!   `results/.cache/` so *separate invocations* (e.g. the per-figure
//!   binaries run back-to-back by `all_experiments`) share generation
//!   work. Only the raw tensors are persisted: derived tables rebuild
//!   deterministically and in much less time than they load.
//!
//! ## Determinism
//!
//! The cache only ever substitutes a value for an identical
//! recomputation: tensors are keyed by every input of `generate`, and
//! disk hits are accepted only after the stored key bytes are compared
//! against the requested key (a digest collision therefore cannot
//! substitute a wrong tensor — it falls back to regeneration). Reports
//! produced with the cache on are bit-identical to cache-off runs;
//! `ptb-bench/tests/cache_equivalence.rs` property-tests this across
//! policies, TW sweeps, and all three modes.
//!
//! ## Budgets and eviction
//!
//! Both stores are *bounded* when a [`CacheBudget`] says so (knobs
//! `PTB_CACHE_MEM_BYTES` / `PTB_CACHE_DISK_BYTES`, parsed by
//! [`CacheBudget::from_env`]; unset means unlimited, matching the
//! pre-budget behavior). In-memory entries are byte-accounted and
//! evicted least-recently-used across the tensor and layer maps
//! together; on-disk entries are swept oldest-first whenever a store
//! pushes the directory past its quota. Eviction never changes
//! results — an evicted entry just regenerates on next use, and
//! regeneration is bit-identical by the determinism guarantee above
//! (property-tested under the `cache_evict` failpoint, which flushes
//! live entries at arbitrary points mid-sweep). Eviction also never
//! touches the in-flight set, so single-flight claims survive any
//! flush.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use ptb_accel::PreparedLayer;
use snn_core::shape::ConvShape;
use snn_core::spike::SpikeTensor;
use spikegen::{FiringProfile, LayerSpec, ProfileKey};

use crate::failpoint;
use crate::sync::{lock_recover, wait_recover};

/// Where [`ActivityCache`] may store and look up artifacts.
///
/// Parsed from the `PTB_CACHE` environment variable by
/// [`CacheMode::from_env`]; defaults to [`CacheMode::Mem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// No caching: every lookup regenerates from scratch. This is the
    /// reference behavior the other modes must match bit-for-bit.
    Off,
    /// In-memory memoization for the lifetime of the process.
    #[default]
    Mem,
    /// In-memory memoization plus an on-disk spike-tensor store (under
    /// `results/.cache/` by default) shared across invocations.
    Disk,
}

impl CacheMode {
    /// Reads `PTB_CACHE=off|mem|disk` (case-insensitive) from the
    /// environment; unset or unrecognized values fall back to the
    /// default ([`CacheMode::Mem`]), warning on stderr for the latter.
    pub fn from_env() -> Self {
        match std::env::var("PTB_CACHE") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "off" | "0" | "none" => CacheMode::Off,
                "mem" | "memory" => CacheMode::Mem,
                "disk" => CacheMode::Disk,
                other => {
                    eprintln!("warning: unrecognized PTB_CACHE={other:?}; using default (mem)");
                    CacheMode::default()
                }
            },
            Err(_) => CacheMode::default(),
        }
    }

    /// Stable lowercase name (`off` / `mem` / `disk`) for logs and
    /// result headers.
    pub fn label(self) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::Mem => "mem",
            CacheMode::Disk => "disk",
        }
    }
}

/// The exact value identity of one generated spike tensor: every input
/// of [`FiringProfile::generate`], no more, no less.
///
/// Profile parameters enter via [`ProfileKey`] (IEEE-754 bit patterns,
/// exact equality). The TW size and policy are deliberately excluded —
/// generated activity does not depend on them, and excluding them is
/// what lets one tensor serve an entire sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActivityKey {
    profile: ProfileKey,
    neurons: usize,
    timesteps: usize,
    seed: u64,
}

impl ActivityKey {
    /// Builds the key for `profile.generate(neurons, timesteps, seed)`.
    pub fn new(profile: &FiringProfile, neurons: usize, timesteps: usize, seed: u64) -> Self {
        ActivityKey {
            profile: profile.key(),
            neurons,
            timesteps,
            seed,
        }
    }

    /// Canonical byte serialization (profile key bytes, then
    /// little-endian `neurons`, `timesteps`, `seed`). Stable across
    /// platforms and releases; stored verbatim in disk-cache headers so
    /// hits can be verified by comparison, not just by digest.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(33 + 24);
        out.extend_from_slice(&self.profile.to_bytes());
        out.extend_from_slice(&(self.neurons as u64).to_le_bytes());
        out.extend_from_slice(&(self.timesteps as u64).to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out
    }

    /// FNV-1a 64-bit digest of [`Self::to_bytes`]; used only to *name*
    /// disk-cache files (collisions are detected by the header key
    /// comparison and handled by regeneration).
    pub fn digest(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }
}

/// FNV-1a over `bytes` — stable across platforms and releases, unlike
/// `std`'s `Hasher`s, which make no such promise. Shared by the disk
/// cache's entry names and `ptb-serve`'s job-journal record checksums.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Byte budgets bounding an [`ActivityCache`]. `None` means unlimited
/// (the pre-budget behavior); `Some(n)` caps the corresponding store at
/// `n` bytes, enforced by LRU eviction (memory) or oldest-first sweep
/// (disk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheBudget {
    /// Cap on the byte-accounted in-memory entries (tensor map plus
    /// prepared-layer map together).
    pub mem_bytes: Option<u64>,
    /// Cap on the on-disk entry directory (`results/.cache/` by
    /// default).
    pub disk_bytes: Option<u64>,
}

impl CacheBudget {
    /// No limits — every store grows as the pre-budget cache did.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Reads `PTB_CACHE_MEM_BYTES` and `PTB_CACHE_DISK_BYTES`. Values
    /// are byte counts with an optional `k`/`m`/`g` suffix (powers of
    /// 1024); unset, empty, `0`, or `off` mean unlimited. Unparseable
    /// values warn on stderr and fall back to unlimited rather than
    /// silently capping at a wrong size.
    pub fn from_env() -> Self {
        CacheBudget {
            mem_bytes: parse_bytes_env("PTB_CACHE_MEM_BYTES"),
            disk_bytes: parse_bytes_env("PTB_CACHE_DISK_BYTES"),
        }
    }
}

/// Parses one byte-count knob from the environment: plain bytes or
/// `k`/`m`/`g`-suffixed (case-insensitive, powers of 1024); unset,
/// empty, `0`, or `off` mean `None` (unlimited). Public because every
/// byte-budget knob in the stack (`PTB_CACHE_*_BYTES`,
/// `PTB_MEM_WATERMARK_BYTES`, `PTB_JOB_DIR_BYTES`) shares this syntax.
pub fn parse_bytes_env(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    let v = raw.trim().to_ascii_lowercase();
    if v.is_empty() || v == "0" || v == "off" || v == "none" {
        return None;
    }
    let (digits, shift) = match v.as_bytes().last() {
        Some(b'k') => (&v[..v.len() - 1], 10),
        Some(b'm') => (&v[..v.len() - 1], 20),
        Some(b'g') => (&v[..v.len() - 1], 30),
        _ => (v.as_str(), 0),
    };
    match digits.trim().parse::<u64>() {
        Ok(n) => Some(n << shift).filter(|&b| b > 0),
        Err(_) => {
            eprintln!("warning: unparseable {var}={raw:?}; treating as unlimited");
            None
        }
    }
}

/// Counters describing what an [`ActivityCache`] did so far (snapshot;
/// see [`ActivityCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the in-memory maps.
    pub mem_hits: u64,
    /// Lookups answered by loading and verifying a disk entry.
    pub disk_hits: u64,
    /// Lookups that regenerated from scratch (including every lookup
    /// in [`CacheMode::Off`]).
    pub misses: u64,
    /// Lookups that arrived while an identical generation was already
    /// in flight and waited for it instead of regenerating (request
    /// coalescing; each also counts as a `mem_hits` once the in-flight
    /// generation lands).
    pub coalesced: u64,
    /// Estimated bytes currently resident in the in-memory maps
    /// (gauge; tracked exactly against the per-entry estimates, see
    /// the accounting-invariant test).
    pub mem_bytes: u64,
    /// In-memory entries evicted to stay under the memory budget (or
    /// flushed by the `cache_evict` failpoint).
    pub evictions: u64,
    /// Last observed size of the on-disk entry directory in bytes
    /// (gauge; refreshed by every disk store and quota sweep).
    pub disk_bytes: u64,
    /// On-disk entries deleted by the quota sweep (plus corrupt or
    /// stale-temp files garbage-collected on sight).
    pub disk_evictions: u64,
}

/// Content-addressed store of generated spike tensors and
/// [`PreparedLayer`] state, shared across the sweep points of one run
/// (and, in [`CacheMode::Disk`], across runs).
///
/// Thread-safe: the harness simulates layers on scoped threads that
/// all consult one cache, and `ptb-serve` shares one cache across every
/// worker thread. Locks are held only around map access, never during
/// generation, so distinct keys generate concurrently. Lookups for a
/// key whose generation is already *in flight* coalesce: they wait for
/// the running generation and share its tensor instead of regenerating
/// (single-flight; counted by [`CacheStats::coalesced`]), so a burst of
/// identical service requests pays for generation exactly once.
#[derive(Debug)]
pub struct ActivityCache {
    mode: CacheMode,
    dir: PathBuf,
    budget: CacheBudget,
    tensors: Mutex<TensorStore>,
    /// Signals waiters when an in-flight generation lands (or aborts).
    tensors_cv: Condvar,
    layers: Mutex<HashMap<(ActivityKey, ConvShape), LayerEntry>>,
    /// Monotonic access clock stamping entries for LRU ordering.
    clock: AtomicU64,
    /// Tracked bytes across both in-memory maps; the gauge behind the
    /// memory budget and the service's admission watermark.
    mem_bytes: AtomicU64,
    /// Last observed on-disk directory size (refreshed by stores and
    /// quota sweeps; never scanned on the read path).
    disk_bytes: AtomicU64,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    disk_evictions: AtomicU64,
}

/// The tensor map plus the set of keys some thread is currently
/// generating; one lock covers both so claim-or-wait is atomic.
#[derive(Debug, Default)]
struct TensorStore {
    map: HashMap<ActivityKey, TensorEntry>,
    inflight: HashSet<ActivityKey>,
}

/// One resident tensor with its byte charge and LRU stamp.
#[derive(Debug)]
struct TensorEntry {
    tensor: Arc<SpikeTensor>,
    bytes: u64,
    last_used: u64,
}

/// One resident prepared layer with its byte charge and LRU stamp.
#[derive(Debug)]
struct LayerEntry {
    layer: Arc<PreparedLayer>,
    bytes: u64,
    last_used: u64,
}

/// Fixed per-entry overhead charged on top of the payload estimate
/// (map slot, key, `Arc` headers). Deliberately coarse: budgets are a
/// watermark against unbounded growth, not an allocator audit.
const ENTRY_OVERHEAD: u64 = 160;

/// Estimated resident bytes of one cached tensor: its spike words plus
/// fixed overhead.
fn tensor_cost(t: &SpikeTensor) -> u64 {
    (t.words().len() as u64) * 8 + ENTRY_OVERHEAD
}

/// Estimated resident bytes of one prepared-layer entry. The wrapper
/// shares the tensor `Arc`; its derived state is the tensor's firing
/// index and the report memo (see `ptb_accel::prepared`), and nothing
/// in either depends on the TW size, so a layer entry is charged one
/// extra tensor's worth however many TW points it serves. Both fit
/// inside that charge, so they add no term here and the resident
/// recount ([`ActivityCache::recounted_bytes`]) is unchanged:
///
/// * the index takes 4 bytes per firing neuron plus 4 per channel,
///   while the tensor takes 8 bytes per word and every neuron has a
///   word, so even a tensor whose every neuron fires pays for it
///   (`firing_index_fits_the_layer_charge`);
/// * the memo holds at most four TW-invariant policies'
///   `LayerReport`s, each under a kilobyte.
fn layer_cost(t: &SpikeTensor) -> u64 {
    tensor_cost(t)
}

/// Removes an in-flight claim on drop, so a panicking generation can
/// never strand its waiters: they wake, find no entry, and take over.
struct InflightClaim<'a> {
    cache: &'a ActivityCache,
    key: ActivityKey,
}

impl Drop for InflightClaim<'_> {
    fn drop(&mut self) {
        let mut store = lock_recover(&self.cache.tensors);
        store.inflight.remove(&self.key);
        drop(store);
        self.cache.tensors_cv.notify_all();
    }
}

impl ActivityCache {
    /// A cache in `mode`, with the disk store (if any) under the
    /// default `results/.cache/` directory.
    pub fn new(mode: CacheMode) -> Self {
        Self::with_dir(mode, Path::new("results/.cache"))
    }

    /// A cache in `mode` whose disk store lives under `dir` (created
    /// lazily on first write). Mainly for tests.
    pub fn with_dir(mode: CacheMode, dir: &Path) -> Self {
        Self::with_budget(mode, dir, CacheBudget::unlimited())
    }

    /// A cache in `mode` with its disk store under `dir`, bounded by
    /// `budget` (see [`CacheBudget`]).
    pub fn with_budget(mode: CacheMode, dir: &Path, budget: CacheBudget) -> Self {
        ActivityCache {
            mode,
            dir: dir.to_path_buf(),
            budget,
            tensors: Mutex::new(TensorStore::default()),
            tensors_cv: Condvar::new(),
            layers: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            mem_bytes: AtomicU64::new(0),
            disk_bytes: AtomicU64::new(0),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk_evictions: AtomicU64::new(0),
        }
    }

    /// A cache in the mode selected by the `PTB_CACHE` environment
    /// variable (see [`CacheMode::from_env`]), bounded by the budgets
    /// in `PTB_CACHE_MEM_BYTES` / `PTB_CACHE_DISK_BYTES` (see
    /// [`CacheBudget::from_env`]).
    pub fn from_env() -> Self {
        Self::with_budget(
            CacheMode::from_env(),
            Path::new("results/.cache"),
            CacheBudget::from_env(),
        )
    }

    /// The mode this cache operates in.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The budgets this cache enforces.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            mem_bytes: self.mem_bytes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_bytes: self.disk_bytes.load(Ordering::Relaxed),
            disk_evictions: self.disk_evictions.load(Ordering::Relaxed),
        }
    }

    /// Tracked resident bytes of the in-memory maps (the gauge the
    /// memory budget and `ptb-serve`'s admission watermark read).
    pub fn resident_bytes(&self) -> u64 {
        self.mem_bytes.load(Ordering::Relaxed)
    }

    /// Recomputes the resident-byte total by walking both maps. Exposed
    /// for the accounting-invariant tests: must always equal
    /// [`Self::resident_bytes`] at rest.
    pub fn recounted_bytes(&self) -> u64 {
        let tensors: u64 = lock_recover(&self.tensors)
            .map
            .values()
            .map(|e| e.bytes)
            .sum();
        let layers: u64 = lock_recover(&self.layers).values().map(|e| e.bytes).sum();
        tensors + layers
    }

    /// `profile.generate(neurons, timesteps, seed)`, memoized.
    ///
    /// Bit-identical to calling `generate` directly, in every mode.
    ///
    /// Concurrent lookups of the same key are single-flight: the first
    /// claims the key, later arrivals block on the cache's condvar and
    /// wake to a memory hit once the claimed generation (or disk load)
    /// lands, never duplicating the work. If the generating thread
    /// panics, a drop guard releases its claim and one waiter takes
    /// over.
    pub fn activity(
        &self,
        profile: &FiringProfile,
        neurons: usize,
        timesteps: usize,
        seed: u64,
    ) -> Arc<SpikeTensor> {
        let key = ActivityKey::new(profile, neurons, timesteps, seed);
        if self.mode == CacheMode::Off {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(profile.generate(neurons, timesteps, seed));
        }
        self.maybe_chaos_flush();

        // Claim-or-wait: leave this loop either returning a hit or
        // holding the (released-on-drop) in-flight claim for `key`.
        let claim = {
            let mut store = lock_recover(&self.tensors);
            let mut waited = false;
            loop {
                if let Some(hit) = store.map.get_mut(&key) {
                    hit.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
                    self.mem_hits.fetch_add(1, Ordering::Relaxed);
                    return hit.tensor.clone();
                }
                if store.inflight.insert(key) {
                    break;
                }
                if !waited {
                    // Counted once per lookup, not once per wakeup.
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    waited = true;
                }
                store = wait_recover(&self.tensors_cv, store);
            }
            InflightClaim { cache: self, key }
        };

        let (made, from_disk) = match self.mode {
            CacheMode::Disk => match self.load_disk(&key) {
                Some(loaded) => (Arc::new(loaded), true),
                None => (Arc::new(profile.generate(neurons, timesteps, seed)), false),
            },
            _ => (Arc::new(profile.generate(neurons, timesteps, seed)), false),
        };
        if from_disk {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if self.mode == CacheMode::Disk {
                self.store_disk(&key, &made);
            }
        }

        let out = {
            let mut store = lock_recover(&self.tensors);
            let seq = self.clock.fetch_add(1, Ordering::Relaxed);
            // The claim guarantees exclusivity, so the entry is vacant;
            // `or_insert_with` keeps the charge correct even if that
            // invariant ever broke.
            let entry = store.map.entry(key).or_insert_with(|| {
                let bytes = tensor_cost(&made);
                self.mem_bytes.fetch_add(bytes, Ordering::Relaxed);
                TensorEntry {
                    tensor: made,
                    bytes,
                    last_used: seq,
                }
            });
            entry.last_used = seq;
            entry.tensor.clone()
        };
        drop(claim); // releases the in-flight mark and wakes waiters
        self.enforce_mem_budget();
        out
    }

    /// Simulation-ready state for `layer` at the effective `shape`:
    /// the memoized activity tensor wrapped in a [`PreparedLayer`]
    /// whose TW-invariant reports are themselves memoized and shared
    /// across every sweep point that hits this entry.
    ///
    /// `seed` is the *layer-derived* seed (the harness derives one per
    /// layer index from the run seed), so two layers of one network
    /// never collide even when their profiles and shapes agree.
    pub fn layer(
        &self,
        layer: &LayerSpec,
        shape: ConvShape,
        timesteps: usize,
        seed: u64,
    ) -> Arc<PreparedLayer> {
        let key = (
            ActivityKey::new(&layer.input_profile, shape.ifmap_neurons(), timesteps, seed),
            shape,
        );
        if self.mode != CacheMode::Off {
            self.maybe_chaos_flush();
            if let Some(hit) = lock_recover(&self.layers).get_mut(&key) {
                hit.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
                self.mem_hits.fetch_add(1, Ordering::Relaxed);
                return hit.layer.clone();
            }
        }
        // The activity lookup below does its own hit/miss accounting
        // (and disk I/O); a layer-map miss with a tensor hit still
        // reuses the generated tensor and costs only a wrapper.
        let spikes = self.activity(&layer.input_profile, shape.ifmap_neurons(), timesteps, seed);
        let made = Arc::new(PreparedLayer::new(shape, spikes));
        if self.mode == CacheMode::Off {
            return made;
        }
        let out = {
            let mut layers = lock_recover(&self.layers);
            let seq = self.clock.fetch_add(1, Ordering::Relaxed);
            let entry = layers.entry(key).or_insert_with(|| {
                let bytes = layer_cost(made.spikes());
                self.mem_bytes.fetch_add(bytes, Ordering::Relaxed);
                LayerEntry {
                    layer: made,
                    bytes,
                    last_used: seq,
                }
            });
            entry.last_used = seq;
            entry.layer.clone()
        };
        self.enforce_mem_budget();
        out
    }

    /// Evicts least-recently-used entries (across both in-memory maps)
    /// until the tracked bytes fit the memory budget. Called after
    /// every insert; a no-op when unbudgeted or already under.
    ///
    /// Locks are taken in the fixed order tensors → layers (the only
    /// place both are ever held at once), and the in-flight set is
    /// never touched: a waiter whose entry is evicted between its
    /// wake-up and its re-check simply claims and regenerates,
    /// bit-identically.
    fn enforce_mem_budget(&self) {
        let Some(budget) = self.budget.mem_bytes else {
            return;
        };
        if self.mem_bytes.load(Ordering::Relaxed) <= budget {
            return;
        }
        let mut tensors = lock_recover(&self.tensors);
        let mut layers = lock_recover(&self.layers);
        while self.mem_bytes.load(Ordering::Relaxed) > budget {
            let oldest_tensor = tensors
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (*k, e.last_used));
            let oldest_layer = layers
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (*k, e.last_used));
            let evict_tensor = match (oldest_tensor, oldest_layer) {
                (Some((_, t_used)), Some((_, l_used))) => t_used <= l_used,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break, // nothing left to evict
            };
            let bytes = if evict_tensor {
                let (k, _) = oldest_tensor.expect("picked tensor");
                tensors.map.remove(&k).expect("live entry").bytes
            } else {
                let (k, _) = oldest_layer.expect("picked layer");
                layers.remove(&k).expect("live entry").bytes
            };
            self.mem_bytes.fetch_sub(bytes, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every resident in-memory entry (both maps), keeping the
    /// byte accounting and eviction counters exact. The in-flight set
    /// survives, so concurrent generations are unaffected. Public so
    /// chaos harnesses can force worst-case cache behavior; results
    /// stay bit-identical because every flushed entry regenerates
    /// deterministically.
    pub fn flush_resident(&self) {
        let mut freed = 0u64;
        let mut dropped = 0u64;
        {
            let mut tensors = lock_recover(&self.tensors);
            for (_, e) in tensors.map.drain() {
                freed += e.bytes;
                dropped += 1;
            }
        }
        {
            let mut layers = lock_recover(&self.layers);
            for (_, e) in layers.drain() {
                freed += e.bytes;
                dropped += 1;
            }
        }
        self.mem_bytes.fetch_sub(freed, Ordering::Relaxed);
        self.evictions.fetch_add(dropped, Ordering::Relaxed);
    }

    /// The `cache_evict` failpoint: when armed (typically with a
    /// probability, e.g. `cache_evict=err:0.3`), lookups flush the
    /// resident maps at arbitrary points mid-sweep. The equivalence
    /// property tests run under this to prove eviction can never change
    /// results.
    fn maybe_chaos_flush(&self) {
        if failpoint::eval("cache_evict").is_err() {
            self.flush_resident();
        }
    }

    fn entry_path(&self, key: &ActivityKey) -> PathBuf {
        self.dir.join(format!("act-{:016x}.ptb", key.digest()))
    }

    /// Sweeps the disk store after a write: refreshes the size gauge,
    /// deletes stale temp files (leftovers of crashed writers), and —
    /// when a disk budget is set — removes the oldest entries until the
    /// directory fits. The entry just written is the newest, so it
    /// survives unless it alone exceeds the budget. Errors are ignored
    /// entry-by-entry: the sweep is best-effort, like the store itself.
    fn enforce_disk_budget(&self) {
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let now = std::time::SystemTime::now();
        let mut entries: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
        let mut total = 0u64;
        for item in read.flatten() {
            let path = item.path();
            let name = item.file_name();
            let name = name.to_string_lossy();
            let Ok(meta) = item.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(now);
            if name.contains(".tmp.") {
                // A temp file older than a minute belongs to a writer
                // that died mid-store; nothing will rename it.
                let stale = now
                    .duration_since(mtime)
                    .map(|age| age.as_secs() >= 60)
                    .unwrap_or(false);
                if stale && std::fs::remove_file(&path).is_ok() {
                    self.disk_evictions.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                total += meta.len();
                continue; // in-flight temp files are never quota victims
            }
            if name.starts_with("act-") && name.ends_with(".ptb") {
                total += meta.len();
                entries.push((path, meta.len(), mtime));
            }
        }
        if let Some(budget) = self.budget.disk_bytes {
            entries.sort_by_key(|(_, _, mtime)| *mtime);
            for (path, len, _) in entries {
                if total <= budget {
                    break;
                }
                if std::fs::remove_file(&path).is_ok() {
                    total -= len;
                    self.disk_evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.disk_bytes.store(total, Ordering::Relaxed);
    }

    /// Loads and verifies a disk entry; any mismatch, truncation, or
    /// I/O error yields `None` (the caller regenerates and rewrites).
    ///
    /// Failpoint `cache_disk_load` (`err`) simulates an unreadable
    /// entry, forcing the regeneration fallback. Failpoint
    /// `cache_load_flip` (`err`) delivers the entry with one spike bit
    /// inverted — silent media corruption that passes every structural
    /// check here and must be caught downstream by the audit layer's
    /// activity diff (`ptb_accel::audit::diff_activity`).
    fn load_disk(&self, key: &ActivityKey) -> Option<SpikeTensor> {
        if failpoint::eval("cache_disk_load").is_err() {
            return None;
        }
        let path = self.entry_path(key);
        let bytes = std::fs::read(&path).ok()?;
        let loaded = match decode_entry(&bytes, key) {
            Ok(t) => t,
            Err(EntryDefect::Corrupt) => {
                // Structurally broken bytes can never be loaded by any
                // key; delete on sight so a bit-flipping disk can't
                // accumulate dead files (the caller rewrites shortly).
                if std::fs::remove_file(&path).is_ok() {
                    self.disk_evictions.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
            // A key mismatch is a digest collision: the file is (or may
            // be) a valid entry for a *different* key, so leave it.
            Err(EntryDefect::KeyMismatch) => return None,
        };
        if failpoint::eval("cache_load_flip").is_err() {
            if let Some(flipped) = flip_first_bit(&loaded) {
                return Some(flipped);
            }
        }
        Some(loaded)
    }

    /// Persists `spikes` for `key`, atomically (write temp + rename)
    /// so a concurrent reader never sees a torn entry. Failures are
    /// reported on stderr but never fail the run: the disk store is an
    /// accelerator, not a source of truth.
    fn store_disk(&self, key: &ActivityKey, spikes: &SpikeTensor) {
        let path = self.entry_path(key);
        let write = (|| -> std::io::Result<()> {
            if failpoint::eval("cache_disk_store").is_err() {
                return Err(std::io::Error::other("failpoint cache_disk_store"));
            }
            std::fs::create_dir_all(&self.dir)?;
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            std::fs::write(&tmp, encode_entry(key, spikes))?;
            std::fs::rename(&tmp, &path)
        })();
        match write {
            Ok(()) => self.enforce_disk_budget(),
            Err(e) => eprintln!(
                "warning: could not persist cache entry {}: {e}",
                path.display()
            ),
        }
    }
}

/// The tensor with its (neuron 0, timestep 0) bit inverted — the
/// `cache_load_flip` fault model. `None` for empty tensors (nothing to
/// flip).
fn flip_first_bit(t: &SpikeTensor) -> Option<SpikeTensor> {
    if t.neurons() == 0 || t.timesteps() == 0 {
        return None;
    }
    let mut words = t.words().to_vec();
    words[0] ^= 1;
    SpikeTensor::from_words(t.neurons(), t.timesteps(), words).ok()
}

/// Magic + format version prefix of a disk entry. Bump the trailing
/// digit on any format change: stale entries then fail the prefix check
/// and are regenerated.
const ENTRY_MAGIC: &[u8; 8] = b"PTBACT1\n";

/// Serializes one disk entry: magic, key length + canonical key bytes,
/// tensor dims, then the raw little-endian `u64` spike words. The full
/// key is stored (not just its digest) so [`decode_entry`] can verify
/// identity by byte comparison.
fn encode_entry(key: &ActivityKey, spikes: &SpikeTensor) -> Vec<u8> {
    let key_bytes = key.to_bytes();
    let words = spikes.words();
    let mut out = Vec::with_capacity(8 + 4 + key_bytes.len() + 16 + words.len() * 8);
    out.extend_from_slice(ENTRY_MAGIC);
    out.extend_from_slice(
        &u32::try_from(key_bytes.len())
            .expect("short key")
            .to_le_bytes(),
    );
    out.extend_from_slice(&key_bytes);
    out.extend_from_slice(&(spikes.neurons() as u64).to_le_bytes());
    out.extend_from_slice(&(spikes.timesteps() as u64).to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Why a disk entry failed to decode: structurally broken bytes (safe
/// to delete — no key can ever load them) versus a key mismatch (a
/// digest collision; the file may be another key's valid entry and must
/// be left alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryDefect {
    Corrupt,
    KeyMismatch,
}

/// Parses and verifies one disk entry against the `expected` key; the
/// tensor constructor re-validates word count and tail bits.
fn decode_entry(bytes: &[u8], expected: &ActivityKey) -> Result<SpikeTensor, EntryDefect> {
    let corrupt = EntryDefect::Corrupt;
    let rest = bytes.strip_prefix(ENTRY_MAGIC.as_slice()).ok_or(corrupt)?;
    let (len_bytes, rest) = rest.split_at_checked(4).ok_or(corrupt)?;
    let key_len = u32::from_le_bytes(len_bytes.try_into().map_err(|_| corrupt)?) as usize;
    let (key_bytes, rest) = rest.split_at_checked(key_len).ok_or(corrupt)?;
    if key_bytes != expected.to_bytes() {
        return Err(EntryDefect::KeyMismatch); // collision or stale format
    }
    let (dims, rest) = rest.split_at_checked(16).ok_or(corrupt)?;
    let neurons = u64::from_le_bytes(dims[..8].try_into().map_err(|_| corrupt)?) as usize;
    let timesteps = u64::from_le_bytes(dims[8..].try_into().map_err(|_| corrupt)?) as usize;
    if rest.len() % 8 != 0 {
        return Err(corrupt);
    }
    let words: Vec<u64> = rest
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    SpikeTensor::from_words(neurons, timesteps, words).map_err(|_| corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> FiringProfile {
        FiringProfile::new(0.3, 0.08, 0.5, spikegen::TemporalStructure::Bernoulli).unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ptb-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_differ_when_any_generate_input_differs() {
        let p = profile();
        let base = ActivityKey::new(&p, 100, 64, 7);
        assert_eq!(base, ActivityKey::new(&p, 100, 64, 7));
        assert_ne!(base, ActivityKey::new(&p, 101, 64, 7), "neurons");
        assert_ne!(base, ActivityKey::new(&p, 100, 65, 7), "timesteps");
        assert_ne!(base, ActivityKey::new(&p, 100, 64, 8), "seed");
        let other = FiringProfile::new(
            0.3,
            0.08 + 1e-12,
            0.5,
            spikegen::TemporalStructure::Bernoulli,
        )
        .unwrap();
        assert_ne!(
            base,
            ActivityKey::new(&other, 100, 64, 7),
            "profile params are exact bit identities"
        );
        // Canonical bytes and digests separate exactly when keys do.
        assert_ne!(base.to_bytes(), ActivityKey::new(&p, 100, 64, 8).to_bytes());
        assert_eq!(base.digest(), ActivityKey::new(&p, 100, 64, 7).digest());
    }

    #[test]
    fn mem_mode_returns_bit_identical_tensor_and_shares_it() {
        let p = profile();
        let cache = ActivityCache::new(CacheMode::Mem);
        let fresh = p.generate(200, 48, 11);
        let a = cache.activity(&p, 200, 48, 11);
        let b = cache.activity(&p, 200, 48, 11);
        assert_eq!(*a, fresh, "cached tensor must equal direct generation");
        assert!(Arc::ptr_eq(&a, &b), "second lookup shares the entry");
        let s = cache.stats();
        assert_eq!((s.misses, s.mem_hits, s.disk_hits), (1, 1, 0));
    }

    #[test]
    fn off_mode_never_stores_anything() {
        let p = profile();
        let cache = ActivityCache::new(CacheMode::Off);
        let a = cache.activity(&p, 50, 32, 3);
        let b = cache.activity(&p, 50, 32, 3);
        assert_eq!(*a, *b, "regenerated tensors are still deterministic");
        assert!(!Arc::ptr_eq(&a, &b), "off mode must not memoize");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn disk_roundtrip_is_bit_identical_and_verified() {
        let p = profile();
        let dir = tmp_dir("roundtrip");
        let warm = ActivityCache::with_dir(CacheMode::Disk, &dir);
        let written = warm.activity(&p, 150, 70, 5);
        assert_eq!(warm.stats().misses, 1);

        // A second cache (fresh memory) must hit disk, not regenerate.
        let cold = ActivityCache::with_dir(CacheMode::Disk, &dir);
        let loaded = cold.activity(&p, 150, 70, 5);
        assert_eq!(*loaded, *written, "disk roundtrip must be bit-identical");
        let s = cold.stats();
        assert_eq!((s.misses, s.disk_hits), (0, 1));

        // A different key must not hit the stored entry.
        let other = cold.activity(&p, 150, 70, 6);
        assert_ne!(*other, *written);
        assert_eq!(cold.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_disk_entries_fall_back_to_regeneration() {
        let p = profile();
        let dir = tmp_dir("corrupt");
        let cache = ActivityCache::with_dir(CacheMode::Disk, &dir);
        let key = ActivityKey::new(&p, 40, 33, 9);
        let good = cache.activity(&p, 40, 33, 9);

        for bad in [
            b"garbage".to_vec(),
            encode_entry(&ActivityKey::new(&p, 40, 33, 10), &good), // wrong key
            encode_entry(&key, &good)[..30].to_vec(),               // truncated
        ] {
            std::fs::write(cache.entry_path(&key), &bad).unwrap();
            let fresh = ActivityCache::with_dir(CacheMode::Disk, &dir);
            let got = fresh.activity(&p, 40, 33, 9);
            assert_eq!(*got, *good, "fallback must regenerate the true tensor");
            assert_eq!(
                fresh.stats().disk_hits,
                0,
                "bad entry must not count as a hit"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flip_first_bit_inverts_exactly_the_first_bit() {
        let t = SpikeTensor::from_fn(3, 70, |n, tp| (n + tp) % 2 == 0);
        let flipped = flip_first_bit(&t).expect("non-empty tensor flips");
        assert_eq!(flipped.get(0, 0), !t.get(0, 0));
        let diff: u32 = t
            .words()
            .iter()
            .zip(flipped.words())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit differs");
        assert!(flip_first_bit(&SpikeTensor::new(0, 0)).is_none());
    }

    #[test]
    fn layer_entries_share_prepared_state_across_lookups() {
        let spec = spikegen::dvs_gesture();
        let layer = &spec.layers[0];
        let cache = ActivityCache::new(CacheMode::Mem);
        let a = cache.layer(layer, layer.shape, 32, 77);
        let b = cache.layer(layer, layer.shape, 32, 77);
        assert!(Arc::ptr_eq(&a, &b), "same key shares one PreparedLayer");
        // Different shape (e.g. quick-mode crop) is a different entry.
        let c = cache.layer(layer, layer.shape, 32, 78);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn racing_lookups_of_one_key_coalesce_to_a_single_generation() {
        let p = profile();
        let cache = ActivityCache::new(CacheMode::Mem);
        const RACERS: usize = 4;
        let barrier = std::sync::Barrier::new(RACERS);
        let results: Vec<Arc<SpikeTensor>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..RACERS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.activity(&p, 300, 64, 21)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results[1..] {
            assert!(
                Arc::ptr_eq(&results[0], r),
                "all racers must share one tensor"
            );
        }
        assert_eq!(*results[0], p.generate(300, 64, 21));
        let s = cache.stats();
        assert_eq!(s.misses, 1, "exactly one racer generates");
        assert_eq!(
            s.mem_hits,
            (RACERS - 1) as u64,
            "every other racer returns via a memory hit"
        );
        assert!(
            s.coalesced <= s.mem_hits,
            "coalesced counts the subset of hits that had to wait"
        );
    }

    #[test]
    fn off_mode_never_coalesces() {
        let p = profile();
        let cache = ActivityCache::new(CacheMode::Off);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    barrier.wait();
                    cache.activity(&p, 60, 32, 5)
                });
            }
        });
        let s = cache.stats();
        assert_eq!((s.misses, s.coalesced), (2, 0));
    }

    /// Tracked bytes must equal a recount of the live entries — after
    /// inserts, hits, evictions, and flushes alike.
    fn assert_accounting_exact(cache: &ActivityCache) {
        assert_eq!(
            cache.resident_bytes(),
            cache.recounted_bytes(),
            "tracked bytes must equal the sum over live entries"
        );
    }

    #[test]
    fn mem_budget_evicts_lru_and_keeps_accounting_exact() {
        let p = profile();
        // One 400×64 tensor costs 400 words + overhead; budget ≈ 2.5
        // entries so the third insert must evict the least recent.
        let one = tensor_cost(&p.generate(400, 64, 0));
        let budget = CacheBudget {
            mem_bytes: Some(one * 5 / 2),
            disk_bytes: None,
        };
        let cache = ActivityCache::with_budget(CacheMode::Mem, &tmp_dir("budget"), budget);
        let a = cache.activity(&p, 400, 64, 1);
        let _b = cache.activity(&p, 400, 64, 2);
        assert_eq!(cache.stats().evictions, 0, "two entries fit");
        // Touch seed-1 so seed-2 is now the least recently used.
        let a2 = cache.activity(&p, 400, 64, 1);
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = cache.activity(&p, 400, 64, 3);
        let s = cache.stats();
        assert_eq!(s.evictions, 1, "third insert evicts exactly one");
        assert!(s.mem_bytes <= one * 5 / 2, "resident bytes obey budget");
        assert_accounting_exact(&cache);
        // Seed-2 was the LRU victim: it regenerates (a miss), while
        // seed-1 and seed-3 are still resident.
        let hits_before = cache.stats().mem_hits;
        let b2 = cache.activity(&p, 400, 64, 2);
        assert_eq!(*b2, p.generate(400, 64, 2), "recompute is bit-identical");
        assert_eq!(cache.stats().mem_hits, hits_before, "victim was evicted");
        let _ = cache.activity(&p, 400, 64, 3);
        assert!(cache.stats().mem_hits > hits_before, "seed-3 survived");
        assert_accounting_exact(&cache);
    }

    #[test]
    fn layer_entries_are_charged_one_tensor_worth() {
        // A layer entry holds the shared tensor, its shape and the report
        // memo: the tensor entry plus one more tensor's worth, exactly.
        let spec = spikegen::alexnet();
        let layer = &spec.layers[1];
        let cache = ActivityCache::new(CacheMode::Mem);
        let prep = cache.layer(layer, layer.shape, 32, 77);
        let tensor = tensor_cost(prep.spikes());
        assert_eq!(cache.resident_bytes(), 2 * tensor, "tensor + layer entry");
        assert_accounting_exact(&cache);
    }

    #[test]
    fn firing_index_fits_the_layer_charge() {
        // The worst case: every neuron fires, so the index lists them
        // all. A 1 × 1 map (an FC layer) has as many channels as
        // neurons; a deep 2 × 2 map and AlexNet's CONV1 input do not.
        let shapes = [
            ConvShape::new(1, 1, 4096, 8, 1).unwrap(),
            ConvShape::new(2, 1, 512, 8, 1).unwrap(),
            spikegen::alexnet().layers[0].shape,
        ];
        for shape in shapes {
            for t in [1, 64, 300] {
                let prep = PreparedLayer::new(
                    shape,
                    Arc::new(SpikeTensor::full(shape.ifmap_neurons(), t)),
                );
                assert_eq!(prep.firing().len(), shape.ifmap_neurons());
                let charge = layer_cost(prep.spikes()) - ENTRY_OVERHEAD;
                assert!(
                    prep.firing().bytes() as u64 <= charge,
                    "{shape:?} t={t}: index {} bytes, charge {charge}",
                    prep.firing().bytes()
                );
            }
        }
    }

    #[test]
    fn layer_entries_are_budgeted_too() {
        let spec = spikegen::dvs_gesture();
        let layer = &spec.layers[0];
        let budget = CacheBudget {
            mem_bytes: Some(1), // nothing fits: every insert evicts
            disk_bytes: None,
        };
        let cache = ActivityCache::with_budget(CacheMode::Mem, &tmp_dir("layer-budget"), budget);
        let a = cache.layer(layer, layer.shape, 32, 77);
        let b = cache.layer(layer, layer.shape, 32, 77);
        assert_eq!(a.spikes().as_ref(), b.spikes().as_ref(), "still identical");
        assert!(cache.stats().evictions > 0, "a 1-byte budget must evict");
        assert_accounting_exact(&cache);
    }

    #[test]
    fn flush_resident_recovers_every_byte() {
        let p = profile();
        let spec = spikegen::dvs_gesture();
        let cache = ActivityCache::new(CacheMode::Mem);
        let _ = cache.activity(&p, 200, 48, 11);
        let _ = cache.layer(&spec.layers[0], spec.layers[0].shape, 32, 5);
        assert!(cache.resident_bytes() > 0);
        assert_accounting_exact(&cache);
        cache.flush_resident();
        assert_eq!(cache.resident_bytes(), 0, "flush frees every byte");
        assert_eq!(cache.recounted_bytes(), 0);
        assert!(cache.stats().evictions >= 2);
        // Flushed entries regenerate bit-identically.
        let again = cache.activity(&p, 200, 48, 11);
        assert_eq!(*again, p.generate(200, 48, 11));
        assert_accounting_exact(&cache);
    }

    #[test]
    fn disk_budget_sweeps_oldest_entries_first() {
        let p = profile();
        let dir = tmp_dir("disk-budget");
        let probe = ActivityCache::with_dir(CacheMode::Disk, &dir);
        let _ = probe.activity(&p, 300, 64, 0);
        let entry_size = std::fs::metadata(probe.entry_path(&ActivityKey::new(&p, 300, 64, 0)))
            .unwrap()
            .len();
        let _ = std::fs::remove_dir_all(&dir);

        let budget = CacheBudget {
            mem_bytes: None,
            disk_bytes: Some(entry_size * 5 / 2),
        };
        let cache = ActivityCache::with_budget(CacheMode::Disk, &dir, budget);
        for seed in 0..4u64 {
            let _ = cache.activity(&p, 300, 64, seed);
            // Distinct mtimes so oldest-first ordering is deterministic.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let s = cache.stats();
        assert!(
            s.disk_bytes <= entry_size * 5 / 2,
            "directory stays under budget (got {} > {})",
            s.disk_bytes,
            entry_size * 5 / 2
        );
        assert!(s.disk_evictions >= 2, "oldest entries were swept");
        // The newest entry always survives its own store.
        assert!(cache.entry_path(&ActivityKey::new(&p, 300, 64, 3)).exists());
        assert!(!cache.entry_path(&ActivityKey::new(&p, 300, 64, 0)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_deleted_on_sight_but_collisions_kept() {
        let p = profile();
        let dir = tmp_dir("corrupt-gc");
        let cache = ActivityCache::with_dir(CacheMode::Disk, &dir);
        let key = ActivityKey::new(&p, 40, 33, 9);
        let good = cache.activity(&p, 40, 33, 9);

        // Structural garbage: deleted the moment a load sees it.
        std::fs::write(cache.entry_path(&key), b"garbage").unwrap();
        let fresh = ActivityCache::with_dir(CacheMode::Disk, &dir);
        let _ = fresh.activity(&p, 40, 33, 9);
        assert!(fresh.stats().disk_evictions >= 1, "corrupt file deleted");

        // A wrong-key (digest-collision-shaped) entry is *not* deleted:
        // it may be another key's valid data.
        let other_key = ActivityKey::new(&p, 40, 33, 10);
        std::fs::write(cache.entry_path(&key), encode_entry(&other_key, &good)).unwrap();
        let fresh2 = ActivityCache::with_dir(CacheMode::Disk, &dir);
        let got = fresh2.activity(&p, 40, 33, 9);
        assert_eq!(*got, *good, "regenerates around the collision");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_env_parsing_accepts_suffixes_and_rejects_junk() {
        // parse_bytes_env reads real env vars; use unique names.
        std::env::set_var("PTB_TEST_BUDGET_A", "4096");
        std::env::set_var("PTB_TEST_BUDGET_B", "64k");
        std::env::set_var("PTB_TEST_BUDGET_C", "2M");
        std::env::set_var("PTB_TEST_BUDGET_D", "1g");
        std::env::set_var("PTB_TEST_BUDGET_E", "0");
        std::env::set_var("PTB_TEST_BUDGET_F", "lots");
        assert_eq!(parse_bytes_env("PTB_TEST_BUDGET_A"), Some(4096));
        assert_eq!(parse_bytes_env("PTB_TEST_BUDGET_B"), Some(64 << 10));
        assert_eq!(parse_bytes_env("PTB_TEST_BUDGET_C"), Some(2 << 20));
        assert_eq!(parse_bytes_env("PTB_TEST_BUDGET_D"), Some(1 << 30));
        assert_eq!(parse_bytes_env("PTB_TEST_BUDGET_E"), None, "0 = unlimited");
        assert_eq!(parse_bytes_env("PTB_TEST_BUDGET_F"), None, "junk warns");
        assert_eq!(parse_bytes_env("PTB_TEST_BUDGET_UNSET"), None);
        for v in ["A", "B", "C", "D", "E", "F"] {
            std::env::remove_var(format!("PTB_TEST_BUDGET_{v}"));
        }
    }

    #[test]
    fn cache_mode_labels_are_stable() {
        assert_eq!(CacheMode::Off.label(), "off");
        assert_eq!(CacheMode::Mem.label(), "mem");
        assert_eq!(CacheMode::Disk.label(), "disk");
        assert_eq!(CacheMode::default(), CacheMode::Mem);
    }
}
