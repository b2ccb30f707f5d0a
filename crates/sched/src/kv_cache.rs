//! KV-cache management: vLLM-style demand paging and the conventional
//! max-length preallocation it replaces.
//!
//! The paged policy allocates fixed-size token pages on demand and evicts
//! whole requests (most recently admitted first) to host memory under
//! pressure, exactly the mechanism the paper integrates from vLLM. The
//! max-length policy reserves `max_seq` tokens per request up front — the
//! baseline whose fragmentation paged attention eliminates.

use llmss_model::FnvHashMap;
use serde::{Deserialize, Serialize};

/// Which allocation policy the cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KvPolicy {
    /// vLLM-style demand paging (the artifact's `kv_manage=vllm`).
    Paged,
    /// Conventional max-sequence-length preallocation
    /// (the artifact's `kv_manage=max`).
    MaxLen {
        /// Tokens reserved per request regardless of actual length.
        max_seq: usize,
    },
}

/// KV-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KvCacheConfig {
    /// Allocation policy.
    pub policy: KvPolicy,
    /// Tokens per page.
    pub page_tokens: usize,
    /// Device bytes available for KV storage (aggregate across the system).
    pub capacity_bytes: u64,
    /// KV bytes one token occupies (all layers, K and V).
    pub kv_bytes_per_token: u64,
}

impl KvCacheConfig {
    /// Creates a paged configuration with 16-token pages.
    pub fn paged(capacity_bytes: u64, kv_bytes_per_token: u64) -> Self {
        Self { policy: KvPolicy::Paged, page_tokens: 16, capacity_bytes, kv_bytes_per_token }
    }

    /// Creates a max-length preallocation configuration.
    pub fn max_len(capacity_bytes: u64, kv_bytes_per_token: u64, max_seq: usize) -> Self {
        Self {
            policy: KvPolicy::MaxLen { max_seq },
            page_tokens: 16,
            capacity_bytes,
            kv_bytes_per_token,
        }
    }

    /// Bytes per page.
    pub fn page_bytes(&self) -> u64 {
        self.page_tokens as u64 * self.kv_bytes_per_token
    }

    /// Total pages the capacity holds.
    pub fn total_pages(&self) -> usize {
        (self.capacity_bytes / self.page_bytes().max(1)) as usize
    }
}

/// A request's cache residency record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct KvEntry {
    pages: usize,
    tokens: usize,
    on_host: bool,
}

/// An eviction or reload decision, in bytes, for the graph converter to
/// turn into host memory-transfer operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvTransfer {
    /// The affected request.
    pub request: u64,
    /// Bytes moved between device and host.
    pub bytes: u64,
    /// Pages moved.
    pub pages: usize,
}

/// Errors from cache operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Not enough free pages; the caller should evict and retry.
    OutOfMemory,
    /// The request is not resident on the device.
    NotResident,
    /// The request is unknown to the cache.
    Unknown,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::OutOfMemory => write!(f, "insufficient free KV pages"),
            KvError::NotResident => write!(f, "request KV is not resident on device"),
            KvError::Unknown => write!(f, "request unknown to the KV cache"),
        }
    }
}

impl std::error::Error for KvError {}

/// The KV-cache manager.
///
/// # Examples
///
/// ```
/// use llmss_sched::{KvCache, KvCacheConfig};
///
/// // Room for 64 pages of 16 tokens at 1 KiB/token.
/// let cfg = KvCacheConfig::paged(64 * 16 * 1024, 1024);
/// let mut kv = KvCache::new(cfg);
/// assert!(kv.try_admit(0, 100)); // 100 tokens -> 7 pages
/// assert_eq!(kv.used_pages(), 7);
/// kv.release(0);
/// assert_eq!(kv.used_pages(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct KvCache {
    config: KvCacheConfig,
    entries: FnvHashMap<u64, KvEntry>,
    /// Admission order of currently-known requests (eviction picks the
    /// most recently admitted resident entry).
    order: Vec<u64>,
    free_pages: usize,
}

impl KvCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero pages.
    pub fn new(config: KvCacheConfig) -> Self {
        let total = config.total_pages();
        assert!(total > 0, "KV capacity must hold at least one page");
        Self { config, entries: FnvHashMap::default(), order: Vec::new(), free_pages: total }
    }

    /// The configuration.
    pub fn config(&self) -> &KvCacheConfig {
        &self.config
    }

    /// Pages currently free.
    pub fn free_pages(&self) -> usize {
        self.free_pages
    }

    /// Pages currently allocated on device.
    pub fn used_pages(&self) -> usize {
        self.config.total_pages() - self.free_pages
    }

    /// Device KV utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        self.used_pages() as f64 / self.config.total_pages() as f64
    }

    /// Pages needed to hold `tokens` under the active policy.
    pub fn pages_for(&self, tokens: usize) -> usize {
        let effective = match self.config.policy {
            KvPolicy::Paged => tokens,
            KvPolicy::MaxLen { max_seq } => max_seq,
        };
        effective.div_ceil(self.config.page_tokens).max(1)
    }

    /// Tries to admit a request with `tokens` of prompt KV; returns whether
    /// the pages were allocated.
    ///
    /// # Panics
    ///
    /// Panics if the request was already admitted.
    pub fn try_admit(&mut self, request: u64, tokens: usize) -> bool {
        assert!(!self.entries.contains_key(&request), "request {request} already admitted");
        let pages = self.pages_for(tokens);
        if pages > self.free_pages {
            return false;
        }
        self.free_pages -= pages;
        self.entries.insert(request, KvEntry { pages, tokens, on_host: false });
        self.order.push(request);
        true
    }

    /// Appends one generated token to a resident request, allocating a new
    /// page if the current ones are full.
    ///
    /// Returns the number of newly allocated pages (0 or 1).
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfMemory`] if a page is needed and none is free;
    /// [`KvError::NotResident`] / [`KvError::Unknown`] for bad targets.
    pub fn append_token(&mut self, request: u64) -> Result<usize, KvError> {
        let page_tokens = self.config.page_tokens;
        let policy = self.config.policy;
        let entry = self.entries.get_mut(&request).ok_or(KvError::Unknown)?;
        if entry.on_host {
            return Err(KvError::NotResident);
        }
        match policy {
            KvPolicy::MaxLen { max_seq } => {
                // Pages were reserved up front; growth is free until the
                // hard max_seq limit.
                entry.tokens = (entry.tokens + 1).min(max_seq);
                Ok(0)
            }
            KvPolicy::Paged => {
                if entry.tokens + 1 > entry.pages * page_tokens {
                    if self.free_pages == 0 {
                        return Err(KvError::OutOfMemory);
                    }
                    self.free_pages -= 1;
                    entry.pages += 1;
                    entry.tokens += 1;
                    Ok(1)
                } else {
                    entry.tokens += 1;
                    Ok(0)
                }
            }
        }
    }

    /// Evicts the most recently admitted resident request (other than
    /// `except`, if given), freeing its pages.
    ///
    /// Returns the transfer record, or `None` if no evictable victim
    /// exists.
    pub fn evict_victim(&mut self, except: Option<u64>) -> Option<KvTransfer> {
        let victim = self.order.iter().rev().copied().find(|id| {
            Some(*id) != except && self.entries.get(id).is_some_and(|e| !e.on_host)
        })?;
        let entry = self.entries.get_mut(&victim)?;
        entry.on_host = true;
        let pages = entry.pages;
        self.free_pages += pages;
        Some(KvTransfer {
            request: victim,
            bytes: pages as u64 * self.config.page_bytes(),
            pages,
        })
    }

    /// Reloads an evicted request's pages onto the device.
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfMemory`] if the pages do not fit;
    /// [`KvError::Unknown`] / [`KvError::NotResident`] for bad targets
    /// (reloading a resident request is an error).
    pub fn reload(&mut self, request: u64) -> Result<KvTransfer, KvError> {
        let entry = self.entries.get_mut(&request).ok_or(KvError::Unknown)?;
        if !entry.on_host {
            return Err(KvError::NotResident);
        }
        if entry.pages > self.free_pages {
            return Err(KvError::OutOfMemory);
        }
        entry.on_host = false;
        self.free_pages -= entry.pages;
        Ok(KvTransfer {
            request,
            bytes: entry.pages as u64 * self.config.page_bytes(),
            pages: entry.pages,
        })
    }

    /// Whether a request's KV is resident on device.
    pub fn is_resident(&self, request: u64) -> bool {
        self.entries.get(&request).is_some_and(|e| !e.on_host)
    }

    /// Tokens currently cached for a request (device or host).
    pub fn tokens_of(&self, request: u64) -> Option<usize> {
        self.entries.get(&request).map(|e| e.tokens)
    }

    /// Releases a finished request's pages entirely.
    pub fn release(&mut self, request: u64) {
        if let Some(e) = self.entries.remove(&request) {
            if !e.on_host {
                self.free_pages += e.pages;
            }
            self.order.retain(|&id| id != request);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paged(pages: usize) -> KvCache {
        // 1 token = 1 KiB, 16-token pages.
        KvCache::new(KvCacheConfig::paged(pages as u64 * 16 * 1024, 1024))
    }

    #[test]
    fn admit_allocates_ceil_pages() {
        let mut kv = paged(10);
        assert!(kv.try_admit(0, 17)); // 2 pages
        assert_eq!(kv.used_pages(), 2);
        assert!(kv.try_admit(1, 16)); // exactly 1 page
        assert_eq!(kv.used_pages(), 3);
    }

    #[test]
    fn admission_fails_when_full_without_side_effects() {
        let mut kv = paged(4);
        assert!(kv.try_admit(0, 48)); // 3 pages
        assert!(!kv.try_admit(1, 32)); // needs 2, only 1 free
        assert_eq!(kv.used_pages(), 3);
        assert!(!kv.is_resident(1));
    }

    #[test]
    fn append_crosses_page_boundary() {
        let mut kv = paged(4);
        kv.try_admit(0, 16);
        assert_eq!(kv.append_token(0).unwrap(), 1); // 17th token: new page
        assert_eq!(kv.append_token(0).unwrap(), 0); // 18th: fits
        assert_eq!(kv.tokens_of(0), Some(18));
    }

    #[test]
    fn append_oom_then_evict_then_retry() {
        let mut kv = paged(2);
        kv.try_admit(0, 16);
        kv.try_admit(1, 16);
        assert_eq!(kv.append_token(0).unwrap_err(), KvError::OutOfMemory);
        let ev = kv.evict_victim(Some(0)).unwrap();
        assert_eq!(ev.request, 1);
        assert_eq!(ev.pages, 1);
        assert_eq!(kv.append_token(0).unwrap(), 1);
    }

    #[test]
    fn eviction_picks_most_recently_admitted() {
        let mut kv = paged(6);
        kv.try_admit(0, 16);
        kv.try_admit(1, 16);
        kv.try_admit(2, 16);
        assert_eq!(kv.evict_victim(None).unwrap().request, 2);
        assert_eq!(kv.evict_victim(None).unwrap().request, 1);
        assert_eq!(kv.evict_victim(None).unwrap().request, 0);
        assert_eq!(kv.evict_victim(None), None);
    }

    #[test]
    fn reload_restores_residency() {
        let mut kv = paged(4);
        kv.try_admit(0, 32);
        let ev = kv.evict_victim(None).unwrap();
        assert!(!kv.is_resident(0));
        assert_eq!(kv.free_pages(), 4);
        let rl = kv.reload(0).unwrap();
        assert_eq!(rl.bytes, ev.bytes);
        assert!(kv.is_resident(0));
        assert_eq!(kv.reload(0).unwrap_err(), KvError::NotResident);
    }

    #[test]
    fn release_frees_device_pages_only_once() {
        let mut kv = paged(4);
        kv.try_admit(0, 32);
        kv.evict_victim(None);
        kv.release(0); // pages already on host; free count unchanged
        assert_eq!(kv.free_pages(), 4);
        kv.try_admit(1, 16);
        kv.release(1);
        assert_eq!(kv.free_pages(), 4);
    }

    #[test]
    fn max_len_policy_reserves_up_front() {
        let cfg = KvCacheConfig::max_len(64 * 16 * 1024, 1024, 512);
        let mut kv = KvCache::new(cfg);
        // 512 tokens = 32 pages regardless of the 10-token prompt.
        assert!(kv.try_admit(0, 10));
        assert_eq!(kv.used_pages(), 32);
        // Growth never allocates.
        for _ in 0..100 {
            assert_eq!(kv.append_token(0).unwrap(), 0);
        }
        assert_eq!(kv.used_pages(), 32);
    }

    #[test]
    fn paged_admits_more_requests_than_max_len() {
        // The paper's vLLM argument: paging admits strictly larger batches.
        let capacity = 128u64 * 16 * 1024;
        let mut paged = KvCache::new(KvCacheConfig::paged(capacity, 1024));
        let mut maxlen = KvCache::new(KvCacheConfig::max_len(capacity, 1024, 512));
        let mut p = 0;
        let mut m = 0;
        for id in 0..64 {
            if paged.try_admit(id, 64) {
                p += 1;
            }
            if maxlen.try_admit(id, 64) {
                m += 1;
            }
        }
        assert!(p > 4 * m, "paged {p} vs maxlen {m}");
    }

    #[test]
    #[should_panic(expected = "already admitted")]
    fn double_admission_panics() {
        let mut kv = paged(4);
        kv.try_admit(0, 16);
        kv.try_admit(0, 16);
    }
}
