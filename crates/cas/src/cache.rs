//! A per-node partial image cache: the manifest hierarchy is always
//! resident, block data is fetched on demand and evicted LRU under a
//! byte budget — the realize-rs "Unreal cache" shape.

use std::collections::HashMap;

use bytes::Bytes;
use now_sim::{IdBuildHasher, LruCache, Touch};

use crate::manifest::ImageManifest;
use crate::store::BlockHash;

/// Counters of one [`PartialCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartialCacheStats {
    /// Lookups that found the block resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks inserted.
    pub inserts: u64,
    /// Blocks evicted to respect the budget.
    pub evictions: u64,
    /// Bytes evicted to respect the budget.
    pub evicted_bytes: u64,
}

/// One node's view of an image: the manifest (paths, sizes, chunk
/// hashes) is always resident and never evicted; chunk *data* is cached
/// under `budget_bytes` with LRU eviction. A node can therefore list and
/// stat every file of an image it has barely downloaded.
#[derive(Debug, Clone)]
pub struct PartialCache {
    manifest: ImageManifest,
    budget_bytes: u64,
    used_bytes: u64,
    /// Resident data keyed by hash. Never iterated in hash-table order.
    blocks: HashMap<BlockHash, Bytes, IdBuildHasher>,
    /// Recency order of the resident blocks, with one slot per distinct
    /// manifest block: a cache holds only its own manifest's blocks, so
    /// the byte budget, not the slot count, is what evicts.
    lru: LruCache<BlockHash>,
    stats: PartialCacheStats,
}

impl PartialCache {
    /// An empty cache for `manifest` holding at most `budget_bytes` of
    /// block data.
    pub fn new(manifest: ImageManifest, budget_bytes: u64) -> Self {
        let slots = manifest.unique_blocks().len().max(1);
        PartialCache {
            manifest,
            budget_bytes,
            used_bytes: 0,
            blocks: HashMap::with_capacity_and_hasher(slots, IdBuildHasher::default()),
            lru: LruCache::new(slots),
            stats: PartialCacheStats::default(),
        }
    }

    /// The always-resident manifest.
    pub fn manifest(&self) -> &ImageManifest {
        &self.manifest
    }

    /// The data budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Resident block-data bytes (never exceeds the budget once a second
    /// block exists to evict).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Resident blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether no block data is resident.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether `hash` is resident, without touching recency.
    pub fn contains(&self, hash: BlockHash) -> bool {
        self.blocks.contains_key(&hash)
    }

    /// The block's data if resident, touching its recency (both local
    /// reads and peer serves count as use).
    pub fn get(&mut self, hash: BlockHash) -> Option<Bytes> {
        match self.blocks.get(&hash) {
            Some(bytes) => {
                self.stats.hits += 1;
                self.lru.touch(hash, false);
                Some(bytes.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a fetched block, evicting least-recently-used blocks until
    /// the budget holds again; returns the evicted hashes (oldest first).
    /// The newly inserted block is never its own victim, so a single
    /// over-budget block stays resident until something else arrives.
    pub fn insert(&mut self, hash: BlockHash, bytes: Bytes) -> Vec<BlockHash> {
        if self.blocks.contains_key(&hash) {
            return Vec::new();
        }
        self.stats.inserts += 1;
        self.used_bytes += bytes.len() as u64;
        self.blocks.insert(hash, bytes);
        let mut evicted = Vec::new();
        // Only a block from outside the manifest can overflow the slots.
        if let Touch::MissEvicted { victim, .. } = self.lru.touch(hash, false) {
            self.evict(victim, &mut evicted);
        }
        // The new block is the most recent, so with two or more resident
        // the least recent is another block.
        while self.used_bytes > self.budget_bytes && self.lru.len() > 1 {
            let victim = *self.lru.lru().expect("blocks resident");
            self.lru.remove(&victim);
            self.evict(victim, &mut evicted);
        }
        evicted
    }

    /// Drops `victim`'s data, already unlinked from the recency order.
    fn evict(&mut self, victim: BlockHash, evicted: &mut Vec<BlockHash>) {
        let bytes = self.blocks.remove(&victim).expect("indexed by lru");
        self.used_bytes -= bytes.len() as u64;
        self.stats.evictions += 1;
        self.stats.evicted_bytes += bytes.len() as u64;
        evicted.push(victim);
    }

    /// Drops every resident block — a node crash losing its cache (the
    /// manifest, like any flist, survives on the registry and stays
    /// resident here). Returns the dropped hashes in hash order.
    pub fn clear(&mut self) -> Vec<BlockHash> {
        let mut dropped: Vec<BlockHash> = self.blocks.drain().map(|(hash, _)| hash).collect();
        dropped.sort_unstable();
        for hash in &dropped {
            self.lru.remove(hash);
        }
        self.used_bytes = 0;
        dropped
    }

    /// Distinct manifest blocks not yet resident.
    pub fn missing(&self) -> usize {
        self.manifest
            .unique_blocks()
            .iter()
            .filter(|h| !self.blocks.contains_key(h))
            .count()
    }

    /// Counters so far.
    pub fn stats(&self) -> PartialCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::BlockStore;

    fn cache(budget: u64) -> (PartialCache, BlockStore) {
        let mut store = BlockStore::new(3, 8);
        let files = vec![("/a".to_string(), (0u8..64).collect::<Vec<u8>>())];
        let manifest = ImageManifest::build("img", &files, &mut store);
        (PartialCache::new(manifest, budget), store)
    }

    #[test]
    fn lru_eviction_respects_the_budget() {
        let (mut cache, store) = cache(16); // room for two 8-byte chunks
        let hashes = cache.manifest().unique_blocks();
        assert_eq!(hashes.len(), 8);
        for &h in &hashes[..2] {
            assert!(cache.insert(h, store.get(h).unwrap()).is_empty());
        }
        // Touch the first chunk so the second becomes LRU.
        assert!(cache.get(hashes[0]).is_some());
        let evicted = cache.insert(hashes[2], store.get(hashes[2]).unwrap());
        assert_eq!(evicted, vec![hashes[1]], "LRU victim");
        assert!(cache.used_bytes() <= 16);
        assert!(cache.contains(hashes[0]));
        assert!(!cache.contains(hashes[1]));
    }

    #[test]
    fn manifest_stays_resident_through_clear() {
        let (mut cache, store) = cache(64);
        let hashes = cache.manifest().unique_blocks();
        for &h in &hashes {
            cache.insert(h, store.get(h).unwrap());
        }
        assert_eq!(cache.missing(), 0);
        let dropped = cache.clear();
        assert_eq!(dropped.len(), 8);
        assert_eq!(cache.used_bytes(), 0);
        assert_eq!(cache.missing(), 8, "data gone");
        assert_eq!(cache.manifest().entries.len(), 1, "hierarchy resident");
    }

    #[test]
    fn stats_conserve_blocks() {
        let (mut cache, store) = cache(24);
        let hashes = cache.manifest().unique_blocks();
        for &h in &hashes {
            cache.insert(h, store.get(h).unwrap());
        }
        let s = cache.stats();
        assert_eq!(s.inserts, 8);
        assert_eq!(
            s.inserts - s.evictions,
            cache.len() as u64,
            "inserted minus evicted must equal resident"
        );
        assert!(cache.used_bytes() <= 24);
    }
}
