//! An exact least-recently-used cache over copyable keys.
//!
//! The workspace's one LRU: page frames in `now-mem`, file blocks in
//! `now-cache` and xFS, and the block data of `now-cas` partial caches.
//! Recency is an intrusive doubly-linked list threaded through a slab of
//! nodes, with an index from key to slot, so every operation is `O(1)`
//! and LRU order is exact (not approximate) — important because
//! cache-policy experiments compare algorithms whose differences can be
//! subtle. Slots freed by [`LruCache::remove`] are threaded onto a free
//! list through the same slab, so a miss that reuses one grows nothing.
//!
//! The index is a hash map unless the caller supplies another
//! [`LruIndex`]: a key space that is a dense range of small integers can
//! index a table directly, as [`DenseIndex`] does for `u32` keys and the
//! demand pager of `now-mem` does with its page table.

use std::collections::HashMap;
use std::hash::Hash;

use crate::IdBuildHasher;

/// The key → slot map behind an [`LruCache`].
///
/// The cache calls [`insert`](Self::insert) only for a key the index
/// does not hold, and [`remove`](Self::remove) for the keys it evicts or
/// removes. An index may keep more per key than its slot (the pager's
/// page table does), but what [`get`](Self::get) returns must change only
/// through these calls.
pub trait LruIndex<K> {
    /// The slot of resident `key`, if any.
    fn get(&self, key: &K) -> Option<u32>;
    /// Records that absent `key` now lives in `slot`.
    fn insert(&mut self, key: K, slot: u32);
    /// Forgets `key`, returning the slot it lived in.
    fn remove(&mut self, key: &K) -> Option<u32>;
    /// Number of resident keys.
    fn len(&self) -> usize;

    /// True if no key is resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The default index: a hash map on the simulator's id hasher.
impl<K: Eq + Hash> LruIndex<K> for HashMap<K, u32, IdBuildHasher> {
    #[inline]
    fn get(&self, key: &K) -> Option<u32> {
        HashMap::get(self, key).copied()
    }

    #[inline]
    fn insert(&mut self, key: K, slot: u32) {
        HashMap::insert(self, key, slot);
    }

    #[inline]
    fn remove(&mut self, key: &K) -> Option<u32> {
        HashMap::remove(self, key)
    }

    #[inline]
    fn len(&self) -> usize {
        HashMap::len(self)
    }
}

/// A table index over the `u32` keys `0..n`: one slot per key, so a
/// lookup is one array read, never a hash probe.
///
/// It fits a key space that is dense by construction, such as the Zipf
/// ranks `now-cache`'s serving workload requests. The table takes 4 bytes
/// per key in `0..n`, whether or not the key is ever resident.
///
/// # Panics
///
/// Every [`LruIndex`] method panics on a key outside `0..n`.
///
/// # Example
///
/// ```
/// use now_sim::{DenseIndex, LruCache, Touch};
///
/// let mut lru = LruCache::with_index(2, DenseIndex::new(100));
/// lru.touch(7, false);
/// lru.touch(42, false);
/// assert!(matches!(lru.touch(99, false), Touch::MissEvicted { victim: 7, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct DenseIndex {
    /// `slots[key]`: the key's slot, or `NIL` when it is not resident.
    slots: Vec<u32>,
    /// Resident keys.
    len: usize,
}

impl DenseIndex {
    /// An empty index over the keys `0..n`.
    pub fn new(n: usize) -> Self {
        DenseIndex {
            slots: vec![NIL; n],
            len: 0,
        }
    }
}

impl LruIndex<u32> for DenseIndex {
    #[inline]
    fn get(&self, key: &u32) -> Option<u32> {
        let slot = self.slots[*key as usize];
        (slot != NIL).then_some(slot)
    }

    #[inline]
    fn insert(&mut self, key: u32, slot: u32) {
        self.slots[key as usize] = slot;
        self.len += 1;
    }

    #[inline]
    fn remove(&mut self, key: &u32) -> Option<u32> {
        let slot = std::mem::replace(&mut self.slots[*key as usize], NIL);
        (slot != NIL).then(|| {
            self.len -= 1;
            slot
        })
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

/// The result of touching a key in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch<K> {
    /// The key was present.
    Hit,
    /// The key was inserted; nothing was evicted (cache had room).
    MissInserted,
    /// The key was inserted and the least-recently-used entry was evicted.
    MissEvicted {
        /// The evicted key.
        victim: K,
        /// Whether the victim had been marked dirty.
        dirty: bool,
    },
}

/// The end of a list: no slot.
const NIL: u32 = u32::MAX;

/// One slab slot: a resident entry linked into the recency list, or a
/// free slot linked into the free list through `next`.
#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    dirty: bool,
    prev: u32,
    next: u32,
}

/// An exact-LRU cache mapping keys to a dirty bit.
///
/// `I` is the key → slot index: a hash map by default, or any
/// [`LruIndex`] passed to [`LruCache::with_index`].
///
/// # Example
///
/// ```
/// use now_sim::LruCache;
///
/// let mut lru = LruCache::new(2);
/// lru.touch(1, false);
/// lru.touch(2, false);
/// lru.touch(1, false);          // 1 is now most recent
/// let t = lru.touch(3, false);  // evicts 2, the LRU
/// assert!(matches!(t, now_sim::Touch::MissEvicted { victim: 2, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache<K, I = HashMap<K, u32, IdBuildHasher>> {
    capacity: usize,
    /// Resident entries and free slots; grows to at most `capacity`.
    nodes: Vec<Node<K>>,
    /// key -> slot of its resident node.
    index: I,
    /// Least-recently-used resident slot.
    head: u32,
    /// Most-recently-used resident slot.
    tail: u32,
    /// First free slot.
    free: u32,
}

impl<K: Eq + Hash + Copy> LruCache<K> {
    /// Creates a cache holding at most `capacity` keys, indexed by a hash
    /// map.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        LruCache::with_index(
            capacity,
            HashMap::with_capacity_and_hasher(capacity, IdBuildHasher::default()),
        )
    }
}

impl<K: Copy, I: LruIndex<K>> LruCache<K, I> {
    /// Creates a cache holding at most `capacity` keys over an empty
    /// `index`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `index` is not empty.
    pub fn with_index(capacity: usize, index: I) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(index.is_empty(), "an LRU index starts empty");
        LruCache {
            capacity,
            nodes: Vec::new(),
            index,
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// The key → slot index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The key → slot index, for an index that keeps more per key than
    /// its slot. The caller must leave the key → slot map as it is.
    pub fn index_mut(&mut self) -> &mut I {
        &mut self.index
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True if `key` is resident (does not affect recency).
    pub fn contains(&self, key: &K) -> bool {
        self.index.get(key).is_some()
    }

    /// Accesses `key`, making it most-recently-used; inserts on miss,
    /// evicting the LRU entry if full. `write` marks the entry dirty
    /// (sticky until eviction or removal).
    pub fn touch(&mut self, key: K, write: bool) -> Touch<K> {
        if let Some(slot) = self.index.get(&key) {
            self.nodes[slot as usize].dirty |= write;
            if slot != self.tail {
                self.unlink(slot);
                self.push_back(slot);
            }
            return Touch::Hit;
        }
        if self.index.len() >= self.capacity {
            // Full: the LRU node's slot takes the new key.
            let slot = self.head;
            self.unlink(slot);
            let node = &mut self.nodes[slot as usize];
            let (victim, dirty) = (node.key, node.dirty);
            node.key = key;
            node.dirty = write;
            self.index.remove(&victim);
            self.index.insert(key, slot);
            self.push_back(slot);
            return Touch::MissEvicted { victim, dirty };
        }
        let node = Node {
            key,
            dirty: write,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("slot index fits in u32")
        } else {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = node;
            slot
        };
        self.index.insert(key, slot);
        self.push_back(slot);
        Touch::MissInserted
    }

    /// Removes `key` if present, returning its dirty bit.
    pub fn remove(&mut self, key: &K) -> Option<bool> {
        let slot = self.index.remove(key)?;
        self.unlink(slot);
        let node = &mut self.nodes[slot as usize];
        node.next = self.free;
        self.free = slot;
        Some(node.dirty)
    }

    /// The least-recently-used key, if any (does not affect recency).
    pub fn lru(&self) -> Option<&K> {
        (self.head != NIL).then(|| &self.nodes[self.head as usize].key)
    }

    /// Iterates over resident keys in LRU-to-MRU order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        let mut slot = self.head;
        std::iter::from_fn(move || {
            if slot == NIL {
                return None;
            }
            let node = &self.nodes[slot as usize];
            slot = node.next;
            Some(&node.key)
        })
    }

    /// Detaches resident `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Appends `slot` at the most-recently-used end.
    fn push_back(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_basics() {
        let mut c = LruCache::new(2);
        assert_eq!(c.touch(1, false), Touch::MissInserted);
        assert_eq!(c.touch(1, false), Touch::Hit);
        assert_eq!(c.len(), 1);
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
    }

    #[test]
    fn evicts_exact_lru_order() {
        let mut c = LruCache::new(3);
        c.touch(1, false);
        c.touch(2, false);
        c.touch(3, false);
        c.touch(1, false); // order now 2,3,1
        assert_eq!(
            c.touch(4, false),
            Touch::MissEvicted {
                victim: 2,
                dirty: false
            }
        );
        assert_eq!(
            c.touch(5, false),
            Touch::MissEvicted {
                victim: 3,
                dirty: false
            }
        );
        assert!(c.contains(&1));
    }

    #[test]
    fn dirty_bit_is_sticky_and_reported_on_eviction() {
        let mut c = LruCache::new(1);
        c.touch(7, true);
        c.touch(7, false); // read does not clean it
        let t = c.touch(8, false);
        assert_eq!(
            t,
            Touch::MissEvicted {
                victim: 7,
                dirty: true
            }
        );
    }

    #[test]
    fn remove_returns_dirty_state() {
        let mut c = LruCache::new(4);
        c.touch(1, true);
        c.touch(2, false);
        assert_eq!(c.remove(&1), Some(true));
        assert_eq!(c.remove(&2), Some(false));
        assert_eq!(c.remove(&99), None);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_peek_matches_eviction_choice() {
        let mut c = LruCache::new(3);
        for k in [10, 20, 30] {
            c.touch(k, false);
        }
        c.touch(10, false);
        assert_eq!(c.lru(), Some(&20));
        let t = c.touch(40, false);
        assert!(matches!(t, Touch::MissEvicted { victim: 20, .. }));
    }

    #[test]
    fn iter_is_lru_to_mru() {
        let mut c = LruCache::new(3);
        c.touch(1, false);
        c.touch(2, false);
        c.touch(3, false);
        c.touch(1, false);
        let order: Vec<i32> = c.iter().copied().collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = LruCache::new(5);
        for k in 0..1_000 {
            c.touch(k, k % 3 == 0);
            assert!(c.len() <= 5);
        }
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn sequential_scan_bigger_than_cache_always_misses() {
        // The classic LRU pathology that makes unaided paging thrash: a
        // cyclic scan one element larger than the cache never hits.
        let mut c = LruCache::new(10);
        for _ in 0..3 {
            for k in 0..11 {
                let _ = c.touch(k, false);
            }
        }
        let mut hits = 0;
        for k in 0..11 {
            if matches!(c.touch(k, false), Touch::Hit) {
                hits += 1;
            }
        }
        assert_eq!(hits, 0, "cyclic scan defeats LRU entirely");
    }

    #[test]
    fn a_dense_index_evicts_like_the_hashed_default() {
        let mut a = LruCache::with_index(8, DenseIndex::new(64));
        let mut b = LruCache::new(8);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 64) as u32;
            if i % 5 == 0 {
                assert_eq!(a.remove(&key), b.remove(&key));
            } else {
                assert_eq!(a.touch(key, i % 3 == 0), b.touch(key, i % 3 == 0));
            }
            assert_eq!(a.len(), b.len());
        }
        assert!(a.iter().eq(b.iter()), "same recency order");
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_dense_index_rejects_a_key_outside_its_range() {
        let mut c = LruCache::with_index(4, DenseIndex::new(16));
        c.touch(15, false);
        c.touch(16, false);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        LruCache::<u32>::new(0);
    }
}
