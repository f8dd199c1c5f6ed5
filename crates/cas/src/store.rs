//! The content-addressed block store: seeded chunk hashing, fixed-size
//! chunking, and a deduplicating refcounted index.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Default chunk size: 16 KB, two xFS blocks — small enough that the
/// base-layer sharing of real images shows up, large enough that the
/// per-chunk fabric overhead stays a minor term.
pub const DEFAULT_CHUNK_BYTES: usize = 16 * 1024;

/// A stable 64-bit content hash of one chunk.
///
/// FNV-1a over the chunk bytes, mixed with the store's seed and finished
/// with a splitmix64-style avalanche — deterministic across platforms and
/// processes, with no external hashing dependency. The seed keys the hash
/// space so tests can prove nothing depends on particular hash values.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct BlockHash(pub u64);

/// FNV-1a offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// Chains [`BlockHash::of_chunks`] runs side by side. One FNV-1a step is
/// an xor and a multiply, about four cycles, and a core starts one
/// multiply per cycle. Two chains use half of those multiply slots and
/// hash twice as fast as one; like the one-lane loop, they slow only as
/// much as the core does when other work shares it. Three or four chains
/// hash up to 3.7 times as fast as one, but they crowd the multiplier,
/// and a run's time then swings far more from one run to the next
/// (EXPERIMENTS.md, "Lane count and run-to-run spread").
pub(crate) const LANES: usize = 2;

impl BlockHash {
    /// Hashes `bytes` under `seed`: the one-lane case of
    /// [`BlockHash::of_lanes`].
    pub fn of(seed: u64, bytes: &[u8]) -> BlockHash {
        let [hash] = BlockHash::of_lanes(seed, [bytes]);
        hash
    }

    /// Hashes `N` chunks at once, each to exactly the value
    /// [`BlockHash::of`] gives it.
    ///
    /// FNV-1a is one serial chain per chunk, each step waiting on the
    /// previous multiply. Here the `N` chains advance side by side, eight
    /// bytes per lane at a time, one xor-multiply step per byte and lane
    /// in turn, so the multiplies of different chunks overlap. Lengths
    /// may differ: a lane whose chunk is done shadows a busy one until
    /// every chunk is.
    ///
    /// ```
    /// use now_cas::BlockHash;
    ///
    /// let [a, b] = BlockHash::of_lanes(3, [&b"short"[..], &[7u8; 100][..]]);
    /// assert_eq!(a, BlockHash::of(3, b"short"));
    /// assert_eq!(b, BlockHash::of(3, &[7u8; 100]));
    /// ```
    pub fn of_lanes<const N: usize>(seed: u64, chunks: [&[u8]; N]) -> [BlockHash; N] {
        let mut out = [BlockHash::default(); N];
        hash_lanes::<N>(seed, chunks.into_iter(), |i, hash| out[i] = hash);
        out
    }

    /// Hashes every chunk of `chunks`, in order, two lanes at a time
    /// (see [`BlockHash::of_lanes`]): a lane takes the next chunk as soon
    /// as its own is done, so short tails do not stall the others.
    pub fn of_chunks<'a>(seed: u64, chunks: impl IntoIterator<Item = &'a [u8]>) -> Vec<BlockHash> {
        let chunks = chunks.into_iter();
        let mut out = Vec::with_capacity(chunks.size_hint().0);
        hash_lanes::<LANES>(seed, chunks, |i, hash| {
            if out.len() <= i {
                out.resize(i + 1, BlockHash::default());
            }
            out[i] = hash;
        });
        out
    }
}

/// The hashing kernel: `N` FNV-1a chains side by side over `chunks`. An
/// idle lane takes the next chunk; a lane with less than a word left
/// finishes byte by byte and reports `emit(index, hash)`, where `index`
/// is the chunk's position in `chunks`.
#[inline(always)]
fn hash_lanes<'a, const N: usize>(
    seed: u64,
    mut chunks: impl Iterator<Item = &'a [u8]>,
    mut emit: impl FnMut(usize, BlockHash),
) {
    let start = OFFSET ^ seed.wrapping_mul(PRIME);
    let mut state = [start; N];
    let mut rest: [&[u8]; N] = [&[]; N];
    let mut index: [Option<usize>; N] = [None; N];
    let mut taken = 0;
    loop {
        let mut words = usize::MAX;
        let mut busy = None;
        for lane in 0..N {
            loop {
                match index[lane] {
                    None => {
                        let Some(chunk) = chunks.next() else { break };
                        index[lane] = Some(taken);
                        taken += 1;
                        state[lane] = start;
                        rest[lane] = chunk;
                    }
                    Some(i) if rest[lane].len() < 8 => {
                        let mut h = state[lane];
                        for &b in rest[lane] {
                            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
                        }
                        emit(i, avalanche(h));
                        index[lane] = None;
                    }
                    Some(_) => {
                        words = words.min(rest[lane].len() / 8);
                        busy = Some(lane);
                        break;
                    }
                }
            }
        }
        let Some(busy) = busy else { return };
        // Idle lanes shadow a busy one; their state is never emitted.
        for lane in 0..N {
            if index[lane].is_none() {
                rest[lane] = rest[busy];
            }
        }
        // Each byte is read straight from memory: a load, an xor and a
        // multiply per byte and lane. Shifting bytes out of a loaded word
        // costs two more instructions each, which makes the loop wait on
        // instruction throughput rather than on the multiply chain, and
        // its speed then swings with whatever shares the core.
        for w in 0..words {
            let word: [&[u8; 8]; N] = std::array::from_fn(|lane| {
                rest[lane][w * 8..w * 8 + 8]
                    .try_into()
                    .expect("an 8-byte word")
            });
            for byte in 0..8 {
                for (h, word) in state.iter_mut().zip(&word) {
                    *h = (*h ^ u64::from(word[byte])).wrapping_mul(PRIME);
                }
            }
        }
        for r in &mut rest {
            *r = &r[words * 8..];
        }
    }
}

/// Splitmix64-style finish, so nearby chunks spread over the space.
fn avalanche(mut h: u64) -> BlockHash {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    BlockHash(h)
}

impl fmt::Display for BlockHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Deduplication accounting of a [`BlockStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DedupStats {
    /// Bytes offered for insertion (every reference counted).
    pub logical_bytes: u64,
    /// Bytes actually stored (unique chunks only).
    pub unique_bytes: u64,
    /// Chunk insertions offered.
    pub inserts: u64,
    /// Insertions that found their chunk already stored.
    pub dedup_hits: u64,
    /// References released.
    pub releases: u64,
}

impl DedupStats {
    /// Logical bytes per stored byte — the headline dedup factor.
    pub fn dedup_factor(&self) -> f64 {
        if self.unique_bytes == 0 {
            return 1.0;
        }
        self.logical_bytes as f64 / self.unique_bytes as f64
    }
}

#[derive(Debug, Clone)]
struct StoredBlock {
    bytes: Bytes,
    refs: u64,
}

/// A deterministic content-addressed block store.
///
/// Chunks are indexed by [`BlockHash`] in a `BTreeMap`, so every walk of
/// the store (exports, debugging dumps, gauge aggregation) is in hash
/// order whatever the insertion history — no iteration-order
/// nondeterminism can leak into reports. Each stored chunk carries a
/// reference count; [`BlockStore::release`] drops a reference and frees
/// the chunk when the last one goes.
///
/// # Example
///
/// ```
/// use now_cas::BlockStore;
///
/// let mut store = BlockStore::new(7, 4);
/// let hashes = store.add_bytes(b"aaaabbbbaaaa");
/// assert_eq!(hashes.len(), 3);
/// assert_eq!(hashes[0], hashes[2], "identical chunks share a hash");
/// assert_eq!(store.len(), 2, "and share storage");
/// assert_eq!(store.refs(hashes[0]), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BlockStore {
    seed: u64,
    chunk_bytes: usize,
    blocks: BTreeMap<BlockHash, StoredBlock>,
    stats: DedupStats,
}

impl BlockStore {
    /// An empty store hashing under `seed` and chunking at `chunk_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero.
    pub fn new(seed: u64, chunk_bytes: usize) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        BlockStore {
            seed,
            chunk_bytes,
            blocks: BTreeMap::new(),
            stats: DedupStats::default(),
        }
    }

    /// The hash-space seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fixed chunk size in bytes.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Inserts one chunk, deduplicating against existing content, and
    /// returns its hash. Each call adds one reference.
    pub fn insert(&mut self, bytes: Bytes) -> BlockHash {
        let hash = BlockHash::of(self.seed, &bytes);
        self.insert_hashed(hash, &bytes, || bytes.clone());
        hash
    }

    /// Chunks `data` at the store's chunk size and inserts every chunk
    /// (the last one may be short), returning the ordered hash list. The
    /// chunks are hashed side by side ([`BlockHash::of_chunks`]) and
    /// only new ones are copied into the store.
    pub fn add_bytes(&mut self, data: &[u8]) -> Vec<BlockHash> {
        let hashes = BlockHash::of_chunks(self.seed, data.chunks(self.chunk_bytes));
        for (&hash, chunk) in hashes.iter().zip(data.chunks(self.chunk_bytes)) {
            self.insert_hashed(hash, chunk, || Bytes::copy_from_slice(chunk));
        }
        hashes
    }

    /// Inserts `chunk`, already hashed to `hash`; `owned` makes the stored
    /// copy and runs only if the chunk is new.
    fn insert_hashed(&mut self, hash: BlockHash, chunk: &[u8], owned: impl FnOnce() -> Bytes) {
        if self.add_ref(hash) {
            debug_assert!(self.blocks[&hash].bytes == *chunk, "64-bit hash collision");
            return;
        }
        let len = chunk.len() as u64;
        self.stats.inserts += 1;
        self.stats.logical_bytes += len;
        self.stats.unique_bytes += len;
        let bytes = owned();
        self.blocks.insert(hash, StoredBlock { bytes, refs: 1 });
    }

    /// Takes one more reference to a stored chunk, accounted exactly as
    /// an insert that found it already stored. Returns `false`, changing
    /// nothing, if the hash is absent.
    pub(crate) fn add_ref(&mut self, hash: BlockHash) -> bool {
        let Some(block) = self.blocks.get_mut(&hash) else {
            return false;
        };
        block.refs += 1;
        self.stats.inserts += 1;
        self.stats.logical_bytes += block.bytes.len() as u64;
        self.stats.dedup_hits += 1;
        true
    }

    /// The bytes of a stored chunk (cheap clone of a shared buffer).
    pub fn get(&self, hash: BlockHash) -> Option<Bytes> {
        self.blocks.get(&hash).map(|b| b.bytes.clone())
    }

    /// Whether a chunk with this hash is stored.
    pub fn contains(&self, hash: BlockHash) -> bool {
        self.blocks.contains_key(&hash)
    }

    /// Live references to a chunk (0 if absent).
    pub fn refs(&self, hash: BlockHash) -> u64 {
        self.blocks.get(&hash).map_or(0, |b| b.refs)
    }

    /// Releases one reference; the chunk is freed with its last one.
    /// Returns `true` if the hash was present.
    pub fn release(&mut self, hash: BlockHash) -> bool {
        let Some(block) = self.blocks.get_mut(&hash) else {
            return false;
        };
        self.stats.releases += 1;
        block.refs -= 1;
        if block.refs == 0 {
            let freed = self.blocks.remove(&hash).expect("present above");
            self.stats.unique_bytes -= freed.bytes.len() as u64;
        }
        true
    }

    /// Unique chunks stored.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Sum of live references over all chunks.
    pub fn total_refs(&self) -> u64 {
        self.blocks.values().map(|b| b.refs).sum()
    }

    /// Stored hashes in hash order.
    pub fn hashes(&self) -> impl Iterator<Item = BlockHash> + '_ {
        self.blocks.keys().copied()
    }

    /// Dedup accounting so far.
    pub fn stats(&self) -> DedupStats {
        self.stats
    }

    /// Logical bytes per stored byte (see [`DedupStats::dedup_factor`]).
    pub fn dedup_factor(&self) -> f64 {
        self.stats.dedup_factor()
    }

    /// Approximate resident footprint: unique bytes plus index overhead.
    pub fn approx_bytes(&self) -> usize {
        self.stats.unique_bytes as usize + self.blocks.len() * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_seeded_and_content_addressed() {
        let a = BlockHash::of(1, b"hello");
        assert_eq!(a, BlockHash::of(1, b"hello"), "deterministic");
        assert_ne!(a, BlockHash::of(2, b"hello"), "seed keys the space");
        assert_ne!(a, BlockHash::of(1, b"hellp"), "content addressed");
    }

    /// Known answers captured from the byte-serial FNV-1a this kernel
    /// replaced: empty, sub-word, one-word, word-plus-tail and full-chunk
    /// inputs under several seeds.
    #[test]
    fn hash_values_are_pinned() {
        let input = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 131 + 17) as u8).collect() };
        let known: [(u64, usize, u64); 6] = [
            (0, 0, 0xf52a_15e9_a9b5_e89b),
            (42, 1, 0xbfe0_fb77_ce68_eb72),
            (7, 7, 0xe4cd_51e5_5095_99a6),
            (u64::MAX, 8, 0x2f83_ec30_5d1f_37f9),
            (0x9e37_79b9_7f4a_7c15, 9, 0xe43a_8062_7b8c_5c81),
            (42, DEFAULT_CHUNK_BYTES, 0x91d2_d448_cdf0_1c29),
        ];
        for (seed, len, want) in known {
            let bytes = input(len);
            assert_eq!(BlockHash::of(seed, &bytes), BlockHash(want), "{len} bytes");
            let [lane] = BlockHash::of_lanes(seed, [&bytes[..]]);
            assert_eq!(lane, BlockHash(want), "{len} bytes, one lane");
        }
        let inputs: Vec<Vec<u8>> = known.iter().map(|&(_, len, _)| input(len)).collect();
        let lanes = BlockHash::of_lanes(42, std::array::from_fn::<_, 6, _>(|i| &inputs[i][..]));
        let chunks = BlockHash::of_chunks(42, inputs.iter().map(Vec::as_slice));
        for (i, bytes) in inputs.iter().enumerate() {
            assert_eq!(lanes[i], BlockHash::of(42, bytes));
            assert_eq!(chunks[i], BlockHash::of(42, bytes));
        }
        assert!(BlockHash::of_chunks(42, std::iter::empty()).is_empty());
    }

    #[test]
    fn dedup_counts_references_not_copies() {
        let mut store = BlockStore::new(42, 8);
        let h1 = store.insert(Bytes::from_static(b"12345678"));
        let h2 = store.insert(Bytes::from_static(b"12345678"));
        let h3 = store.insert(Bytes::from_static(b"abcdefgh"));
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
        assert_eq!(store.len(), 2);
        assert_eq!(store.refs(h1), 2);
        assert_eq!(store.total_refs(), 3);
        let s = store.stats();
        assert_eq!(s.inserts, 3);
        assert_eq!(s.dedup_hits, 1);
        assert_eq!(s.logical_bytes, 24);
        assert_eq!(s.unique_bytes, 16);
        assert!((s.dedup_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn release_frees_only_the_last_reference() {
        let mut store = BlockStore::new(0, 4);
        let h = store.insert(Bytes::from_static(b"data"));
        store.insert(Bytes::from_static(b"data"));
        assert!(store.release(h));
        assert!(store.contains(h), "one reference left");
        assert!(store.release(h));
        assert!(!store.contains(h), "freed with the last reference");
        assert_eq!(store.stats().unique_bytes, 0);
        assert!(!store.release(h), "releasing an absent hash is reported");
    }

    #[test]
    fn chunking_splits_at_the_fixed_size_with_a_short_tail() {
        let mut store = BlockStore::new(5, 10);
        let hashes = store.add_bytes(&[7u8; 25]);
        assert_eq!(hashes.len(), 3);
        assert_eq!(store.get(hashes[0]).unwrap().len(), 10);
        assert_eq!(store.get(hashes[2]).unwrap().len(), 5, "short tail");
        assert_eq!(hashes[0], hashes[1], "identical full chunks dedup");
        assert_ne!(hashes[0], hashes[2], "the tail is its own chunk");
    }
}
