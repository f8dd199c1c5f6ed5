//! Property tests: invariants the content-addressed store, the partial
//! cache, and the distribution strategies must hold for every input.

use bytes::Bytes;
use now_cas::{
    BlockHash, BlockStore, CasEvent, CooperativeFetch, FetchConfig, FetchStrategy, ImageCatalog,
    ImageCatalogSpec, ImageManifest, PartialCache, RegistryFetch,
};
use now_sim::{Engine, SimTime};
use proptest::prelude::*;

/// Runs one distribution to completion in fixed-cost mode and returns
/// the delivered-content digest.
fn distribute_digest(strategy: FetchStrategy, fetchers: u32, budget: u64, seed: u64) -> u64 {
    let catalog = ImageCatalog::generate(&ImageCatalogSpec::smoke(seed));
    let config = FetchConfig::new(fetchers, 2, budget, seed ^ 0x9e37_79b9);
    let mut engine: Engine<CasEvent> = Engine::new();
    let id = match strategy {
        FetchStrategy::Registry => engine.register(RegistryFetch::new(catalog, config)),
        FetchStrategy::Cooperative => engine.register(CooperativeFetch::new(catalog, config)),
    };
    engine.schedule_at(id, SimTime::ZERO, CasEvent::Start);
    engine.run();
    match strategy {
        FetchStrategy::Registry => {
            let core = engine.component::<RegistryFetch>(id).core();
            assert!(core.complete(), "every fetcher must drain its plan");
            assert_eq!(core.stats().verify_failures, 0, "no corrupt deliveries");
            core.content_digest()
        }
        FetchStrategy::Cooperative => {
            let core = engine.component::<CooperativeFetch>(id).core();
            assert!(core.complete(), "every fetcher must drain its plan");
            assert_eq!(core.stats().verify_failures, 0, "no corrupt deliveries");
            core.content_digest()
        }
    }
}

/// A manifest over one synthetic file, for cache tests.
fn manifest_for(blocks: &[Vec<u8>], store: &mut BlockStore) -> ImageManifest {
    let data: Vec<u8> = blocks.concat();
    ImageManifest::build("img", &[("/data".to_string(), data)], store)
}

proptest! {
    /// The side-by-side kernel gives every chunk exactly its one-lane
    /// hash, whatever the seed and the mix of lengths, and so does the
    /// multi-chunk helper when its lanes refill (six chunks on its two lanes).
    #[test]
    fn lane_hashing_matches_one_lane(
        seed in any::<u64>(),
        a in prop::collection::vec(any::<u8>(), 0..4096),
        b in prop::collection::vec(any::<u8>(), 0..4096),
        c in prop::collection::vec(any::<u8>(), 0..4096),
        d in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let chunks = [&a[..], &b[..], &c[..], &d[..]];
        let one_lane: Vec<BlockHash> = chunks.iter().map(|c| BlockHash::of(seed, c)).collect();
        prop_assert_eq!(&BlockHash::of_lanes(seed, chunks)[..], &one_lane[..]);
        prop_assert_eq!(&BlockHash::of_chunks(seed, chunks)[..], &one_lane[..]);
        let six = [&d[..], &a[..], &c[..], &b[..], &b[..], &a[..]];
        let want: Vec<BlockHash> = six.iter().map(|c| BlockHash::of(seed, c)).collect();
        prop_assert_eq!(BlockHash::of_chunks(seed, six), want);
    }

    /// Chunking then reassembling through the store round-trips every
    /// byte, whatever the data and chunk size.
    #[test]
    fn chunk_reassemble_round_trips(
        data in prop::collection::vec(any::<u8>(), 0..4096),
        chunk in 1usize..512,
        seed in any::<u64>(),
    ) {
        let mut store = BlockStore::new(seed, chunk);
        let hashes = store.add_bytes(&data);
        prop_assert_eq!(hashes.len(), data.len().div_ceil(chunk));
        let mut rebuilt = Vec::with_capacity(data.len());
        for h in &hashes {
            let bytes = store.get(*h).expect("just inserted");
            rebuilt.extend_from_slice(&bytes);
        }
        prop_assert_eq!(rebuilt, data);
    }

    /// Reference counting conserves blocks: total refs equal inserts
    /// minus successful releases, and a chunk dies exactly with its
    /// last reference.
    #[test]
    fn refcounts_conserve_blocks(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..32), 1..40),
        releases in prop::collection::vec(any::<usize>(), 0..80),
        seed in any::<u64>(),
    ) {
        let mut store = BlockStore::new(seed, 64);
        let hashes: Vec<_> = chunks
            .iter()
            .map(|c| store.insert(Bytes::copy_from_slice(c)))
            .collect();
        let mut live = chunks.len() as i64;
        for idx in &releases {
            let h = hashes[idx % hashes.len()];
            if store.release(h) {
                live -= 1;
            }
        }
        prop_assert_eq!(store.total_refs() as i64, live);
        prop_assert_eq!(
            store.stats().releases as i64,
            chunks.len() as i64 - live
        );
        for h in &hashes {
            // Present iff some reference survives; refs never negative.
            prop_assert_eq!(store.contains(*h), store.refs(*h) > 0);
        }
        // Unique bytes always match the surviving content exactly.
        let resident: u64 = store
            .hashes()
            .map(|h| store.get(h).expect("listed").len() as u64)
            .sum();
        prop_assert_eq!(store.stats().unique_bytes, resident);
    }

    /// The partial cache never exceeds its budget (beyond the single
    /// oversized-block allowance), tracks used bytes exactly, and
    /// survives arbitrary get/insert/clear ("node crash") sequences.
    #[test]
    fn partial_cache_budget_invariants(
        blocks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..64), 2..24),
        ops in prop::collection::vec((0u8..8, any::<usize>()), 1..120),
        budget in 16u64..256,
        seed in any::<u64>(),
    ) {
        let mut store = BlockStore::new(seed, 32);
        let manifest = manifest_for(&blocks, &mut store);
        let hashes = manifest.unique_blocks();
        let mut cache = PartialCache::new(manifest, budget);
        for (op, idx) in &ops {
            let h = hashes[idx % hashes.len()];
            match op {
                0 => {
                    // A fault: the node loses its block data, never its
                    // manifest.
                    let dropped = cache.clear();
                    prop_assert_eq!(cache.used_bytes(), 0);
                    prop_assert_eq!(cache.len(), 0);
                    prop_assert_eq!(cache.missing(), hashes.len());
                    prop_assert!(dropped.len() <= hashes.len());
                }
                1 | 2 => {
                    let got = cache.get(h);
                    prop_assert_eq!(got.is_some(), cache.contains(h));
                    if let Some(bytes) = got {
                        prop_assert_eq!(
                            &bytes[..],
                            &store.get(h).expect("manifest block")[..]
                        );
                    }
                }
                _ => {
                    let bytes = store.get(h).expect("manifest block");
                    cache.insert(h, bytes);
                    prop_assert!(cache.contains(h), "fresh insert stays resident");
                }
            }
            // Budget holds whenever more than one block is resident.
            if cache.len() > 1 {
                prop_assert!(cache.used_bytes() <= budget);
            }
            // Used bytes are exactly the resident blocks' sizes.
            let resident: u64 = hashes
                .iter()
                .filter(|h| cache.contains(**h))
                .map(|h| store.get(*h).expect("manifest block").len() as u64)
                .sum();
            prop_assert_eq!(cache.used_bytes(), resident);
            prop_assert_eq!(cache.missing() + cache.len(), hashes.len());
        }
    }

    /// Registry-only and cooperative distribution deliver byte-identical
    /// images for any cluster size, budget, and catalog seed — eviction
    /// pressure included.
    #[test]
    fn strategies_agree_on_content(
        fetchers in 1u32..10,
        budget_blocks in 1u64..8,
        seed in 0u64..1000,
    ) {
        let budget = budget_blocks * 16 * 1024;
        let registry = distribute_digest(FetchStrategy::Registry, fetchers, budget, seed);
        let cooperative =
            distribute_digest(FetchStrategy::Cooperative, fetchers, budget, seed);
        prop_assert_eq!(registry, cooperative);
        // And the digest is a function of the catalog alone, not of the
        // budget: an unconstrained run delivers the same bytes.
        let roomy = distribute_digest(FetchStrategy::Cooperative, fetchers, u64::MAX, seed);
        prop_assert_eq!(cooperative, roomy);
    }
}
