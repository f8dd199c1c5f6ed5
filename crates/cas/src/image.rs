//! A `docker2fl`-style synthetic image catalog: several images that share
//! a seeded base layer, so the catalog's dedup factor is tunable and the
//! distribution scenario has something real to deduplicate.

use now_sim::SimRng;
use serde::{Deserialize, Serialize};

use crate::manifest::{ImageManifest, ManifestEntry};
use crate::store::{BlockStore, DEFAULT_CHUNK_BYTES};

/// Shape of a synthetic image catalog.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImageCatalogSpec {
    /// Images in the catalog (each node cold-starts one of them).
    pub images: u32,
    /// Files in the base layer, byte-identical across every image — the
    /// shared runtime/distro content dedup feeds on.
    pub base_files: u32,
    /// Per-image application files, unique content per image.
    pub app_files: u32,
    /// Mean file size in bytes; actual sizes spread deterministically
    /// over `[file_bytes / 2, file_bytes * 3 / 2]`.
    pub file_bytes: u64,
    /// Chunk size the store splits files at.
    pub chunk_bytes: usize,
    /// Seed for content, sizes, and the hash space.
    pub seed: u64,
}

impl ImageCatalogSpec {
    /// A small catalog for tests and smoke runs: 4 images sharing a
    /// 12-file base layer with 6 app files each — dedup factor ~2.
    pub fn smoke(seed: u64) -> Self {
        ImageCatalogSpec {
            images: 4,
            base_files: 12,
            app_files: 6,
            file_bytes: 48 * 1024,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            seed,
        }
    }
}

/// A generated catalog: the registry's block store holding every chunk,
/// and one manifest per image.
#[derive(Debug, Clone)]
pub struct ImageCatalog {
    /// The registry content, fully deduplicated and refcounted.
    pub store: BlockStore,
    /// One manifest per image, in image order.
    pub manifests: Vec<ImageManifest>,
}

impl ImageCatalog {
    /// Generates the catalog described by `spec`, deterministically.
    ///
    /// The base layer is generated, chunked and hashed once; every image
    /// lists it, and each image after the first takes one more reference
    /// per base chunk, counted exactly as re-inserting the identical
    /// bytes would be. App files are forked per image and unique. Dedup
    /// factor follows directly from the base/app byte ratio and the image
    /// count.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate spec (no images or no files).
    pub fn generate(spec: &ImageCatalogSpec) -> ImageCatalog {
        assert!(spec.images > 0, "catalog needs at least one image");
        assert!(
            spec.base_files + spec.app_files > 0,
            "images need at least one file"
        );
        let mut rng = SimRng::new(spec.seed);
        let mut store = BlockStore::new(rng.fork_seed(), spec.chunk_bytes);
        let size_range = (spec.file_bytes / 2).max(1)..(spec.file_bytes * 3 / 2).max(2);
        let file = |path: String, rng: &mut SimRng, store: &mut BlockStore| {
            let len = rng.gen_range(size_range.clone()) as usize;
            ManifestEntry::build(path, &fill_bytes(rng.fork_seed(), len), store)
        };

        let base: Vec<ManifestEntry> = (0..spec.base_files)
            .map(|i| file(format!("/base/lib{i:03}.so"), &mut rng, &mut store))
            .collect();

        let manifests = (0..spec.images)
            .map(|img| {
                if img > 0 {
                    for &hash in base.iter().flat_map(|entry| &entry.blocks) {
                        assert!(store.add_ref(hash), "the base layer is stored");
                    }
                }
                let mut entries = base.clone();
                entries.extend((0..spec.app_files).map(|i| {
                    file(
                        format!("/app/img{img:03}/file{i:03}.bin"),
                        &mut rng,
                        &mut store,
                    )
                }));
                ImageManifest {
                    name: format!("img-{img}"),
                    chunk_bytes: spec.chunk_bytes,
                    entries,
                }
            })
            .collect();

        ImageCatalog { store, manifests }
    }

    /// A digest over every manifest — the catalog's expected content.
    pub fn digest(&self) -> u64 {
        self.manifests
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, m| {
                let mut h = h ^ m.digest();
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
                h
            })
    }
}

/// Deterministic pseudo-random content: a splitmix64 stream, stable
/// across platforms and independent of the `rand` backend.
fn fill_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut x = seed;
    while out.len() < len {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = ImageCatalogSpec::smoke(42);
        let a = ImageCatalog::generate(&spec);
        let b = ImageCatalog::generate(&spec);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.store.stats(), b.store.stats());
    }

    #[test]
    fn base_sharing_sets_the_dedup_factor() {
        let spec = ImageCatalogSpec::smoke(42);
        let catalog = ImageCatalog::generate(&spec);
        assert_eq!(catalog.manifests.len(), 4);
        let f = catalog.store.dedup_factor();
        // 12 base + 6 app files per image over 4 images: roughly
        // (12+6)*4 logical for 12+6*4 unique ≈ 2x, content sizes jitter.
        assert!(f > 1.5 && f < 2.5, "dedup factor {f} out of range");
        // More images over the same base push the factor up.
        let bigger = ImageCatalog::generate(&ImageCatalogSpec { images: 8, ..spec });
        assert!(bigger.store.dedup_factor() > f);
    }

    #[test]
    fn every_image_reassembles_from_the_store() {
        let catalog = ImageCatalog::generate(&ImageCatalogSpec::smoke(7));
        for manifest in &catalog.manifests {
            let files = manifest.assemble(&catalog.store).expect("complete store");
            assert_eq!(files.len(), 18);
            let bytes: u64 = files.iter().map(|(_, d)| d.len() as u64).sum();
            assert_eq!(bytes, manifest.logical_bytes());
        }
    }

    /// The reference catalog: the same content, with every image built
    /// through `ImageManifest::build` on its own copy of the base layer.
    fn per_image_reference(spec: &ImageCatalogSpec) -> ImageCatalog {
        let mut rng = SimRng::new(spec.seed);
        let mut store = BlockStore::new(rng.fork_seed(), spec.chunk_bytes);
        let size_range = (spec.file_bytes / 2).max(1)..(spec.file_bytes * 3 / 2).max(2);
        let base: Vec<(String, Vec<u8>)> = (0..spec.base_files)
            .map(|i| {
                let len = rng.gen_range(size_range.clone()) as usize;
                (
                    format!("/base/lib{i:03}.so"),
                    fill_bytes(rng.fork_seed(), len),
                )
            })
            .collect();
        let manifests = (0..spec.images)
            .map(|img| {
                let mut files = base.clone();
                files.extend((0..spec.app_files).map(|i| {
                    let len = rng.gen_range(size_range.clone()) as usize;
                    (
                        format!("/app/img{img:03}/file{i:03}.bin"),
                        fill_bytes(rng.fork_seed(), len),
                    )
                }));
                ImageManifest::build(&format!("img-{img}"), &files, &mut store)
            })
            .collect();
        ImageCatalog { store, manifests }
    }

    #[test]
    fn hashing_the_base_once_matches_the_per_image_build() {
        let specs = [
            ImageCatalogSpec::smoke(42),
            // The benchmark's and `repro distribute`'s catalog.
            ImageCatalogSpec {
                images: 8,
                base_files: 24,
                app_files: 8,
                file_bytes: 64 * 1024,
                chunk_bytes: DEFAULT_CHUNK_BYTES,
                seed: 42,
            },
            // One-byte chunks of 1-2 byte files: base and app content
            // collide all the time, so dedup hits cross the layers.
            ImageCatalogSpec {
                images: 3,
                base_files: 5,
                app_files: 4,
                file_bytes: 2,
                chunk_bytes: 1,
                seed: 9,
            },
        ];
        for spec in specs {
            let got = ImageCatalog::generate(&spec);
            let want = per_image_reference(&spec);
            let digests = |c: &ImageCatalog| -> Vec<u64> {
                c.manifests.iter().map(ImageManifest::digest).collect()
            };
            assert_eq!(digests(&got), digests(&want), "{spec:?}");
            assert_eq!(got.manifests, want.manifests, "{spec:?}");
            assert_eq!(got.store.stats(), want.store.stats(), "{spec:?}");
            assert_eq!(got.store.len(), want.store.len(), "{spec:?}");
            assert!(got.store.hashes().eq(want.store.hashes()), "{spec:?}");
            for h in want.store.hashes() {
                assert_eq!(got.store.refs(h), want.store.refs(h), "{spec:?} {h}");
            }
        }
    }

    #[test]
    fn different_seeds_produce_different_content() {
        let a = ImageCatalog::generate(&ImageCatalogSpec::smoke(1));
        let b = ImageCatalog::generate(&ImageCatalogSpec::smoke(2));
        assert_ne!(a.digest(), b.digest());
    }
}
