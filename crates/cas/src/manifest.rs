//! flist-style image manifests: an ordered file listing whose data lives
//! in a [`BlockStore`], referenced by hash.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::store::{BlockHash, BlockStore};

/// One file of an image: its path, exact byte length, and the ordered
/// chunk hashes that reassemble it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Absolute path inside the image.
    pub path: String,
    /// Exact byte length (the last chunk may be short).
    pub size: u64,
    /// Chunk hashes in file order.
    pub blocks: Vec<BlockHash>,
}

impl ManifestEntry {
    /// Chunks `data` through `store` as the file at `path`, taking one
    /// reference per chunk occurrence.
    pub(crate) fn build(path: String, data: &[u8], store: &mut BlockStore) -> Self {
        ManifestEntry {
            path,
            size: data.len() as u64,
            blocks: store.add_bytes(data),
        }
    }
}

/// An image as a manifest: the full file hierarchy, ordered, with every
/// chunk named by content hash — the flist idea. The manifest itself is
/// small (paths and hashes); the data stays in the store and is fetched
/// on demand.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageManifest {
    /// Image name (e.g. `app-3`).
    pub name: String,
    /// Chunk size the image was split at.
    pub chunk_bytes: usize,
    /// Files in listing order.
    pub entries: Vec<ManifestEntry>,
}

impl ImageManifest {
    /// Builds a manifest by chunking `files` (path, content) through
    /// `store`, taking one reference per chunk occurrence.
    pub fn build(name: &str, files: &[(String, Vec<u8>)], store: &mut BlockStore) -> Self {
        let entries = files
            .iter()
            .map(|(path, data)| ManifestEntry::build(path.clone(), data, store))
            .collect();
        ImageManifest {
            name: name.to_string(),
            chunk_bytes: store.chunk_bytes(),
            entries,
        }
    }

    /// Total image bytes (with duplicates — what a flat tarball would ship).
    pub fn logical_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }

    /// Chunk references across all files (with duplicates).
    pub fn block_refs(&self) -> usize {
        self.entries.iter().map(|e| e.blocks.len()).sum()
    }

    /// The distinct chunk hashes of the image, in first-reference order —
    /// the download list of a node cold-starting this image.
    pub fn unique_blocks(&self) -> Vec<BlockHash> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for entry in &self.entries {
            for &hash in &entry.blocks {
                if seen.insert(hash) {
                    out.push(hash);
                }
            }
        }
        out
    }

    /// A 64-bit digest of the manifest: name, listing order, sizes, and
    /// every chunk hash. Two manifests digest equal iff they describe the
    /// same image content in the same layout.
    pub fn digest(&self) -> u64 {
        let mut h = fold(0xcbf2_9ce4_8422_2325, self.name.as_bytes());
        h = fold_u64(h, self.chunk_bytes as u64);
        for entry in &self.entries {
            h = fold(h, entry.path.as_bytes());
            h = fold_u64(h, entry.size);
            for &block in &entry.blocks {
                h = fold_u64(h, block.0);
            }
        }
        h
    }

    /// Reassembles every file from `store`, byte-exact, or `None` if any
    /// chunk is missing.
    pub fn assemble(&self, store: &BlockStore) -> Option<Vec<(String, Vec<u8>)>> {
        self.entries
            .iter()
            .map(|entry| {
                let mut data = Vec::with_capacity(entry.size as usize);
                for &hash in &entry.blocks {
                    data.extend_from_slice(&store.get(hash)?);
                }
                data.truncate(entry.size as usize);
                (data.len() as u64 == entry.size).then_some((entry.path.clone(), data))
            })
            .collect()
    }

    /// Approximate resident footprint of the manifest itself — what a
    /// [`PartialCache`](crate::PartialCache) keeps always-resident.
    pub fn approx_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.path.len() + 16 + e.blocks.len() * 8)
            .sum()
    }
}

/// FNV-1a fold of a byte slice into an accumulator.
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a fold of one little-endian u64.
fn fold_u64(h: u64, v: u64) -> u64 {
    fold(h, &v.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> Vec<(String, Vec<u8>)> {
        vec![
            ("/base/lib.so".to_string(), vec![1u8; 20]),
            ("/app/main".to_string(), vec![2u8; 13]),
            ("/app/copy".to_string(), vec![1u8; 20]),
        ]
    }

    #[test]
    fn build_and_assemble_round_trip() {
        let mut store = BlockStore::new(9, 8);
        let manifest = ImageManifest::build("img", &files(), &mut store);
        assert_eq!(manifest.logical_bytes(), 53);
        let back = manifest.assemble(&store).expect("all chunks stored");
        assert_eq!(back, files());
    }

    #[test]
    fn unique_blocks_dedup_across_files() {
        let mut store = BlockStore::new(9, 8);
        let manifest = ImageManifest::build("img", &files(), &mut store);
        // /base/lib.so and /app/copy are identical (3 chunks each) and
        // the constant fill dedups the two full chunks within a file too.
        assert_eq!(manifest.block_refs(), 8);
        assert_eq!(manifest.unique_blocks().len(), 4);
        assert_eq!(store.total_refs(), 8);
    }

    #[test]
    fn digest_tracks_content_and_layout() {
        let mut store = BlockStore::new(9, 8);
        let a = ImageManifest::build("img", &files(), &mut store);
        let b = ImageManifest::build("img", &files(), &mut store);
        assert_eq!(a.digest(), b.digest());
        let mut renamed = files();
        renamed[1].0 = "/app/other".to_string();
        let c = ImageManifest::build("img", &renamed, &mut store);
        assert_ne!(a.digest(), c.digest());
    }
}
