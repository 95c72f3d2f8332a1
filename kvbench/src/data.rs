//! The benchmark's key space and self-checking values.
//!
//! A store preloads `n` keys with even ids `0, 2, …, 2n-2`; odd ids are
//! never preloaded, so they are absent keys that sit between present ones
//! (fence pointers cannot prune them). Every value names the key id and
//! the write version it was written for, followed by filler that is a
//! pure function of both and the seed, so any reader can recheck an
//! answer without shared state. Version 0 is the preload; PUT number
//! `v ≥ 1` writes version `v` to key [`Keyspace::put_key`]`(v)`, which is
//! also a pure function of the seed.

use lsm_workload::{decode_key, encode_key};

/// Value length in bytes.
pub const VALUE_LEN: usize = 100;

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `z`.
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Encoded key for id `id`.
pub fn key(id: u64) -> Vec<u8> {
    encode_key(id)
}

/// Key id of an encoded key.
pub fn key_id(key: &[u8]) -> Option<u64> {
    decode_key(key)
}

/// Preloaded key count, seed, and the rules every answer is checked by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Keyspace {
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Number of preloaded keys.
    pub n: u64,
}

impl Keyspace {
    /// Id of the `i`-th preloaded key.
    pub fn present(&self, i: u64) -> u64 {
        2 * i
    }

    /// Id of the `i`-th absent key (between two preloaded ones).
    pub fn absent(&self, i: u64) -> u64 {
        2 * i + 1
    }

    /// One past the largest id the workloads ever use.
    pub fn end_id(&self) -> u64 {
        2 * self.n
    }

    /// Exclusive end id of a SCAN from `start`: room for four times the
    /// limit-50 scan's preloaded keys, clamped to the id space.
    pub fn scan_end(&self, start: u64) -> u64 {
        (start + 400).min(self.end_id())
    }

    /// Key id that PUT number `version` (≥ 1) writes: uniform over the
    /// whole id space, so half the PUTs update preloaded keys and half
    /// insert new ones.
    pub fn put_key(&self, version: u64) -> u64 {
        mix64(self.seed ^ 0x5055_5453 ^ mix64(version)) % self.end_id()
    }

    /// The value written for `id` at `version`.
    pub fn value(&self, id: u64, version: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(VALUE_LEN);
        v.extend_from_slice(&id.to_le_bytes());
        v.extend_from_slice(&version.to_le_bytes());
        let mut s = self.filler_seed(id, version);
        while v.len() < VALUE_LEN {
            s = mix64(s);
            let take = (VALUE_LEN - v.len()).min(8);
            v.extend_from_slice(&s.to_le_bytes()[..take]);
        }
        v
    }

    fn filler_seed(&self, id: u64, version: u64) -> u64 {
        mix64(self.seed ^ mix64(id) ^ version.rotate_left(29))
    }

    /// The version `bytes` carries if it is a well-formed value for `id`.
    pub fn version_of(&self, id: u64, bytes: &[u8]) -> Option<u64> {
        if bytes.len() != VALUE_LEN || bytes[..8] != id.to_le_bytes() {
            return None;
        }
        let version = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        let mut s = self.filler_seed(id, version);
        for chunk in bytes[16..].chunks(8) {
            s = mix64(s);
            if chunk != &s.to_le_bytes()[..chunk.len()] {
                return None;
            }
        }
        Some(version)
    }

    /// Whether `bytes` is a value some write produced for `id`, given
    /// that PUTs `1..=issued` may have been sent: the preload for an even
    /// id, or a PUT that was issued for exactly this key.
    pub fn is_written(&self, id: u64, bytes: &[u8], issued: u64) -> bool {
        match self.version_of(id, bytes) {
            Some(0) => id.is_multiple_of(2) && id < self.end_id(),
            Some(v) => v <= issued && self.put_key(v) == id,
            None => false,
        }
    }
}
