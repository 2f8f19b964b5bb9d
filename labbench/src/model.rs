//! Seeded inputs and the model every output is checked against.
//!
//! File data is written in 4 KiB blocks that each carry a stamp: the
//! block index, a per-block generation the generator bumps on every
//! overwrite, the file's tag, and a trailer hashed from all three. A read
//! is correct when every block it returns carries the stamp the model
//! last wrote there. KVS values are 1 KiB runs of 64-byte records whose
//! `u32` field drives the pushdown scans; `get` compares the whole value
//! and `scan_where` counts are checked against the host-side reference
//! scan over the same values.

use labstor_workloads::pushdown::{client_scan_count, RECORD_LEN};

/// File block size the stamps are laid out on.
pub const BLOCK: usize = 4096;
/// KVS value size.
pub const VALUE_BYTES: usize = 1024;
/// Keys per KVS prefix; a scan covers exactly one prefix.
pub const KEYS_PER_PREFIX: usize = 100;
/// Distinct values of the record field the scans filter on.
pub const FIELD_SPACE: u32 = 16;

/// SplitMix64: small, seedable, and the same stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a per-actor `lane`.
    pub fn new(seed: u64, lane: u64) -> Rng {
        Rng(mix(seed ^ mix(lane.wrapping_add(0x51_7cc1_b727_220a))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `permille / 1000`.
    pub fn chance(&mut self, permille: u64) -> bool {
        self.below(1000) < permille
    }
}

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn word(b: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Model of one stamped file: the generation last written to each block.
#[derive(Debug, Clone)]
pub struct FileModel {
    tag: u64,
    gens: Vec<u64>,
}

impl FileModel {
    /// A file of `bytes` (whole blocks) identified by `tag`, every block
    /// at generation 1 (the preload).
    pub fn new(tag: u64, bytes: u64) -> FileModel {
        FileModel {
            tag,
            gens: vec![1; (bytes as usize) / BLOCK],
        }
    }

    /// Blocks in the file.
    pub fn blocks(&self) -> u64 {
        self.gens.len() as u64
    }

    fn trailer(&self, block: u64, gen: u64) -> u64 {
        mix(block ^ gen.rotate_left(32) ^ self.tag.rotate_left(17))
    }

    fn stamp(&self, out: &mut [u8], block: u64, gen: u64) {
        out.fill(gen as u8);
        out[0..8].copy_from_slice(&block.to_le_bytes());
        out[8..16].copy_from_slice(&gen.to_le_bytes());
        out[16..24].copy_from_slice(&self.tag.to_le_bytes());
        let t = self.trailer(block, gen);
        out[BLOCK - 8..].copy_from_slice(&t.to_le_bytes());
    }

    /// Fill `out` with the current contents of blocks starting at
    /// `first` (the preload image).
    pub fn fill_current(&self, first: u64, out: &mut [u8]) {
        for (i, blk) in out.chunks_exact_mut(BLOCK).enumerate() {
            let b = first + i as u64;
            self.stamp(blk, b, self.gens[b as usize]);
        }
    }

    /// Bump the generation of the blocks `out` covers (starting at
    /// `first`) and fill `out` with their new stamped contents.
    pub fn fill_next(&mut self, first: u64, out: &mut [u8]) {
        for (i, blk) in out.chunks_exact_mut(BLOCK).enumerate() {
            let b = first + i as u64;
            self.gens[b as usize] += 1;
            self.stamp(blk, b, self.gens[b as usize]);
        }
    }

    /// Check data read from block `first` on against the model.
    pub fn check(&self, first: u64, data: &[u8], want_len: usize) -> Result<(), String> {
        if data.len() != want_len {
            return Err(format!(
                "read at block {first}: got {} bytes, want {want_len}",
                data.len()
            ));
        }
        for (i, blk) in data.chunks_exact(BLOCK).enumerate() {
            let b = first + i as u64;
            let gen = self.gens[b as usize];
            let ok = word(blk, 0) == b
                && word(blk, 8) == gen
                && word(blk, 16) == self.tag
                && word(blk, BLOCK - 8) == self.trailer(b, gen);
            if !ok {
                return Err(format!(
                    "block {b}: stamp (block {}, gen {}, tag {}) does not match model (gen {gen}, tag {})",
                    word(blk, 0),
                    word(blk, 8),
                    word(blk, 16),
                    self.tag
                ));
            }
        }
        Ok(())
    }
}

/// Model of the KVS: the generation last written to each key.
#[derive(Debug, Clone)]
pub struct KvModel {
    gens: Vec<u64>,
}

impl KvModel {
    /// `keys` keys (a whole number of prefixes), all at generation 1.
    pub fn new(keys: usize) -> KvModel {
        KvModel {
            gens: vec![1; keys],
        }
    }

    /// Number of keys.
    pub fn keys(&self) -> usize {
        self.gens.len()
    }

    /// Number of prefixes.
    pub fn prefixes(&self) -> usize {
        self.gens.len() / KEYS_PER_PREFIX
    }

    /// Key name (relative to the mount) of key index `k`.
    pub fn key(k: usize) -> String {
        format!("p{:04}-k{:06}", k / KEYS_PER_PREFIX, k)
    }

    /// Prefix shared by the keys of prefix `p`.
    pub fn prefix(p: usize) -> String {
        format!("p{p:04}-")
    }

    /// The value of key `k` at generation `gen`.
    pub fn value(k: usize, gen: u64) -> Vec<u8> {
        let mut v = vec![0u8; VALUE_BYTES];
        for (r, rec) in v.chunks_exact_mut(RECORD_LEN).enumerate() {
            let h = mix((k as u64) << 20 ^ gen << 8 ^ r as u64);
            let field = (h % u64::from(FIELD_SPACE)) as u32;
            rec.fill((h >> 32) as u8);
            rec[0..4].copy_from_slice(&field.to_le_bytes());
            rec[4..8].copy_from_slice(&(gen as u32).to_le_bytes());
            rec[8..16].copy_from_slice(&(k as u64).to_le_bytes());
        }
        v
    }

    /// Current value of key `k`.
    pub fn current(&self, k: usize) -> Vec<u8> {
        Self::value(k, self.gens[k])
    }

    /// Bump key `k`'s generation and return its new value.
    pub fn next(&mut self, k: usize) -> Vec<u8> {
        self.gens[k] += 1;
        self.current(k)
    }

    /// The current values under prefix `p`, concatenated.
    pub fn prefix_values(&self, p: usize) -> Vec<u8> {
        let keys = p * KEYS_PER_PREFIX..(p + 1) * KEYS_PER_PREFIX;
        keys.flat_map(|k| self.current(k)).collect()
    }

    /// Reference count of records with `field == value` under prefix `p`.
    pub fn expected_count(&self, p: usize, value: u32) -> u64 {
        client_scan_count(&self.prefix_values(p), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_round_trip_and_catch_stale_blocks() {
        let mut m = FileModel::new(7, 8 * BLOCK as u64);
        let mut buf = vec![0u8; 2 * BLOCK];
        m.fill_current(3, &mut buf);
        assert!(m.check(3, &buf, buf.len()).is_ok());
        let stale = buf.clone();
        m.fill_next(3, &mut buf);
        assert!(m.check(3, &buf, buf.len()).is_ok());
        assert!(m.check(3, &stale, stale.len()).is_err(), "old generation");
        assert!(m.check(4, &buf, buf.len()).is_err(), "wrong place");
        assert!(m.check(3, &buf[..BLOCK], 2 * BLOCK).is_err(), "short read");
    }

    #[test]
    fn kv_values_change_with_generation_and_scan_counts_are_exact() {
        let mut m = KvModel::new(2 * KEYS_PER_PREFIX);
        let before = m.current(5);
        assert_ne!(before, m.next(5));
        let total: u64 = (0..FIELD_SPACE).map(|v| m.expected_count(1, v)).sum();
        assert_eq!(total, (KEYS_PER_PREFIX * VALUE_BYTES / RECORD_LEN) as u64);
        assert!(KvModel::key(150).starts_with(&KvModel::prefix(1)));
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_lane() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(9, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(9, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(9, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
