//! The visited map: dedup keys → node ids, in RAM or out of core.
//!
//! The explorer's visited map is probed once per generated successor by
//! admission, which inserts the key of every state it stores.  The storage
//! layer (`crate::store`) moved state payloads and edges out of core, but
//! the visited map stayed fully resident — the largest structure of a big run,
//! and the true RAM ceiling past ~10⁸ states.  This module gives it the
//! same treatment, behind one type:
//!
//! * **mem** ([`StoreKind::Mem`]): 64 hash-map shards, exactly the
//!   structure the checker always had;
//! * **spill** ([`StoreKind::Spill`]): the same memtable shards, but when
//!   the `--mem-budget` accountant says the memtables outgrew their budget,
//!   the largest shard *seals*: its entries are sorted and appended to a
//!   process-private temp file as one immutable **run** of fixed 64-byte
//!   records, with a per-run Bloom filter (~[`BLOOM_BITS_PER_KEY`] bits per
//!   key) and a sparse footer (every [`FOOTER_STRIDE`]-th key) kept
//!   resident.  A probe that misses the memtable consults each run's Bloom
//!   filter, binary-searches the footer to one [`FOOTER_STRIDE`]-record
//!   block, and reads that block with a single positional `read_at` — no
//!   seek, no lock.  When a shard accumulates
//!   [`MAX_RUNS_PER_SHARD`] runs they are **compacted** into one (superseded
//!   run bytes stay in the temp file as garbage; the file is unlinked when
//!   the map is dropped, which the explorer does before its liveness pass).
//!
//! Correctness does not depend on *when* shards seal: a lookup consults the
//! memtable and every run, and a key lives in exactly one of them (an entry
//! is inserted once and never updated).  The seal schedule itself is
//! deterministic — it is driven by shard entry counts at batch ends, which
//! are a pure function of the explored graph — so
//! `visited_spilled_bytes` is reproducible for a fixed (backend, budget)
//! pair.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hasher;

use rr_corda::packed::SigHashBuilder;
use rr_corda::StateSig;

use crate::store::{SpillFile, StoreKind};

/// Inline, allocation-free visited-map key: a fixed state signature plus the
/// 64-bit auxiliary-state key and the per-path fault word (crashed robots +
/// corruption budget used — two states reached with different fault history
/// are different model-checking states even on identical engine state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    pub(crate) sig: StateSig,
    pub(crate) aug: u64,
    pub(crate) fault: u32,
}

impl Key {
    /// One multiply-xor pass over the key words; feeds the shard selector,
    /// the per-shard hash map (via the single `write_u64` the manual
    /// [`Hash`] impl emits) and the Bloom probe positions.
    pub(crate) fn mix(&self) -> u64 {
        let mut h = self.aug ^ u64::from(self.fault).rotate_left(17);
        for &word in &self.sig {
            // Trailing signature words are zero for every key of a run
            // (fixed n and k), so skipping them is consistent — and halves
            // the mixing work for small instances.
            if word != 0 {
                h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 29;
            }
        }
        h.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

impl std::hash::Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.mix());
    }
}

/// Total order the sorted runs use: signature words, then the auxiliary
/// key, then the fault word.  Any total order works (it only has to agree
/// between sealing and probing); this one is the natural lexicographic one.
fn cmp_keys(a: &Key, b: &Key) -> Ordering {
    a.sig
        .cmp(&b.sig)
        .then(a.aug.cmp(&b.aug))
        .then(a.fault.cmp(&b.fault))
}

/// Shards of the visited map.
pub(crate) const VISITED_SHARDS: usize = 64;

/// The shard a key lives in: the top 6 bits of its mixed hash.
pub(crate) fn shard_of(key: &Key) -> usize {
    (key.mix() >> 58) as usize
}

/// Logical bytes of one visited entry (key + node id) — the
/// backend-independent measure by which the visited map joins the
/// explorer's `peak_resident_bytes` accounting.  Like the store's
/// `payload_bytes`, it counts what is logically live, not any backend's
/// overhead, so the reported peak is identical across backends and budgets.
pub(crate) const VISITED_ENTRY_BYTES: u64 =
    (std::mem::size_of::<Key>() + std::mem::size_of::<u32>()) as u64;

/// One on-disk record: 48 signature bytes + 8 aug + 4 fault + 4 node id.
const RECORD_BYTES: usize = 64;

/// Records per footer entry: a probe narrowed to one footer block reads
/// `FOOTER_STRIDE * RECORD_BYTES` = 4 KiB with a single `read_at`.
const FOOTER_STRIDE: usize = 64;

/// Bloom filter size per sealed key (rounded up to a power-of-two bit
/// count).  At 10 bits/key with 7 probes the false-positive rate is ≈1%, so
/// ~99% of absent-key probes cost no I/O.
const BLOOM_BITS_PER_KEY: usize = 10;

/// Bloom probes per key (the optimum for 10 bits/key is ln2 · 10 ≈ 7).
const BLOOM_HASHES: u64 = 7;

/// Runs a shard may accumulate before they are compacted into one.
const MAX_RUNS_PER_SHARD: usize = 6;

fn encode_record(out: &mut Vec<u8>, key: &Key, id: u32) {
    for &word in &key.sig {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&key.aug.to_le_bytes());
    out.extend_from_slice(&key.fault.to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
}

fn decode_record(bytes: &[u8]) -> (Key, u32) {
    let word =
        |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8-byte field"));
    let mut sig = StateSig::default();
    for (i, w) in sig.iter_mut().enumerate() {
        *w = word(i);
    }
    let aug = word(sig.len());
    let tail = &bytes[8 * sig.len() + 8..];
    let fault = u32::from_le_bytes(tail[0..4].try_into().expect("4-byte field"));
    let id = u32::from_le_bytes(tail[4..8].try_into().expect("4-byte field"));
    (Key { sig, aug, fault }, id)
}

/// A per-run Bloom filter over the mixed key hashes, kept resident.
struct Bloom {
    words: Vec<u64>,
    bit_mask: u64,
}

impl Bloom {
    fn build(mixes: impl Iterator<Item = u64>, count: usize) -> Self {
        let bits = (count * BLOOM_BITS_PER_KEY).next_power_of_two().max(64) as u64;
        let mut bloom = Bloom {
            words: vec![0u64; (bits / 64) as usize],
            bit_mask: bits - 1,
        };
        for mix in mixes {
            let (h1, h2) = Bloom::probes(mix);
            for i in 0..BLOOM_HASHES {
                let bit = h1.wrapping_add(i.wrapping_mul(h2)) & bloom.bit_mask;
                bloom.words[(bit / 64) as usize] |= 1 << (bit % 64);
            }
        }
        bloom
    }

    /// Double-hashing probe positions derived from the one mixed hash the
    /// map already computes; `h2` is forced odd so the probe sequence walks
    /// the whole (power-of-two) bit table.
    fn probes(mix: u64) -> (u64, u64) {
        (mix, mix.rotate_left(21) | 1)
    }

    fn contains(&self, mix: u64) -> bool {
        let (h1, h2) = Bloom::probes(mix);
        (0..BLOOM_HASHES).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) & self.bit_mask;
            self.words[(bit / 64) as usize] & 1 << (bit % 64) != 0
        })
    }

    #[cfg(test)]
    fn resident_bytes(&self) -> u64 {
        8 * self.words.len() as u64
    }
}

/// One immutable sorted run on disk plus its resident probe accelerators.
struct Run {
    /// Byte offset of the first record in the run file.
    offset: u64,
    /// Number of records.
    count: u32,
    bloom: Bloom,
    /// Key of every [`FOOTER_STRIDE`]-th record (the first key of each
    /// footer block), in run order.
    footers: Vec<Key>,
}

impl Run {
    /// Sorts, filters and writes `entries` as one run.
    fn seal(file: &mut SpillFile, mut entries: Vec<(Key, u32)>) -> Run {
        entries.sort_unstable_by(|a, b| cmp_keys(&a.0, &b.0));
        debug_assert!(entries
            .windows(2)
            .all(|w| cmp_keys(&w[0].0, &w[1].0) == Ordering::Less));
        let bloom = Bloom::build(entries.iter().map(|(k, _)| k.mix()), entries.len());
        let footers = entries
            .iter()
            .step_by(FOOTER_STRIDE)
            .map(|(k, _)| *k)
            .collect();
        let mut bytes = Vec::with_capacity(entries.len() * RECORD_BYTES);
        for (key, id) in &entries {
            encode_record(&mut bytes, key, *id);
        }
        let offset = file.append(&bytes);
        Run {
            offset,
            count: entries.len() as u32,
            bloom,
            footers,
        }
    }

    /// Probes the run for `key`: Bloom first (resident), then a footer
    /// binary search to one block, then a single positional block read.
    fn probe(&self, file: &SpillFile, key: &Key, mix: u64) -> Option<u32> {
        if !self.bloom.contains(mix) {
            return None;
        }
        let block = match self.footers.binary_search_by(|f| cmp_keys(f, key)) {
            Ok(i) => i,
            Err(0) => return None, // below the run's first key
            Err(i) => i - 1,
        };
        let start = block * FOOTER_STRIDE;
        let len = FOOTER_STRIDE.min(self.count as usize - start);
        let mut buf = vec![0u8; len * RECORD_BYTES];
        file.read_exact_at(self.offset + (start * RECORD_BYTES) as u64, &mut buf);
        let mut lo = 0usize;
        let mut hi = len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (candidate, id) = decode_record(&buf[mid * RECORD_BYTES..(mid + 1) * RECORD_BYTES]);
            match cmp_keys(&candidate, key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(id),
            }
        }
        None
    }

    /// Reads every record of the run back, in key order.
    fn load(&self, file: &SpillFile) -> Vec<(Key, u32)> {
        let bytes = file.read_at(self.offset, self.count as usize * RECORD_BYTES);
        bytes
            .chunks_exact(RECORD_BYTES)
            .map(decode_record)
            .collect()
    }

    #[cfg(test)]
    fn resident_bytes(&self) -> u64 {
        self.bloom.resident_bytes() + (self.footers.len() * std::mem::size_of::<Key>()) as u64
    }
}

/// The disk half of the spill backend: the run file plus per-shard runs.
struct Disk {
    file: SpillFile,
    runs: Vec<Vec<Run>>,
    /// Memtable budget in logical entry bytes; crossing it seals shards.
    budget: u64,
}

/// One memtable shard.
type Memtable = HashMap<Key, u32, SigHashBuilder>;

/// The visited map, sharded by the top bits of the key hash.  Shards stay
/// individually small (cheaper growth, better locality).  Memtable
/// lookups and run probes both take `&self`; only admission (insert) and
/// the batch ends (seal, compact) mutate it.
pub(crate) struct Visited {
    shards: Vec<Memtable>,
    disk: Option<Disk>,
}

impl Visited {
    pub(crate) fn new(kind: StoreKind, mem_budget: u64) -> Self {
        Visited {
            shards: (0..VISITED_SHARDS).map(|_| Memtable::default()).collect(),
            disk: match kind {
                StoreKind::Mem => None,
                StoreKind::Spill => Some(Disk {
                    file: SpillFile::create("visited"),
                    runs: (0..VISITED_SHARDS).map(|_| Vec::new()).collect(),
                    budget: mem_budget,
                }),
            },
        }
    }

    /// Read-only probe.
    pub(crate) fn get(&self, key: &Key) -> Option<u32> {
        let mix = key.mix();
        let shard = (mix >> 58) as usize;
        if let Some(&id) = self.shards[shard].get(key) {
            return Some(id);
        }
        let disk = self.disk.as_ref()?;
        disk.runs[shard]
            .iter()
            .find_map(|run| run.probe(&disk.file, key, mix))
    }

    /// Maps a key the map does not hold yet to `id`.  Admission calls this
    /// once per stored state, right after its probe missed.
    pub(crate) fn insert(&mut self, key: Key, id: u32) {
        self.shards[shard_of(&key)].insert(key, id);
    }

    /// Entries currently resident in the memtables.
    #[cfg(test)]
    pub(crate) fn resident_entries(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// Bytes appended to the run file so far (runs + compaction rewrites);
    /// `0` for the mem backend.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| d.file.written())
    }

    /// Resident bytes of the probe accelerators (Bloom filters + footers);
    /// `0` for the mem backend.  Small next to the memtable budget — ≈2.3
    /// bytes per sealed key against 68 logical bytes per resident entry —
    /// and outside the seal accountant by design.
    #[cfg(test)]
    pub(crate) fn filter_bytes(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| {
            d.runs.iter().flatten().map(Run::resident_bytes).sum()
        })
    }

    #[cfg(test)]
    fn run_count(&self) -> usize {
        self.disk
            .as_ref()
            .map_or(0, |d| d.runs.iter().map(Vec::len).sum())
    }

    /// The `--mem-budget` accountant, called at batch ends:
    /// while the memtables hold more logical entry bytes than the budget,
    /// seal the largest shard (ties: lowest index) to a sorted run.  The
    /// schedule depends only on deterministic entry counts — never on
    /// timing — and sealing never changes a lookup's answer, only where it
    /// is served from.
    pub(crate) fn maybe_seal(&mut self) {
        let Some(disk) = &mut self.disk else {
            return;
        };
        loop {
            let resident: usize = self.shards.iter().map(HashMap::len).sum();
            if resident as u64 * VISITED_ENTRY_BYTES <= disk.budget {
                return;
            }
            let (shard, len) = self
                .shards
                .iter()
                .enumerate()
                .map(|(i, m)| (i, m.len()))
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .expect("shards are non-empty");
            if len == 0 {
                return; // everything already sealed; budget is simply tiny
            }
            let entries: Vec<(Key, u32)> = self.shards[shard].drain().collect();
            disk.runs[shard].push(Run::seal(&mut disk.file, entries));
            if disk.runs[shard].len() >= MAX_RUNS_PER_SHARD {
                let merged: Vec<(Key, u32)> = {
                    let mut all: Vec<(Key, u32)> = disk.runs[shard]
                        .iter()
                        .flat_map(|run| run.load(&disk.file))
                        .collect();
                    all.sort_unstable_by(|a, b| cmp_keys(&a.0, &b.0));
                    all
                };
                disk.runs[shard] = vec![Run::seal(&mut disk.file, merged)];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> Key {
        // A xorshift-scrambled but deterministic key; distinct seeds give
        // distinct signatures.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD6E8_FEB8_6659_FD93;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut sig = StateSig::default();
        for w in sig.iter_mut().take(3) {
            *w = step() | 1; // non-zero so mix() hashes every word
        }
        Key {
            sig,
            aug: seed,
            fault: (seed % 5) as u32,
        }
    }

    #[test]
    fn record_round_trips() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let k = key(seed);
            let mut bytes = Vec::new();
            encode_record(&mut bytes, &k, seed as u32);
            assert_eq!(bytes.len(), RECORD_BYTES);
            assert_eq!(decode_record(&bytes), (k, seed as u32));
        }
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mixes: Vec<u64> = (0..500u64).map(|s| key(s).mix()).collect();
        let bloom = Bloom::build(mixes.iter().copied(), mixes.len());
        for mix in &mixes {
            assert!(bloom.contains(*mix));
        }
        // And a sane false-positive rate on fresh keys (≈1% expected; allow
        // a generous margin for the fixed pseudo-random stream).
        let fresh = (10_000..20_000u64).filter(|&s| bloom.contains(key(s).mix()));
        assert!(
            fresh.count() < 500,
            "Bloom false-positive rate off the rails"
        );
    }

    #[test]
    fn spill_backend_agrees_with_mem_under_constant_sealing() {
        // ~25 entries of budget: every batch of inserts forces seals, runs
        // accumulate and compact, and every lookup (present and absent) must
        // keep agreeing with the mem backend.
        let mut mem = Visited::new(StoreKind::Mem, u64::MAX);
        let mut spill = Visited::new(StoreKind::Spill, 25 * VISITED_ENTRY_BYTES);
        for batch in 0..40u64 {
            for i in 0..50u64 {
                let seed = batch * 50 + i;
                let k = key(seed);
                mem.insert(k, seed as u32);
                spill.insert(k, seed as u32);
            }
            spill.maybe_seal();
            mem.maybe_seal(); // no-op on the mem backend
            for probe_seed in 0..(batch + 1) * 50 + 25 {
                let k = key(probe_seed);
                assert_eq!(
                    spill.get(&k),
                    mem.get(&k),
                    "seed {probe_seed} after batch {batch}"
                );
            }
        }
        assert!(spill.spilled_bytes() > 0, "budget never tripped");
        assert!(
            spill.run_count() < VISITED_SHARDS * MAX_RUNS_PER_SHARD,
            "compaction never ran"
        );
        assert!(spill.resident_entries() <= 25 + 50, "seal accountant idle");
        assert_eq!(mem.spilled_bytes(), 0);
        assert!(spill.filter_bytes() > 0);
    }

    #[test]
    fn seal_schedule_is_a_function_of_the_insert_sequence() {
        // Two maps fed the same entries in the same batches spill the same
        // byte count — the determinism `visited_spilled_bytes` relies on.
        let run = || {
            let mut v = Visited::new(StoreKind::Spill, 40 * VISITED_ENTRY_BYTES);
            for batch in 0..20u64 {
                for i in 0..37u64 {
                    let seed = batch * 37 + i;
                    v.insert(key(seed), seed as u32);
                }
                v.maybe_seal();
            }
            v.spilled_bytes()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn footer_blocks_cover_runs_larger_than_one_block() {
        // One shard, one big sealed run spanning many footer blocks: every
        // key probes back, absent keys do not.
        let mut v = Visited::new(StoreKind::Spill, 0);
        for seed in 0..(FOOTER_STRIDE as u64 * 5 + 7) {
            v.insert(key(seed), seed as u32);
        }
        v.maybe_seal();
        assert_eq!(v.resident_entries(), 0, "zero budget seals everything");
        for seed in 0..(FOOTER_STRIDE as u64 * 5 + 7) {
            assert_eq!(v.get(&key(seed)), Some(seed as u32), "seed {seed}");
        }
        for seed in 100_000..100_500u64 {
            assert_eq!(v.get(&key(seed)), None, "absent seed {seed}");
        }
    }
}
