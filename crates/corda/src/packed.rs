//! Bit-packed engine states: the memory-compact storage format of the
//! exhaustive model checker.
//!
//! A [`crate::EngineState`] is faithful but fat: it owns a full
//! per-node occupancy vector and a `RobotState` vector — several heap
//! allocations and hundreds of bytes per state, which is what capped the
//! checker at `n ≤ 8`.  A [`PackedState`] encodes the *same information* into
//! a handful of `u64` words (inline for every checkable instance — no heap
//! allocation at all):
//!
//! * the occupancy vector is **not stored at all** — the engine maintains one
//!   robot per unit of multiplicity, so the configuration is exactly the
//!   multiset of robot positions and is rebuilt on restore;
//! * a pending move's target is always adjacent to the robot, so each robot
//!   needs only its node (`⌈log₂ n⌉` bits) and a 2-bit phase code (ready /
//!   idle-pending / move-pending-cw / move-pending-ccw);
//! * the monotone step/move/look counters are stored at the width of the
//!   largest one (chosen per state), so shallow states — the only kind an
//!   exhaustive search meets — stay small while arbitrarily old states still
//!   round-trip exactly.
//!
//! The contract is **byte-identical round-tripping**: for every reachable
//! engine state, `engine.restore_packed(&state.pack())` leaves the engine in
//! a state whose `save_state()` equals `state` field for field (the
//! `packed_roundtrip` proptest suite serializes both sides to JSON and
//! compares the bytes).  Besides storage, a packed state answers the two
//! identity questions the checker asks — behavioural equality and canonical
//! (symmetry-quotient) equality — directly from the packed bits via
//! [`PackedState::behavior_sig`] and [`PackedState::canonical_sig`], without
//! unpacking.

use rr_ring::{Direction, Ring, View};

use crate::robot::Phase;

/// Number of `u64` words in a state signature: 384 bits, enough for the
/// behavioural signature of `k ≤ 20` robots and the canonical signature of
/// rings with `n ≤ 24` nodes (16 bits of per-node phase counts each) — both
/// beyond what exhaustive checking can reach anyway.
pub const SIG_WORDS: usize = 6;

/// Largest ring size whose canonical signature fits [`SIG_WORDS`] words.
pub const MAX_CANONICAL_N: usize = SIG_WORDS * 64 / 16;

/// Fixed-size signature of a state: an inline, allocation-free hash-map key.
pub type StateSig = [u64; SIG_WORDS];

/// A fast multiply-xor hasher for small fixed-size keys built from `u64`
/// words — the engine's Look memo and the model checker's visited maps and
/// canonical-class sets all hash through it.  Not DoS-hardened: the keys
/// are internal to the simulation, never attacker-supplied.
#[derive(Debug, Default, Clone)]
pub struct SigHasher(u64);

impl std::hash::Hasher for SigHasher {
    /// One round per 8 bytes, a short tail zero-padded into one last word:
    /// a `[u64]` slice, which is how a [`StateSig`] hashes its words, costs
    /// one round per word.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_ne_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_ne_bytes(last));
        }
    }

    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    /// One round: slice hashes use it for their length prefix.
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    fn write_u64(&mut self, value: u64) {
        let mixed = (self.0 ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = mixed ^ (mixed >> 29);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`SigHasher`]-keyed maps and sets.
pub type SigHashBuilder = std::hash::BuildHasherDefault<SigHasher>;

/// Robot phase as stored in a packed state: 2 bits, ready.
pub const PHASE_READY: u64 = 0;
/// Packed phase code: idle-pending (Looked, decided to stay).
pub const PHASE_IDLE: u64 = 1;
/// Packed phase code: move-pending clockwise.
pub const PHASE_MOVE_CW: u64 = 2;
/// Packed phase code: move-pending counter-clockwise.
pub const PHASE_MOVE_CCW: u64 = 3;

/// A bit-packed [`crate::EngineState`]: one small word vector holding
/// everything [`crate::Engine::restore_packed`] needs to reproduce the state
/// byte for byte.
///
/// Produced by [`crate::EngineState::pack`] or directly from a live engine
/// by [`crate::Engine::pack_state`] (both encodings are identical), or as
/// the counter-free behavioural projection by
/// [`crate::Engine::pack_behavior`].  Packed states order and compare by
/// their bits, which makes them usable as deterministic map keys; note that
/// a full pack's bits *include* the monotone counters, so two behaviourally
/// equal states reached along different paths generally pack differently.
/// Use [`PackedState::behavior_sig`] (or compare behavioural projections)
/// for counter-free behavioural identity.
///
/// States of up to [`INLINE_WORDS`] words — every behavioural projection of
/// a checkable instance, and full packs of shallow states — are stored
/// inline with **no heap allocation at all**; longer streams spill to a
/// boxed slice.  The model checker allocates nothing per discovered state.
#[derive(Debug, Clone)]
pub struct PackedState {
    words: WordStore,
}

/// Inline capacity of a [`PackedState`], in 64-bit words.
pub const INLINE_WORDS: usize = 3;

#[derive(Debug, Clone)]
enum WordStore {
    Inline { len: u8, words: [u64; INLINE_WORDS] },
    Heap(Box<[u64]>),
}

impl PackedState {
    fn from_words(words: Vec<u64>) -> Self {
        let store = if words.len() <= INLINE_WORDS {
            let mut inline = [0u64; INLINE_WORDS];
            inline[..words.len()].copy_from_slice(&words);
            WordStore::Inline {
                len: words.len() as u8,
                words: inline,
            }
        } else {
            WordStore::Heap(words.into_boxed_slice())
        };
        PackedState { words: store }
    }
}

impl PartialEq for PackedState {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}

impl Eq for PackedState {}

impl PartialOrd for PackedState {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PackedState {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.words().cmp(other.words())
    }
}

impl std::hash::Hash for PackedState {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.words().hash(state);
    }
}

/// Field layout of the bit stream (LSB-first within each word, in order):
/// `n:16, k:16, w:7`, then `step:w, moves:w, looks:w`, then per robot
/// `node:bn, phase:2, cycles:w, moves:w` where `bn = bits(n-1)` and `w` is
/// the width of the largest counter.
const N_BITS: u32 = 16;
const K_BITS: u32 = 16;
const W_BITS: u32 = 7;

/// Bits needed to store values `0..=max`.
fn bits_for(max: u64) -> u32 {
    64 - max.leading_zeros()
}

/// Writes fields LSB-first into a zeroed word slice sized for them.
struct BitWriter<'a> {
    words: &'a mut [u64],
    /// Bits written so far.
    pos: usize,
}

impl<'a> BitWriter<'a> {
    fn new(words: &'a mut [u64]) -> Self {
        BitWriter { words, pos: 0 }
    }

    /// Appends the `bits` low bits of `value`.
    fn push(&mut self, value: u64, bits: u32) {
        debug_assert!(bits == 64 || value < 1u64 << bits);
        if bits == 0 {
            return;
        }
        let (word, shift) = (self.pos / 64, (self.pos % 64) as u32);
        self.words[word] |= value << shift;
        let room = 64 - shift;
        if bits > room {
            self.words[word + 1] |= value >> room;
        }
        self.pos += bits as usize;
    }
}

/// Reads fields back in the order they were pushed.
struct BitReader<'a> {
    words: &'a [u64],
    consumed: u32,
}

impl<'a> BitReader<'a> {
    fn new(packed: &'a PackedState) -> Self {
        BitReader {
            words: packed.words(),
            consumed: 0,
        }
    }

    fn pull(&mut self, bits: u32) -> u64 {
        if bits == 0 {
            return 0;
        }
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        let mut value = (self.words[0] >> self.consumed) & mask;
        let room = 64 - self.consumed;
        if bits <= room {
            self.consumed += bits;
            if self.consumed == 64 {
                self.words = &self.words[1..];
                self.consumed = 0;
            }
        } else {
            self.words = &self.words[1..];
            value |= (self.words[0] & (mask >> room)) << room;
            self.consumed = bits - room;
        }
        value
    }
}

/// One robot as encoded in a packed state.
pub(crate) struct PackedRobot {
    pub node: usize,
    /// 0 ready, 1 idle-pending, 2 move-pending-cw, 3 move-pending-ccw.
    pub phase: u64,
    pub cycles: u64,
    pub moves: u64,
}

/// The encoder shared by [`crate::EngineState::pack`] and
/// [`crate::Engine::pack_state`].
pub(crate) fn encode(
    n: usize,
    step: u64,
    moves: u64,
    looks: u64,
    robots: impl ExactSizeIterator<Item = PackedRobot> + Clone,
) -> PackedState {
    let k = robots.len();
    assert!(n < 1 << N_BITS, "packed states support n < 2^16");
    assert!(k < 1 << K_BITS, "packed states support k < 2^16");
    let bn = bits_for(n as u64 - 1).max(1);
    let max_counter = robots
        .clone()
        .map(|r| r.cycles.max(r.moves))
        .fold(step.max(moves).max(looks), u64::max);
    let w = bits_for(max_counter);
    let total_bits = (N_BITS + K_BITS + W_BITS + 3 * w) as usize + k * (bn + 2 + 2 * w) as usize;
    let write = |words: &mut [u64]| {
        let mut out = BitWriter::new(words);
        out.push(n as u64, N_BITS);
        out.push(k as u64, K_BITS);
        out.push(u64::from(w), W_BITS);
        out.push(step, w);
        out.push(moves, w);
        out.push(looks, w);
        for r in robots {
            out.push(r.node as u64, bn);
            out.push(r.phase, 2);
            out.push(r.cycles, w);
            out.push(r.moves, w);
        }
    };
    // Short streams go straight into the inline words: packing a state
    // allocates nothing.
    let len = total_bits.div_ceil(64);
    let words = if len <= INLINE_WORDS {
        let mut words = [0u64; INLINE_WORDS];
        write(&mut words[..len]);
        WordStore::Inline {
            len: len as u8,
            words,
        }
    } else {
        let mut words = vec![0u64; len];
        write(&mut words);
        WordStore::Heap(words.into_boxed_slice())
    };
    PackedState { words }
}

/// Decoded header + per-robot stream of a packed state.
pub(crate) struct Decoder<'a> {
    reader: BitReader<'a>,
    pub n: usize,
    pub k: usize,
    pub step: u64,
    pub moves: u64,
    pub looks: u64,
    bn: u32,
    w: u32,
}

impl<'a> Decoder<'a> {
    pub fn new(packed: &'a PackedState) -> Self {
        let mut reader = BitReader::new(packed);
        let n = reader.pull(N_BITS) as usize;
        let k = reader.pull(K_BITS) as usize;
        let w = reader.pull(W_BITS) as u32;
        let step = reader.pull(w);
        let moves = reader.pull(w);
        let looks = reader.pull(w);
        Decoder {
            reader,
            n,
            k,
            step,
            moves,
            looks,
            bn: bits_for(n as u64 - 1).max(1),
            w,
        }
    }

    /// Reads the next robot; must be called exactly `k` times.
    pub fn next_robot(&mut self) -> PackedRobot {
        let node = self.reader.pull(self.bn) as usize;
        let phase = self.reader.pull(2);
        let cycles = self.reader.pull(self.w);
        let moves = self.reader.pull(self.w);
        PackedRobot {
            node,
            phase,
            cycles,
            moves,
        }
    }
}

/// Converts an engine [`Phase`] into the 2-bit packed code, classifying a
/// pending move as cw/ccw relative to the robot's node on a ring of `n`.
pub(crate) fn phase_code(n: usize, node: usize, phase: Phase) -> u64 {
    match phase {
        Phase::Ready => PHASE_READY,
        Phase::IdlePending => PHASE_IDLE,
        Phase::MovePending { target } => {
            let ring = Ring::new(n);
            if target == ring.neighbor(node, Direction::Cw) {
                PHASE_MOVE_CW
            } else {
                debug_assert_eq!(
                    ring.neighbor(node, Direction::Ccw),
                    target,
                    "pending target not adjacent"
                );
                PHASE_MOVE_CCW
            }
        }
    }
}

/// Inverse of [`phase_code`].
pub(crate) fn code_phase(n: usize, node: usize, code: u64) -> Phase {
    match code {
        PHASE_READY => Phase::Ready,
        PHASE_IDLE => Phase::IdlePending,
        PHASE_MOVE_CW => Phase::MovePending {
            target: Ring::new(n).neighbor(node, Direction::Cw),
        },
        PHASE_MOVE_CCW => Phase::MovePending {
            target: Ring::new(n).neighbor(node, Direction::Ccw),
        },
        _ => unreachable!("2-bit phase code"),
    }
}

impl PackedState {
    /// The packed words (exposed for size accounting; the layout is private).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        match &self.words {
            WordStore::Inline { len, words } => &words[..usize::from(*len)],
            WordStore::Heap(words) => words,
        }
    }

    /// Rebuilds a packed state from raw words previously read off
    /// [`PackedState::words`] — the decode path of the checker's
    /// spill-to-disk store, whose cluster bases are written as raw words.
    /// The words are opaque: nothing is validated until the state is
    /// decoded, so only feed back words this type produced.
    #[must_use]
    pub fn from_raw_words(words: Vec<u64>) -> Self {
        PackedState::from_words(words)
    }

    /// Heap bytes held by this packed state (zero when stored inline).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match &self.words {
            WordStore::Inline { .. } => 0,
            WordStore::Heap(words) => words.len() * 8,
        }
    }

    /// The **behavioural signature** of the packed state: robot nodes and
    /// phases, *excluding* the monotone counters, as a fixed inline
    /// [`StateSig`] (an exact encoding, not a hash).  Two packed states of
    /// the same instance have equal signatures iff their engine states
    /// behave identically under every future schedule (for non-alternating
    /// view orders).  [`crate::Engine::behavior_sig`] computes the identical
    /// signature straight from a live engine.
    ///
    /// # Panics
    ///
    /// Panics if the per-robot encoding does not fit [`SIG_WORDS`] words
    /// (`k · (⌈log₂ n⌉ + 2) > 384` — far beyond exhaustively checkable
    /// instances).
    #[must_use]
    pub fn behavior_sig(&self) -> StateSig {
        let mut decoder = Decoder::new(self);
        let (n, k) = (decoder.n, decoder.k);
        behavior_sig_from(
            n,
            k,
            std::iter::from_fn(|| {
                let r = decoder.next_robot();
                Some((r.node, r.phase))
            }),
        )
    }

    /// The **canonical signature** of the packed state: the behavioural
    /// identity *up to ring automorphism and robot relabeling*, packed into
    /// a fixed [`StateSig`].  Equal signatures ⇔ some ring rotation or
    /// reflection maps one state's robot nodes and phases onto the other's
    /// (counters ignored, robots relabeled); this is the allocation-free
    /// form the model checker's symmetry quotient and class statistics run
    /// on.
    ///
    /// The encoding: per node, the 16-bit word
    /// `ready | idle << 4 | pending-cw << 8 | pending-ccw << 12`; the
    /// signature is the lexicographically smallest among the `2n`
    /// rotations/reflections of that word sequence (reflections swap cw and
    /// ccw), found with two Booth least-rotation scans
    /// ([`rr_ring::View::least_rotation_start`]) and packed four nodes per
    /// `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `n >` [`MAX_CANONICAL_N`] or if more than 15 robots share a
    /// node and phase (the 4-bit per-phase count).
    #[must_use]
    pub fn canonical_sig(&self) -> StateSig {
        let mut decoder = Decoder::new(self);
        let (n, k) = (decoder.n, decoder.k);
        canonical_sig_from(
            n,
            k,
            std::iter::from_fn(|| {
                let r = decoder.next_robot();
                Some((r.node, r.phase))
            }),
        )
    }

    /// The instance header `(n, k)` of this packed state.
    #[must_use]
    pub fn instance(&self) -> (usize, usize) {
        let decoder = Decoder::new(self);
        (decoder.n, decoder.k)
    }

    /// The `(node, phase code)` of every robot in robot-id order — the
    /// behavioural cells the canonical-quotient relabeling aligns on.  Phase
    /// codes are [`PHASE_READY`]/[`PHASE_IDLE`]/[`PHASE_MOVE_CW`]/
    /// [`PHASE_MOVE_CCW`].
    #[must_use]
    pub fn robot_cells(&self) -> Vec<(usize, u64)> {
        let mut decoder = Decoder::new(self);
        (0..decoder.k)
            .map(|_| {
                let r = decoder.next_robot();
                (r.node, r.phase)
            })
            .collect()
    }

    /// The dihedral transform under which this state attains its
    /// [`canonical_sig`](Self::canonical_sig): apply
    /// [`CanonicalTransform::canonical_index`] /
    /// [`CanonicalTransform::canonical_phase`] to every robot cell and the
    /// resulting per-node phase counts read off the canonical word.
    /// Deterministic in the state bits — equal packed states always report
    /// the same transform.
    #[must_use]
    pub fn canonical_transform(&self) -> CanonicalTransform {
        let mut decoder = Decoder::new(self);
        let (n, k) = (decoder.n, decoder.k);
        canonical_choice(
            n,
            k,
            std::iter::from_fn(|| {
                let r = decoder.next_robot();
                Some((r.node, r.phase))
            }),
        )
        .1
    }

    /// Encodes this state as a sparse XOR delta against `base` — the
    /// cluster-compression primitive of the checker's spill-to-disk state
    /// store.  BFS neighbours differ in a handful of packed words, so the
    /// delta is usually a few bytes where the raw words are dozens.
    ///
    /// Format (all varints LEB128): `word count of self`, `entry count`,
    /// then per entry `word index`, `xor word`.  Entries cover exactly the
    /// indices where `self` differs from `base`; indices past the shorter
    /// state XOR against zero.  [`PackedState::apply_delta`] inverts it.
    #[must_use]
    pub fn delta_from(&self, base: &PackedState) -> Vec<u8> {
        let mine = self.words();
        let theirs = base.words();
        let mut out = Vec::with_capacity(8);
        write_uleb(&mut out, mine.len() as u64);
        let entries: Vec<(usize, u64)> = (0..mine.len())
            .filter_map(|i| {
                let xor = mine[i] ^ theirs.get(i).copied().unwrap_or(0);
                (xor != 0).then_some((i, xor))
            })
            .collect();
        write_uleb(&mut out, entries.len() as u64);
        for (i, xor) in entries {
            write_uleb(&mut out, i as u64);
            write_uleb(&mut out, xor);
        }
        out
    }

    /// Reconstructs the state that produced `delta` via
    /// [`PackedState::delta_from`] against the same `base`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is truncated or malformed (the spill store only
    /// feeds back bytes it wrote itself).
    #[must_use]
    pub fn apply_delta(base: &PackedState, delta: &[u8]) -> PackedState {
        let mut cursor = delta;
        let len = read_uleb(&mut cursor) as usize;
        let base_words = base.words();
        let mut words = vec![0u64; len];
        let shared = len.min(base_words.len());
        words[..shared].copy_from_slice(&base_words[..shared]);
        let entries = read_uleb(&mut cursor);
        for _ in 0..entries {
            let i = read_uleb(&mut cursor) as usize;
            words[i] ^= read_uleb(&mut cursor);
        }
        assert!(cursor.is_empty(), "trailing bytes in packed-state delta");
        PackedState::from_words(words)
    }
}

/// LEB128 varint append: 7 bits per byte, high bit = continuation.
fn write_uleb(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// LEB128 varint read; advances `bytes` past the varint.
fn read_uleb(bytes: &mut &[u8]) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = bytes.split_first().expect("truncated varint");
        *bytes = rest;
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
        assert!(shift < 64, "varint overflows u64");
    }
}

/// [`PackedState::behavior_sig`] over any `(node, phase code)` stream of
/// exactly `k` robots — shared by the packed and the live-engine entry
/// points.
pub(crate) fn behavior_sig_from(
    n: usize,
    k: usize,
    robots: impl Iterator<Item = (usize, u64)>,
) -> StateSig {
    let bits = bits_for(n as u64 - 1).max(1) + 2;
    assert!(
        k as u32 * bits <= (SIG_WORDS as u32) * 64,
        "behavior_sig: instance too large for the fixed signature"
    );
    let mut sig = [0u64; SIG_WORDS];
    let mut cursor = 0u32;
    for (node, phase) in robots.take(k) {
        let field = (node as u64) << 2 | phase;
        let (word, shift) = ((cursor / 64) as usize, cursor % 64);
        sig[word] |= field << shift;
        let room = 64 - shift;
        if bits > room {
            sig[word + 1] |= field >> room;
        }
        cursor += bits;
    }
    sig
}

/// [`PackedState::canonical_sig`] over any `(node, phase code)` stream of
/// exactly `k` robots — shared by the packed and the live-engine entry
/// points.  Runs on stack arrays end to end: the model checker calls this
/// once per discovered state.
pub(crate) fn canonical_sig_from(
    n: usize,
    k: usize,
    robots: impl Iterator<Item = (usize, u64)>,
) -> StateSig {
    let (word, transform) = canonical_choice(n, k, robots);
    let wrap = |t: usize| if t >= n { t - n } else { t };
    let mut sig = [0u64; SIG_WORDS];
    for t in 0..n {
        sig[t / 4] |= u64::from(word[wrap(transform.start + t)]) << (16 * (t % 4));
    }
    sig
}

/// The dihedral transform a state's canonical signature was minimized with:
/// an optional reflection through node 0 followed by a rotation.  Two states
/// with equal [`PackedState::canonical_sig`] are mapped onto the *same*
/// canonical word by their respective transforms, which is what lets the
/// checker align the robots of two class-equal states deterministically
/// (the quotient-liveness relabeling in `rr-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonicalTransform {
    /// Whether the winning orientation first reflects the ring through node
    /// 0 (`v ↦ (n - v) mod n`), which also swaps cw/ccw pending moves.
    pub reflect: bool,
    /// The rotation offset: the (post-reflection) node placed at canonical
    /// position 0.
    pub start: usize,
}

impl CanonicalTransform {
    /// Canonical position of ring node `node` on a ring of `n` nodes.
    #[must_use]
    pub fn canonical_index(&self, n: usize, node: usize) -> usize {
        let v = if self.reflect { (n - node) % n } else { node };
        (v + n - self.start) % n
    }

    /// Canonical form of a 2-bit phase code: reflections swap the cw/ccw
    /// pending directions, rotations leave phases alone.
    #[must_use]
    pub fn canonical_phase(&self, phase: u64) -> u64 {
        match (self.reflect, phase) {
            (true, PHASE_MOVE_CW) => PHASE_MOVE_CCW,
            (true, PHASE_MOVE_CCW) => PHASE_MOVE_CW,
            (_, p) => p,
        }
    }
}

/// Shared core of [`canonical_sig_from`] and the transform accessor: the
/// winning orientation's per-node 16-bit phase-count words and the dihedral
/// transform that produced it.  Deterministic in the state bits alone — the
/// same state always picks the same transform, on every worker.
fn canonical_choice(
    n: usize,
    k: usize,
    robots: impl Iterator<Item = (usize, u64)>,
) -> ([u16; MAX_CANONICAL_N], CanonicalTransform) {
    assert!(
        n <= MAX_CANONICAL_N,
        "canonical_sig supports n ≤ {MAX_CANONICAL_N}"
    );
    let mut counts = [[0u16; 4]; MAX_CANONICAL_N];
    for (node, phase) in robots.take(k) {
        let slot = &mut counts[node][phase as usize];
        *slot += 1;
        assert!(*slot < 16, "canonical_sig packs per-node counts in 4 bits");
    }
    // Forward word and the reflection through node 0 (v ↦ n - v mod n),
    // which also swaps the cw/ccw pending directions.
    let enc = |c: &[u16; 4], swap: bool| -> u16 {
        let (cw, ccw) = if swap { (c[3], c[2]) } else { (c[2], c[3]) };
        c[0] | c[1] << 4 | cw << 8 | ccw << 12
    };
    let mut fwd = [0u16; MAX_CANONICAL_N];
    let mut rev = [0u16; MAX_CANONICAL_N];
    for v in 0..n {
        fwd[v] = enc(&counts[v], false);
        let mirror = if v == 0 { 0 } else { n - v };
        rev[v] = enc(&counts[mirror], true);
    }
    let fi = View::least_rotation_start(n, |t| usize::from(fwd[t]));
    let ri = View::least_rotation_start(n, |t| usize::from(rev[t]));
    let wrap = |t: usize| if t >= n { t - n } else { t };
    let reversed_wins = (0..n).find_map(|t| {
        let a = fwd[wrap(fi + t)];
        let b = rev[wrap(ri + t)];
        (a != b).then_some(b < a)
    });
    if reversed_wins == Some(true) {
        (
            rev,
            CanonicalTransform {
                reflect: true,
                start: ri,
            },
        )
    } else {
        (
            fwd,
            CanonicalTransform {
                reflect: false,
                start: fi,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_stream_round_trips_mixed_widths() {
        let mut words = [0u64; 3];
        let mut w = BitWriter::new(&mut words);
        let fields: [(u64, u32); 8] = [
            (0x5A5A, 16),
            (0, 0),
            (1, 1),
            (u64::MAX, 64),
            (0x1F, 5),
            ((1 << 63) - 7, 63),
            (0, 7),
            (42, 17),
        ];
        for &(v, bits) in &fields {
            w.push(v, bits);
        }
        let packed = PackedState::from_words(words.to_vec());
        let mut r = BitReader::new(&packed);
        for &(v, bits) in &fields {
            assert_eq!(r.pull(bits), v, "width {bits}");
        }
    }

    #[test]
    fn delta_codec_round_trips_across_word_lengths() {
        let mk = |words: &[u64]| PackedState::from_words(words.to_vec());
        let cases: [(&[u64], &[u64]); 6] = [
            (&[1, 2, 3], &[1, 2, 3]),
            (&[1, 2, 3], &[1, 9, 3]),
            (&[1, 2], &[1, 2, 3, 4]),
            (&[1, 2, 3, 4], &[1, 2]),
            (&[], &[7]),
            (&[u64::MAX; 5], &[0; 5]),
        ];
        for (base_words, state_words) in cases {
            let base = mk(base_words);
            let state = mk(state_words);
            let delta = state.delta_from(&base);
            assert_eq!(
                PackedState::apply_delta(&base, &delta),
                state,
                "base {base_words:?} state {state_words:?}"
            );
        }
        // Equal states compress to the 2-byte empty delta.
        let a = mk(&[5, 6, 7]);
        assert_eq!(a.delta_from(&a).len(), 2);
    }

    #[test]
    fn uleb_round_trips_boundary_values() {
        for value in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_uleb(&mut buf, value);
            let mut cursor = &buf[..];
            assert_eq!(read_uleb(&mut cursor), value);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn canonical_transform_reproduces_the_canonical_word() {
        // Hand-rolled states: (node, phase) cells on a ring of n — including
        // one whose winner is a reflection (an asymmetric pending-move
        // pattern) — re-encoded through the reported transform must land on
        // the canonical signature's word sequence.
        let cases: [(usize, Vec<(usize, u64)>); 3] = [
            (6, vec![(0, PHASE_READY), (1, PHASE_MOVE_CW)]),
            (
                7,
                vec![(2, PHASE_MOVE_CCW), (3, PHASE_IDLE), (3, PHASE_READY)],
            ),
            (
                5,
                vec![(0, PHASE_MOVE_CW), (1, PHASE_MOVE_CW), (4, PHASE_READY)],
            ),
        ];
        for (n, cells) in cases {
            let k = cells.len();
            let sig = canonical_sig_from(n, k, cells.iter().copied());
            let (_, transform) = canonical_choice(n, k, cells.iter().copied());
            // Rebuild the canonical word from transformed cells.
            let mut counts = [[0u16; 4]; MAX_CANONICAL_N];
            for &(node, phase) in &cells {
                let ci = transform.canonical_index(n, node);
                let cp = transform.canonical_phase(phase);
                counts[ci][cp as usize] += 1;
            }
            let mut rebuilt = [0u64; SIG_WORDS];
            for (t, c) in counts[..n].iter().enumerate() {
                let word = u64::from(c[0])
                    | u64::from(c[1]) << 4
                    | u64::from(c[2]) << 8
                    | u64::from(c[3]) << 12;
                rebuilt[t / 4] |= word << (16 * (t % 4));
            }
            assert_eq!(rebuilt, sig, "n={n} cells {cells:?}");
        }
    }

    #[test]
    fn state_sig_hashes_its_length_then_one_round_per_word() {
        use std::hash::{Hash, Hasher};
        let sig: StateSig = [1, u64::MAX, 0x0123_4567_89AB_CDEF, 0, 1 << 63, 42];
        let mut hashed = SigHasher::default();
        sig.hash(&mut hashed);
        let mut by_words = SigHasher::default();
        by_words.write_u64(SIG_WORDS as u64);
        for word in sig {
            by_words.write_u64(word);
        }
        assert_eq!(hashed.finish(), by_words.finish());
    }

    #[test]
    fn bits_for_edge_cases() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }
}
