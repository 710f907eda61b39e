// Reference definitions of the engine-state signatures, shared by the
// engine's unit tests and `tests/packed_roundtrip.rs` through `include!`.
// The including scope provides `EngineState`, `Phase`, `Direction` and
// `View`.

/// Reference for `behavior_sig`: the exact behavioural identity of a state —
/// the ring size plus each robot's `(node, phase)`, *excluding* the
/// step/move/look counters, as an unpacked word vector.
fn exact_key(state: &EngineState) -> Vec<u64> {
    let ring = state.configuration().ring();
    let mut key = vec![ring.len() as u64];
    for r in state.robots() {
        let phase = match r.phase {
            Phase::Ready => 0u64,
            Phase::IdlePending => 1,
            Phase::MovePending { target } if ring.neighbor(r.node, Direction::Cw) == target => 2,
            Phase::MovePending { .. } => 3,
        };
        key.push((r.node as u64) << 2 | phase);
    }
    key
}

/// Reference for `canonical_sig`: the behavioural identity up to ring
/// automorphism and robot relabeling — the lexicographically smallest, over
/// all `2n` rotations/reflections of the ring, of the per-node word
/// `ready | idle << 4 | pending-cw << 8 | pending-ccw << 12` (reflections
/// swap the cw/ccw pending directions), found by materializing the two
/// words and their least rotations.
fn canonical_key(state: &EngineState) -> Vec<usize> {
    let ring = state.configuration().ring();
    let n = ring.len();
    let (mut ready, mut idle) = (vec![0usize; n], vec![0usize; n]);
    let (mut pend_cw, mut pend_ccw) = (vec![0usize; n], vec![0usize; n]);
    for r in state.robots() {
        match r.phase {
            Phase::Ready => ready[r.node] += 1,
            Phase::IdlePending => idle[r.node] += 1,
            Phase::MovePending { target } if ring.neighbor(r.node, Direction::Cw) == target => {
                pend_cw[r.node] += 1;
            }
            Phase::MovePending { .. } => pend_ccw[r.node] += 1,
        }
    }
    let enc = |v: usize, cw: &[usize], ccw: &[usize]| {
        assert!(ready[v] < 16 && idle[v] < 16 && cw[v] < 16 && ccw[v] < 16);
        ready[v] | idle[v] << 4 | cw[v] << 8 | ccw[v] << 12
    };
    // The forward reading and the reflection through node 0 (v ↦ -v mod
    // n): every automorphism is a rotation of one of the two.
    let forward: Vec<usize> = (0..n).map(|v| enc(v, &pend_cw, &pend_ccw)).collect();
    let reflected: Vec<usize> = (0..n)
        .map(|v| enc((n - v) % n, &pend_ccw, &pend_cw))
        .collect();
    let a = View::new(forward).min_rotation();
    let b = View::new(reflected).min_rotation();
    a.min(b).gaps().to_vec()
}
