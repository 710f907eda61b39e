// Reference implementation of `Configuration::view_from`, shared by the
// configuration's unit tests, `tests/config_incremental.rs` and rr-corda's
// snapshot reference through `include!`.  The including scope provides
// `Configuration`, `Direction`, `NodeId` and `View`.

/// The pre-incremental view: an O(n) walk around the ring from `v` in
/// direction `dir`, closing a gap at every occupied node met.
///
/// # Panics
///
/// Panics if `v` is not occupied.
fn view_from_scan(config: &Configuration, v: NodeId, dir: Direction) -> View {
    assert!(config.is_occupied(v), "view requested at empty node {v}");
    let ring = config.ring();
    let mut gaps = Vec::new();
    let mut g = 0usize;
    let mut cur = ring.neighbor(v, dir);
    while cur != v {
        if config.is_occupied(cur) {
            gaps.push(g);
            g = 0;
        } else {
            g += 1;
        }
        cur = ring.neighbor(cur, dir);
    }
    gaps.push(g);
    View::new(gaps)
}
