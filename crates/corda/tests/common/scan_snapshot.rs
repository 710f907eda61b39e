// Reference implementation of `Snapshot::capture`, shared by the snapshot
// unit tests and `tests/look_reference.rs` through `include!`.  The
// including scope provides `Configuration`, `Direction`, `NodeId`, `View`,
// `MultiplicityCapability` and `Snapshot`.

include!("../../../ring/tests/common/view_scan.rs");

/// The pre-incremental snapshot: O(n) ring walks per view
/// ([`view_from_scan`]) and an O(n·k) empty-node re-walk for the `Global`
/// flags.
fn capture_scan(
    config: &Configuration,
    node: NodeId,
    capability: MultiplicityCapability,
    first_direction: Direction,
) -> Snapshot {
    let d0 = first_direction;
    let d1 = first_direction.opposite();
    let views = [
        view_from_scan(config, node, d0),
        view_from_scan(config, node, d1),
    ];
    let on_multiplicity = match capability {
        MultiplicityCapability::None => None,
        MultiplicityCapability::Local | MultiplicityCapability::Global => {
            Some(config.is_multiplicity(node))
        }
    };
    let global_multiplicities = match capability {
        MultiplicityCapability::Global => {
            // Walk the occupied nodes in the order of views[0].
            let mut flags = Vec::with_capacity(views[0].len());
            let mut cur = node;
            flags.push(config.is_multiplicity(cur));
            for _ in 1..views[0].len() {
                loop {
                    cur = config.ring().neighbor(cur, d0);
                    if config.is_occupied(cur) {
                        break;
                    }
                }
                flags.push(config.is_multiplicity(cur));
            }
            Some(flags)
        }
        _ => None,
    };
    Snapshot {
        views,
        on_multiplicity,
        global_multiplicities,
    }
}
