//! Arbitrary byte strings against the two decoders that read what a spool
//! keeps on disk: `GridSpec::parse` (grid files, read as lossy UTF-8) and
//! `ledger::scan` (result ledgers).  Neither may panic, every grid `parse`
//! accepts must round-trip through its canonical encoding, and a ledger's
//! durable prefix must scan to the same result as the whole file.
//!
//! Uniformly random bytes almost never get past a grid file's magic line,
//! so most cases start from a valid document — a preset's canonical
//! encoding, or a ledger of header, records and footer — and overwrite,
//! insert or delete random bytes, or swap a line's value for an edge-case
//! one (0, limits, overflows, signs, blanks).  The case stream is fixed;
//! override it with `PROPTEST_SEED=<u64>`.

use proptest::prelude::*;
use rr_bench::grid::{preset, GridSpec};
use rr_bench::ledger;

/// Values a mutation may put after a line's `=`.
const EDGE_VALUES: [&str; 14] = [
    "",
    " ",
    "0",
    "1",
    "+7",
    "-1",
    "65536",
    "65537",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "3x2",
    "async,async",
    "sweep",
];

/// One edit: `(kind, position, byte)`.  Kinds 0–2 overwrite, insert or
/// delete the byte at `position`; kind 3 replaces the value of the line at
/// `position` with an [`EDGE_VALUES`] entry.
type Edit = (u8, usize, u8);

fn edit_lists() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((0u8..4, 0usize..4096, 0u8..=255), 0..5)
}

fn apply(mut doc: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for &(kind, position, byte) in edits {
        let at = position % (doc.len() + 1);
        match kind {
            0 if at < doc.len() => doc[at] = byte,
            1 => doc.insert(at, byte),
            2 if at < doc.len() => {
                doc.remove(at);
            }
            3 => {
                let mut lines: Vec<Vec<u8>> =
                    doc.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
                let count = lines.len();
                let line = &mut lines[position % count];
                if let Some(eq) = line.iter().position(|&b| b == b'=') {
                    line.truncate(eq + 1);
                    line.extend_from_slice(
                        EDGE_VALUES[usize::from(byte) % EDGE_VALUES.len()].as_bytes(),
                    );
                }
                doc = lines.join(&b'\n');
            }
            _ => {}
        }
    }
    doc
}

/// Valid grid documents to start from: every preset, and a hand-written
/// file with comments and blank lines.
fn grid_seeds() -> Vec<String> {
    let mut seeds: Vec<String> = ["e3", "e4", "e5", "e6"]
        .iter()
        .map(|name| {
            preset(name, true, None)
                .expect("preset")
                .canonical_encoding()
        })
        .collect();
    seeds.push(
        "\n# hand-written\nrr-sweepd-grid/v1\nexperiment=T\nroot_seed=5\ninstances=8x4,9x3\n\
         kind=sweep\ntask=gathering\nschedulers=async , ssync\nseeds_per_cell=0\n\
         clearings=0\nexplorations=0\nbudget_per_n=10\nbudget_flat=1\nasync_budget_factor=2\n"
            .to_string(),
    );
    seeds
}

/// A valid ledger: a header, two records (one failed) and a footer.
fn ledger_seed() -> Vec<u8> {
    let header = rr_bench::sweep::SweepHeader::new("T", 7).to_json_line();
    format!(
        "{header}\n{{\"experiment\":\"T\",\"ok\":true}}\n{{\"experiment\":\"T\",\"ok\":false}}\n{}\n",
        ledger::footer_line(2, 1)
    )
    .into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn grid_parse_never_panics_and_accepted_specs_roundtrip(
        pick in 0usize..6,
        raw in proptest::collection::vec(0u8..=255, 0..96),
        edits in edit_lists(),
    ) {
        let seeds = grid_seeds();
        // The last pick is the raw bytes themselves.
        let doc = match seeds.get(pick) {
            Some(seed) => apply(seed.clone().into_bytes(), &edits),
            None => raw,
        };
        let text = String::from_utf8_lossy(&doc);
        if let Ok(spec) = GridSpec::parse(&text) {
            let encoded = spec.canonical_encoding();
            prop_assert_eq!(GridSpec::parse(&encoded), Ok(spec.clone()), "{:?}", text);
            prop_assert_eq!(spec.canonical_encoding(), encoded);
        }
    }

    #[test]
    fn ledger_scan_never_panics_and_its_durable_prefix_scans_the_same(
        raw in proptest::collection::vec(0u8..=255, 0..96),
        use_raw in 0u8..4,
        edits in edit_lists(),
    ) {
        let doc = if use_raw == 0 { raw } else { apply(ledger_seed(), &edits) };
        let dir = std::env::temp_dir().join(format!("rr-bench-ledger-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        std::fs::write(&path, &doc).unwrap();
        let scan = ledger::scan(&path).unwrap();
        prop_assert!(scan.durable_bytes <= doc.len() as u64);
        prop_assert!(scan.records <= doc.iter().filter(|&&b| b == b'\n').count());
        std::fs::write(&path, &doc[..scan.durable_bytes as usize]).unwrap();
        prop_assert_eq!(ledger::scan(&path).unwrap(), scan);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
