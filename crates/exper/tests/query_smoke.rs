//! The query smoke on the built `esvm`: a start filter over a generated
//! ESVT trace skips whole blocks without decoding them, and a grouped
//! aggregation over the committed chaos JSONL fixture reports its
//! groups.

#[path = "support/spawn.rs"]
mod spawn;

use spawn::{esvm, scratch_dir};

/// The number before `what` in `text`'s `… N what …`.
fn count_before(text: &str, what: &str) -> Option<u64> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let at = words
        .iter()
        .position(|w| w.trim_end_matches([';', ',', ')']) == what)?;
    words.get(at.checked_sub(1)?)?.parse().ok()
}

#[test]
fn a_start_filter_skips_esvt_blocks_and_jsonl_groups_aggregate() {
    let dir = scratch_dir("query_smoke");
    // 20k records make five 4096-record blocks over starts 0..~1000;
    // the filter keeps the last fifth.
    esvm(
        &dir,
        &[
            "gen",
            "--vms",
            "20000",
            "--servers",
            "2000",
            "--interarrival",
            "0.05",
            "--out",
            "q.esvt",
        ],
    );
    let esvt = esvm(
        &dir,
        &[
            "query",
            "load q.esvt | filter start >= 800 | agg count,mean:cpu,max:end",
        ],
    );
    let skipped =
        count_before(&esvt, "skipped").unwrap_or_else(|| panic!("no skip count in\n{esvt}"));
    assert!(skipped > 0, "no block skipped:\n{esvt}");

    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/chaos_events.jsonl"
    );
    let jsonl = esvm(
        &dir,
        &["query", &format!("load {fixture} | agg count by:event")],
    );
    assert!(jsonl.contains("groups"), "{jsonl}");
    std::fs::remove_dir_all(&dir).ok();
}
