//! The crash/recover smoke on the built `esvm`: serve a generated trace
//! with a write-ahead journal, cut the journal mid-record as a crash
//! would, recover and resume it, recover it again cleanly, drill a
//! fault plan against a live session with `chaos --live --journal` and
//! recover that journal, and run `gap`.

#[path = "support/spawn.rs"]
mod spawn;

use spawn::{esvm, scratch_dir};

#[test]
fn a_torn_journal_recovers_resumes_and_recovers_clean() {
    let dir = scratch_dir("journal_smoke_torn");
    esvm(
        &dir,
        &["gen", "--vms", "2000", "--servers", "200", "--interarrival", "0.2", "--out", "resilience.esvt"],
    );
    let served = esvm(&dir, &["serve", "--trace", "resilience.esvt", "--journal", "resilience.esvj"]);
    assert!(served.contains("journal appends"), "{served}");

    // A crash mid-append: the last 13 bytes, part of a record, are lost.
    let journal = std::fs::read(dir.join("resilience.esvj")).unwrap();
    std::fs::write(dir.join("crashed.esvj"), &journal[..journal.len() - 13]).unwrap();
    let recovered = esvm(&dir, &["serve", "--recover", "crashed.esvj", "--journal", "crashed.esvj"]);
    assert!(recovered.contains("torn bytes dropped"), "{recovered}");
    assert!(recovered.contains("recovery (ms)"), "{recovered}");

    // The resumed journal is clean: a second recovery sees no tear.
    let again = esvm(&dir, &["serve", "--recover", "crashed.esvj"]);
    assert!(!again.contains("torn bytes"), "{again}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_live_chaos_drill_journal_recovers() {
    let dir = scratch_dir("journal_smoke_drill");
    let drill = esvm(
        &dir,
        &[
            "chaos", "--vms", "200", "--servers", "40", "--interarrival", "0.5", "--transition",
            "10", "--fault-rate", "0.8", "--seed", "3", "--live", "--journal", "drill.esvj",
        ],
    );
    assert!(drill.contains("adjusted cost"), "{drill}");
    let recovered = esvm(&dir, &["serve", "--recover", "drill.esvj"]);
    assert!(recovered.contains("recovered"), "{recovered}");
    esvm(&dir, &["gap", "--vms", "40", "--servers", "10", "--seeds", "2"]);
    std::fs::remove_dir_all(&dir).ok();
}
