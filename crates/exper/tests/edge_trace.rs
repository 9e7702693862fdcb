//! A trace whose one VM ends at the last representable time unit, solved
//! by every allocator on the built `esvm`. `miec-blind` prices each VM
//! as if it ran five units, which here would end past `MAX_TIME`; the
//! assumed end is clamped, so the run exits 0 like the others.

#[path = "support/spawn.rs"]
mod spawn;

use esvm_core::AllocatorKind;
use spawn::{esvm, scratch_dir};

const TRACE: &str = "# esvm trace v1
[servers]
id,cpu,mem,p_idle,p_peak,alpha
0,16,32,38,80,80
[vms]
id,cpu,mem,start,end
0,1,1.7,4294967293,4294967294
";

#[test]
fn every_allocator_solves_a_vm_at_the_end_of_time() {
    let dir = scratch_dir("edge_trace");
    std::fs::write(dir.join("edge.trace"), TRACE).unwrap();
    let names: Vec<&str> = AllocatorKind::ALL.iter().map(AllocatorKind::name).collect();
    let report = esvm(
        &dir,
        &[
            "solve",
            "--trace",
            "edge.trace",
            "--algos",
            &names.join(","),
        ],
    );
    // One server, one VM: every allocator reports the same energy.
    for name in names {
        let row = report
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name));
        let cells: Vec<&str> = row.unwrap_or_default().split_whitespace().collect();
        assert_eq!(cells.get(1), Some(&"161"), "{name} in\n{report}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
