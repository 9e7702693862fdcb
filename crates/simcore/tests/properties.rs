//! Property-based tests of the simulation substrate against naive
//! reference models.

use esvm_simcore::energy::{full_cost, segment_cost};
use esvm_simcore::{
    CoverageSet, Interval, PowerModel, Resources, SegmentSet, ServerLedger, ServerSpec,
    UsageProfile, Vm,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_interval() -> impl Strategy<Value = Interval> {
    (0u32..200, 0u32..30).prop_map(|(s, len)| Interval::with_len(s, len + 1))
}

/// Model time units: every history below ends before this.
const HORIZON: usize = 640;

/// Histories longer than the 15-entry tail the ledgers' sorted-array
/// searches probe first: up to `max` short intervals over a
/// 600-unit horizon, in random order or sorted by start as offline
/// MIEC hosts them, so both the tail probes and the fallback bisection
/// answer the queries.
fn arb_history<X: std::fmt::Debug + Clone>(
    extra: impl Strategy<Value = X>,
    max: usize,
) -> impl Strategy<Value = Vec<(Interval, X)>> {
    let short = (0u32..600, 0u32..12).prop_map(|(s, len)| Interval::with_len(s, len + 1));
    (proptest::collection::vec((short, extra), 0..max), proptest::bool::ANY).prop_map(
        |(mut entries, start_ordered)| {
            if start_ordered {
                entries.sort_by_key(|(iv, _)| iv.start());
            }
            entries
        },
    )
}

fn arb_spec() -> impl Strategy<Value = ServerSpec> {
    (1u32..20, 1u32..40, 0u32..30, 1u32..40, 0u32..120).prop_map(
        |(cpu, mem, idle, dynamic, alpha)| {
            ServerSpec::new(
                0,
                Resources::new(f64::from(cpu), f64::from(mem)),
                PowerModel::new(f64::from(idle), f64::from(idle + dynamic)),
                f64::from(alpha),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// SegmentSet agrees with a naive per-time-unit set model.
    #[test]
    fn segment_set_matches_naive_model(intervals in arb_history(Just(()), 80)) {
        let mut set = SegmentSet::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for (iv, ()) in &intervals {
            set.insert(*iv);
            model.extend(iv.iter());
        }
        // Same busy time and same membership.
        prop_assert_eq!(set.busy_time(), model.len() as u64);
        for t in 0..HORIZON as u32 {
            prop_assert_eq!(set.contains(t), model.contains(&t), "t={}", t);
        }
        // Segments are disjoint, non-adjacent and sorted.
        let segs: Vec<Interval> = set.iter().collect();
        for w in segs.windows(2) {
            prop_assert!(u64::from(w[0].end()) + 1 < u64::from(w[1].start()));
        }
        // Gaps partition the span minus the busy units.
        if let Some(span) = set.span() {
            let gap_units: u64 = set.gaps().map(|g| g.len()).sum();
            prop_assert_eq!(gap_units + set.busy_time(), span.len());
        }
    }

    /// UsageProfile agrees with a naive per-time-unit accumulation.
    #[test]
    fn usage_profile_matches_naive_model(
        entries in arb_history((1u32..8, 1u32..8), 60)
    ) {
        let mut profile = UsageProfile::new();
        let mut model = vec![(0.0f64, 0.0f64); HORIZON];
        for (iv, (cpu, mem)) in &entries {
            let demand = Resources::new(f64::from(*cpu), f64::from(*mem));
            profile.add(*iv, demand);
            for t in iv.iter() {
                model[t as usize].0 += demand.cpu;
                model[t as usize].1 += demand.mem;
            }
        }
        for (t, &(cpu, mem)) in model.iter().enumerate() {
            let u = profile.usage_at(t as u32);
            prop_assert!((u.cpu - cpu).abs() < 1e-9, "cpu at t={}", t);
            prop_assert!((u.mem - mem).abs() < 1e-9, "mem at t={}", t);
        }
        // Non-zero integral agrees with the model.
        let (units, integral) = profile.nonzero_integral();
        let m_units = model.iter().filter(|&&(c, m)| c > 0.0 || m > 0.0).count() as u64;
        let m_cpu: f64 = model.iter().map(|&(c, _)| c).sum();
        prop_assert_eq!(units, m_units);
        prop_assert!((integral.cpu - m_cpu).abs() < 1e-6);
    }

    /// `fits` is exactly "no per-unit capacity violation".
    #[test]
    fn fits_matches_naive_check(
        entries in arb_history((1u32..8, 1u32..8), 60),
        probe in ((0u32..600, 0u32..30), 1u32..8, 1u32..8),
        cap in (8u32..24, 8u32..24),
    ) {
        let capacity = Resources::new(f64::from(cap.0), f64::from(cap.1));
        let mut profile = UsageProfile::new();
        let mut model = vec![(0.0f64, 0.0f64); HORIZON];
        for (iv, (cpu, mem)) in &entries {
            let demand = Resources::new(f64::from(*cpu), f64::from(*mem));
            profile.add(*iv, demand);
            for t in iv.iter() {
                model[t as usize].0 += demand.cpu;
                model[t as usize].1 += demand.mem;
            }
        }
        let ((start, len), cpu, mem) = probe;
        let iv = Interval::with_len(start, len + 1);
        let demand = Resources::new(f64::from(cpu), f64::from(mem));
        let expected = iv.iter().all(|t| {
            model[t as usize].0 + demand.cpu <= capacity.cpu + 1e-9
                && model[t as usize].1 + demand.mem <= capacity.mem + 1e-9
        });
        prop_assert_eq!(profile.fits(iv, demand, capacity), expected);
    }

    /// The incremental ledger always agrees with the from-scratch
    /// reference cost, and hypothetical evaluation never mutates.
    #[test]
    fn ledger_matches_reference_cost(
        spec in arb_spec(),
        vms in proptest::collection::vec((arb_interval(), 1u32..4, 1u32..4), 0..12),
    ) {
        let mut ledger = ServerLedger::new(spec);
        let mut hosted: Vec<Vm> = Vec::new();
        for (j, (iv, cpu, mem)) in vms.into_iter().enumerate() {
            let vm = Vm::new(j as u32, Resources::new(f64::from(cpu), f64::from(mem)), iv);
            if !ledger.fits(&vm) {
                continue;
            }
            let predicted = ledger.cost_with(&vm);
            let before = ledger.cost();
            prop_assert!(predicted >= before - 1e-9, "cost must not decrease");
            ledger.host(&vm);
            hosted.push(vm);
            prop_assert!((ledger.cost() - predicted).abs() < 1e-6);
            prop_assert!((ledger.cost() - full_cost(ledger.spec(), &hosted)).abs() < 1e-6);
        }
    }

    /// The delta-based scoring agrees with the clone-based oracle: for a
    /// ledger grown from random VMs and a random probe,
    /// `incremental_cost` equals both `reference_incremental_cost` (the
    /// seed's cost_with − cost arithmetic) and the `full_cost` difference
    /// of the hosted sets.
    #[test]
    fn incremental_cost_matches_clone_oracle(
        spec in arb_spec(),
        vms in proptest::collection::vec((arb_interval(), 1u32..4, 1u32..4), 0..12),
        probe in (arb_interval(), 1u32..4, 1u32..4),
    ) {
        let mut ledger = ServerLedger::new(spec);
        let mut hosted: Vec<Vm> = Vec::new();
        for (j, (iv, cpu, mem)) in vms.into_iter().enumerate() {
            let vm = Vm::new(j as u32, Resources::new(f64::from(cpu), f64::from(mem)), iv);
            if ledger.fits(&vm) {
                ledger.host(&vm);
                hosted.push(vm);
            }
        }
        let (iv, cpu, mem) = probe;
        let vm = Vm::new(99, Resources::new(f64::from(cpu), f64::from(mem)), iv);

        let fast = ledger.incremental_cost(&vm);
        let oracle = ledger.reference_incremental_cost(&vm);
        prop_assert!((fast - oracle).abs() < 1e-9, "delta {} vs oracle {}", fast, oracle);
        prop_assert!((fast - (ledger.cost_with(&vm) - ledger.cost())).abs() < 1e-6);

        let mut with_probe = hosted.clone();
        with_probe.push(vm);
        let full_delta = full_cost(ledger.spec(), &with_probe) - full_cost(ledger.spec(), &hosted);
        prop_assert!((fast - full_delta).abs() < 1e-6, "delta {} vs full-cost {}", fast, full_delta);

        // Scoring never mutates: committing afterwards lands on the
        // predicted cost, and the cached cost matches a fresh rescan.
        if ledger.fits(&vm) {
            let predicted = ledger.cost() + fast;
            ledger.host(&vm);
            prop_assert!((ledger.cost() - predicted).abs() < 1e-6);
            prop_assert!(
                (ledger.cost()
                    - (ledger.run_cost() + segment_cost(ledger.spec(), ledger.segments())))
                .abs() < 1e-6
            );
        }
    }

    /// Inserting an interval into a segment set never decreases the
    /// segment cost (more busy time can only cost more or bridge gaps at
    /// their previous price).
    #[test]
    fn segment_cost_is_monotone_under_insert(
        spec in arb_spec(),
        intervals in proptest::collection::vec(arb_interval(), 1..15),
    ) {
        let mut set = SegmentSet::new();
        let mut prev = segment_cost(&spec, &set);
        for iv in intervals {
            set.insert(iv);
            let now = segment_cost(&spec, &set);
            prop_assert!(now >= prev - 1e-9, "cost dropped from {} to {}", prev, now);
            prev = now;
        }
    }

    /// `SegmentSet::remove` agrees with a naive per-time-unit set
    /// subtraction, and canonical form is preserved.
    #[test]
    fn segment_remove_matches_naive_model(
        inserts in proptest::collection::vec(arb_interval(), 0..15),
        removes in proptest::collection::vec(arb_interval(), 0..10),
    ) {
        let mut set = SegmentSet::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for iv in &inserts {
            set.insert(*iv);
            model.extend(iv.iter());
        }
        for iv in &removes {
            set.remove(*iv);
            for t in iv.iter() {
                model.remove(&t);
            }
            prop_assert_eq!(set.busy_time(), model.len() as u64);
            for t in 0..260u32 {
                prop_assert_eq!(set.contains(t), model.contains(&t), "t={}", t);
            }
            // Still disjoint, non-adjacent, sorted.
            let segs: Vec<Interval> = set.iter().collect();
            for w in segs.windows(2) {
                prop_assert!(u64::from(w[0].end()) + 1 < u64::from(w[1].start()));
            }
        }
    }

    /// `removal_delta` predicts exactly what `remove` realizes: the busy
    /// time freed, the gap-cost change, and whether the set empties.
    #[test]
    fn removal_delta_matches_clone_oracle(
        inserts in proptest::collection::vec(arb_interval(), 0..15),
        probe in arb_interval(),
        alpha in 0u32..30,
    ) {
        let price = |len: u64| (len as f64).min(f64::from(alpha));
        let total_gap = |s: &SegmentSet| s.gaps().map(|g| price(g.len())).sum::<f64>();
        let mut set = SegmentSet::new();
        for iv in &inserts {
            set.insert(*iv);
        }
        let delta = set.removal_delta(probe, price);
        let mut after = set.clone();
        after.remove(probe);
        prop_assert_eq!(delta.busy_removed, set.busy_time() - after.busy_time());
        prop_assert!(
            (delta.gap_cost_delta - (total_gap(&after) - total_gap(&set))).abs() < 1e-9,
            "gap delta {} vs realized {}",
            delta.gap_cost_delta,
            total_gap(&after) - total_gap(&set)
        );
        prop_assert_eq!(delta.last_segment, !set.is_empty() && after.is_empty());
        prop_assert_eq!(after, set.with_removed(probe));
    }

    /// For an interval disjoint from the set, `remove ∘ insert` is the
    /// identity and `removal_delta` (on the grown set) exactly negates
    /// `insertion_delta` (on the original).
    #[test]
    fn removal_delta_negates_insertion_delta(
        inserts in proptest::collection::vec(arb_interval(), 0..12),
        probe in arb_interval(),
    ) {
        let price = |len: u64| (len as f64).min(10.0);
        let mut set = SegmentSet::new();
        for iv in &inserts {
            set.insert(*iv);
        }
        if probe.iter().any(|t| set.contains(t)) {
            return Ok(()); // overlap: insertion is not invertible per se
        }
        let ins = set.insertion_delta(probe, price);
        let mut grown = set.clone();
        grown.insert(probe);
        let rem = grown.removal_delta(probe, price);
        prop_assert_eq!(ins.busy_added, rem.busy_removed);
        prop_assert!(
            (ins.gap_cost_delta + rem.gap_cost_delta).abs() < 1e-9,
            "insert {} vs remove {}",
            ins.gap_cost_delta,
            rem.gap_cost_delta
        );
        prop_assert_eq!(ins.first_segment, rem.last_segment);
        grown.remove(probe);
        prop_assert_eq!(grown, set);
    }

    /// CoverageSet agrees with a naive per-time-unit counter, `remove`
    /// is the exact inverse of `insert`, and the covered segments match
    /// the naive support.
    #[test]
    fn coverage_remove_exactly_inverts_insert(
        intervals in proptest::collection::vec(arb_interval(), 1..12),
    ) {
        let mut coverage = CoverageSet::new();
        let mut counts = vec![0u32; 300];
        let mut snapshots: Vec<CoverageSet> = Vec::new();
        for iv in &intervals {
            snapshots.push(coverage.clone());
            coverage.insert(*iv);
            for t in iv.iter() {
                counts[t as usize] += 1;
            }
            for t in 0..260u32 {
                prop_assert_eq!(coverage.count_at(t), counts[t as usize], "t={}", t);
            }
            let support = coverage.covered_segments();
            for t in 0..260u32 {
                prop_assert_eq!(support.contains(t), counts[t as usize] > 0, "t={}", t);
            }
        }
        // Unwind in reverse: each remove restores the exact prior value.
        for (iv, expected) in intervals.iter().zip(snapshots.iter()).rev() {
            coverage.remove(*iv);
            prop_assert_eq!(&coverage, expected);
        }
        prop_assert_eq!(coverage.breakpoint_count(), 0);
    }

    /// `exclusive_runs` returns exactly the maximal count-1 runs of an
    /// inserted interval: the busy time only that piece is holding up.
    #[test]
    fn exclusive_runs_match_naive_counts(intervals in arb_history(Just(()), 60)) {
        let mut coverage = CoverageSet::new();
        let mut counts = vec![0u32; HORIZON];
        for (iv, ()) in &intervals {
            coverage.insert(*iv);
            for t in iv.iter() {
                counts[t as usize] += 1;
            }
        }
        for (iv, ()) in &intervals {
            let mut exclusive: Vec<u32> =
                iv.iter().filter(|&t| counts[t as usize] == 1).collect();
            for run in coverage.exclusive_runs(*iv) {
                prop_assert!(run.start() >= iv.start() && run.end() <= iv.end());
                for t in run.iter() {
                    prop_assert_eq!(counts[t as usize], 1, "t={}", t);
                    prop_assert_eq!(exclusive.first(), Some(&t));
                    exclusive.remove(0);
                }
            }
            prop_assert!(exclusive.is_empty(), "missed units {:?}", exclusive);
        }
    }

    /// `unhost` exactly realizes `decremental_cost`, which negates
    /// `incremental_cost`; a host/unhost round trip plus a checkpoint
    /// restore returns the ledger to its previous state bit-for-bit.
    #[test]
    fn ledger_unhost_inverts_host(
        spec in arb_spec(),
        vms in proptest::collection::vec((arb_interval(), 1u32..4, 1u32..4), 0..12),
        probe in (arb_interval(), 1u32..4, 1u32..4),
    ) {
        let mut ledger = ServerLedger::new(spec);
        let mut hosted: Vec<Vm> = Vec::new();
        for (j, (iv, cpu, mem)) in vms.into_iter().enumerate() {
            let vm = Vm::new(j as u32, Resources::new(f64::from(cpu), f64::from(mem)), iv);
            if ledger.fits(&vm) {
                ledger.host(&vm);
                hosted.push(vm);
            }
        }
        let (iv, cpu, mem) = probe;
        let vm = Vm::new(99, Resources::new(f64::from(cpu), f64::from(mem)), iv);
        if !ledger.fits(&vm) {
            return Ok(());
        }
        let checkpoint = ledger.checkpoint();
        let before = ledger.clone();

        let inc = ledger.incremental_cost(&vm);
        ledger.host(&vm);
        let dec = ledger.decremental_cost(&vm);
        prop_assert!((inc - dec).abs() < 1e-9, "inc {} vs dec {}", inc, dec);
        let oracle = ledger.reference_decremental_cost(&vm);
        prop_assert!((dec - oracle).abs() < 1e-9, "dec {} vs oracle {}", dec, oracle);

        let realized = ledger.unhost(&vm);
        prop_assert_eq!(realized, dec, "unhost must realize its prediction");
        ledger.restore_costs(checkpoint);
        prop_assert_eq!(ledger.segments(), before.segments());
        prop_assert_eq!(ledger.cost().to_bits(), before.cost().to_bits());
        prop_assert!((ledger.cost() - full_cost(ledger.spec(), &hosted)).abs() < 1e-6);
    }

    /// The per-server energy decomposition reproduces `cost()` bit for
    /// bit across random host / unhost / checkpoint-restore sequences,
    /// and every term matches an independent rescan of the segments.
    #[test]
    fn energy_breakdown_reproduces_cost_bit_for_bit(
        spec in arb_spec(),
        vms in proptest::collection::vec((arb_interval(), 1u32..4, 1u32..4, 0u32..4), 0..16),
    ) {
        let mut ledger = ServerLedger::new(spec);
        let mut resident: Vec<Vm> = Vec::new();
        for (j, (iv, cpu, mem, action)) in vms.into_iter().enumerate() {
            let vm = Vm::new(j as u32, Resources::new(f64::from(cpu), f64::from(mem)), iv);
            match action {
                // Mostly host; sometimes unhost a resident VM or run a
                // host/unhost probe bracketed by checkpoint-restore.
                0 | 1 => {
                    if ledger.fits(&vm) {
                        ledger.host(&vm);
                        resident.push(vm);
                    }
                }
                2 => {
                    if let Some(victim) = resident.pop() {
                        ledger.unhost(&victim);
                    }
                }
                _ => {
                    if ledger.fits(&vm) {
                        let checkpoint = ledger.checkpoint();
                        ledger.host(&vm);
                        ledger.unhost(&vm);
                        ledger.restore_costs(checkpoint);
                    }
                }
            }

            let b = ledger.energy_breakdown();
            // The headline identity, exact to the last bit.
            prop_assert_eq!(
                (b.run + b.idle + b.transition).to_bits(),
                ledger.cost().to_bits()
            );
            prop_assert_eq!(b.total().to_bits(), ledger.cost().to_bits());

            // Each term against an independent rescan of the segments.
            let segments = ledger.segments();
            let kept_on: u64 = segments
                .gaps()
                .filter(|g| !ledger.spec().switches_off_for_gap(g.len()))
                .map(|g| g.len())
                .sum();
            let off_gaps = segments
                .gaps()
                .filter(|g| ledger.spec().switches_off_for_gap(g.len()))
                .count() as u64;
            let expected_transitions =
                if segments.is_empty() { 0 } else { 1 + off_gaps };
            prop_assert_eq!(ledger.transition_count(), expected_transitions);
            prop_assert_eq!(b.run.to_bits(), ledger.run_cost().to_bits());
            prop_assert_eq!(
                b.idle.to_bits(),
                ledger.spec().idle_cost(segments.busy_time() + kept_on).to_bits()
            );
            prop_assert_eq!(
                b.transition.to_bits(),
                (ledger.spec().transition_cost() * expected_transitions as f64).to_bits()
            );
        }
    }
}

/// A demand with fractional components, so usage sums carry rounding.
fn fractional(cpu: u32, mem: u32) -> Resources {
    Resources::new(f64::from(cpu) * 0.35, f64::from(mem) * 0.85)
}

/// A profile grown by `entries`: each adds its interval and fractional
/// demand, except that an action of 0 removes the latest piece still
/// in place.
fn history(entries: Vec<(Interval, u32, u32, u32)>) -> UsageProfile {
    let mut profile = UsageProfile::new();
    let mut added: Vec<(Interval, Resources)> = Vec::new();
    for (iv, cpu, mem, action) in entries {
        if action == 0 {
            if let Some((iv, demand)) = added.pop() {
                profile.remove(iv, demand);
            }
        } else {
            profile.add(iv, fractional(cpu, mem));
            added.push((iv, fractional(cpu, mem)));
        }
    }
    profile
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For time-disjoint intervals, "does b fit once a leaves" is exactly
    /// "does b fit": the freed interval never covers a piece of b's. The
    /// local search reads swap feasibility of such pairs from its cached
    /// `fits` verdicts on this identity.
    #[test]
    fn fits_replacing_is_fits_for_disjoint_intervals(
        entries in proptest::collection::vec((arb_interval(), 1u32..8, 1u32..8, 0u32..4), 0..12),
        leaving in (arb_interval(), 1u32..8, 1u32..8),
        incoming in (0u32..30, 1u32..30, 1u32..8, 1u32..8, 0u32..2),
        cap in (4u32..24, 4u32..24),
    ) {
        let capacity = Resources::new(f64::from(cap.0), f64::from(cap.1));
        let mut profile = history(entries);
        let (ia, a_cpu, a_mem) = leaving;
        let da = fractional(a_cpu, a_mem);
        profile.add(ia, da);
        let (gap, len, b_cpu, b_mem, before) = incoming;
        let ib = if before == 1 && ia.start() > gap + len {
            Interval::with_len(ia.start() - gap - len, len)
        } else {
            Interval::with_len(ia.end() + 1 + gap, len)
        };
        prop_assert!(!ia.overlaps(ib));
        let db = fractional(b_cpu, b_mem);
        prop_assert_eq!(
            profile.fits_replacing(ib, db, ia, da, capacity),
            profile.fits(ib, db, capacity)
        );
    }

    /// `replacement_delta` returns, bit for bit, what the swap probe it
    /// replaces returned (checkpoint, unhost the leaving VM, score the
    /// incoming one, host the leaving VM back, restore), and leaves the
    /// whole ledger as it found it.
    #[test]
    fn replacement_delta_matches_the_probe_and_leaves_the_ledger_unchanged(
        spec in arb_spec(),
        history in proptest::collection::vec((arb_interval(), 1u32..4, 1u32..4, 0u32..4), 1..16),
        pick in 0usize..16,
        incoming in (arb_interval(), 1u32..4, 1u32..4),
    ) {
        let mut ledger = ServerLedger::new(spec);
        let mut resident: Vec<Vm> = Vec::new();
        for (j, (iv, cpu, mem, action)) in history.into_iter().enumerate() {
            let vm = Vm::new(j as u32, fractional(cpu, mem), iv);
            if action == 0 && !resident.is_empty() {
                let victim = resident.remove(j % resident.len());
                ledger.unhost(&victim);
            } else if ledger.fits(&vm) {
                ledger.host(&vm);
                resident.push(vm);
            }
        }
        if resident.is_empty() {
            return Ok(());
        }
        let leaving = resident[pick % resident.len()];
        let (iv, cpu, mem) = incoming;
        let incoming = Vm::new(99, fractional(cpu, mem), iv);

        let mut probe = ledger.clone();
        let checkpoint = probe.checkpoint();
        let dec = probe.unhost(&leaving);
        let inc = probe.incremental_cost(&incoming);
        probe.host(&leaving);
        probe.restore_costs(checkpoint);
        let expected = inc - dec;

        let before = ledger.clone();
        let got = ledger.replacement_delta(&leaving, &incoming);
        prop_assert_eq!(got.to_bits(), expected.to_bits(), "{} vs probe {}", got, expected);
        prop_assert_eq!(ledger.segments(), before.segments());
        prop_assert_eq!(ledger.usage(), before.usage());
        prop_assert_eq!(ledger.cost().to_bits(), before.cost().to_bits());
        prop_assert_eq!(ledger.transition_count(), before.transition_count());
        let (b, a) = (before.energy_breakdown(), ledger.energy_breakdown());
        prop_assert_eq!(
            (a.run.to_bits(), a.idle.to_bits(), a.transition.to_bits()),
            (b.run.to_bits(), b.idle.to_bits(), b.transition.to_bits())
        );
        // `Debug` prints every field (coverage counts, hosted count, busy
        // time and gap caches included), each `f64` in its shortest
        // round-trip form, so equal text means equal bits.
        prop_assert_eq!(format!("{ledger:?}"), format!("{before:?}"));
    }
}

/// Table II's `(P_idle, P_peak)` pairs and CPU capacities.
const PAPER_SERVERS: [(f64, f64, f64); 5] = [
    (38.0, 80.0, 16.0),
    (68.0, 150.0, 30.0),
    (135.0, 300.0, 60.0),
    (202.0, 450.0, 90.0),
    (270.0, 600.0, 120.0),
];

/// A Table II server with `α = P_peak × t` for a transition time `t` of
/// `half_units / 2`, its powers and `α` multiplied by `scale`.
fn paper_spec(kind: usize, half_units: u32, scale: u32) -> ServerSpec {
    let (idle, peak, cpu) = PAPER_SERVERS[kind];
    let scale = f64::from(scale);
    ServerSpec::new(
        0,
        Resources::new(cpu, 2.0 * cpu),
        PowerModel::new(idle * scale, peak * scale),
        peak * f64::from(half_units) * 0.5 * scale,
    )
}

/// One VM of a bound property: a start and a length in units of `scale`
/// time units, each plus a small offset in single units, so that gaps
/// both far beyond and near the break-even appear at every scale.
type ScaledVm = (u32, u32, u32, u32);

fn arb_scaled_vm() -> impl Strategy<Value = ScaledVm> {
    (0u32..60, 0u32..12, 0u32..6, 1u32..8)
}

fn scaled_vm(id: u32, (start, len, offset, cpu): ScaledVm, scale: u32) -> Vm {
    Vm::new(
        id,
        fractional(cpu, 1),
        Interval::with_len(start * scale + offset, len * scale + offset + 1),
    )
}

/// A ledger grown from `history` (an action of 0 unhosts a resident VM,
/// anything else hosts the VM if it fits) and its residents.
fn grow(spec: ServerSpec, history: &[(ScaledVm, u32)], scale: u32) -> (ServerLedger, Vec<Vm>) {
    let mut ledger = ServerLedger::new(spec);
    let mut resident: Vec<Vm> = Vec::new();
    for (j, &(shape, action)) in history.iter().enumerate() {
        let vm = scaled_vm(j as u32, shape, scale);
        if action == 0 && !resident.is_empty() {
            let victim = resident.remove(j % resident.len());
            ledger.unhost(&victim);
        } else if ledger.fits(&vm) {
            ledger.host(&vm);
            resident.push(vm);
        }
    }
    (ledger, resident)
}

/// The local search's rounding margin `τ = 2^-30 · C` for one server,
/// with `C = Σ (run + P_idle · len + α)` over the VMs involved.
fn rounding_margin(spec: &ServerSpec, vms: &[Vm]) -> f64 {
    let scale: f64 = vms
        .iter()
        .map(|vm| spec.run_cost(vm) + spec.idle_cost(vm.interval().len()) + spec.transition_cost())
        .sum();
    scale * (-30f64).exp2()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Busy time already on a server never makes a later insertion
    /// dearer: hosting one more VM raises no other VM's
    /// `incremental_cost` by more than the rounding margin `τ`. The
    /// Eq. 16 gap price `min(P_idle · g, α)` is concave, which makes the
    /// segment overhead submodular; the local search's swap bound rests
    /// on this. Checked at the paper's magnitudes and with powers, `α`
    /// and durations scaled by 10^6.
    #[test]
    fn hosting_a_vm_never_makes_another_insertion_dearer(
        server in (0usize..5, 0u32..13),
        history in proptest::collection::vec((arb_scaled_vm(), 0u32..4), 0..16),
        added in arb_scaled_vm(),
        probe in arb_scaled_vm(),
    ) {
        for scale in [1, 1_000_000] {
            let spec = paper_spec(server.0, server.1, scale);
            let (mut ledger, mut involved) = grow(spec, &history, scale);
            let added = scaled_vm(98, added, scale);
            let probe = scaled_vm(99, probe, scale);
            if !ledger.fits(&added) {
                continue;
            }
            let before = ledger.incremental_cost(&probe);
            ledger.host(&added);
            let after = ledger.incremental_cost(&probe);
            involved.extend([added, probe]);
            let tau = rounding_margin(&spec, &involved);
            prop_assert!(
                after <= before + tau,
                "scale {}: {} after hosting vs {} before (τ {})", scale, after, before, tau
            );
        }
    }

    /// The exact swap side is never below its bound:
    /// `replacement_delta(leaving, incoming) ≥ incremental_cost(incoming)
    /// − decremental_cost(leaving) − τ`, since `incoming` lands on a
    /// subset of today's busy time once `leaving` is gone. Checked at
    /// the paper's magnitudes and scaled by 10^6.
    #[test]
    fn replacement_delta_is_at_least_the_separate_deltas(
        server in (0usize..5, 0u32..13),
        history in proptest::collection::vec((arb_scaled_vm(), 0u32..4), 1..16),
        pick in 0usize..16,
        incoming in arb_scaled_vm(),
    ) {
        for scale in [1, 1_000_000] {
            let spec = paper_spec(server.0, server.1, scale);
            let (mut ledger, mut involved) = grow(spec, &history, scale);
            if involved.is_empty() {
                continue;
            }
            let leaving = involved[pick % involved.len()];
            let incoming = scaled_vm(99, incoming, scale);
            let bound = ledger.incremental_cost(&incoming) - ledger.decremental_cost(&leaving);
            let exact = ledger.replacement_delta(&leaving, &incoming);
            involved.push(incoming);
            let tau = rounding_margin(&spec, &involved);
            prop_assert!(
                exact >= bound - tau,
                "scale {}: replacement {} below the bound {} (τ {})", scale, exact, bound, tau
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The run-cost floor holds as an `f64` comparison: wherever
    /// `insertion_floor` gives one, `incremental_piece_cost` is at least
    /// it, and it is the piece's run cost bit for bit. It gives one
    /// exactly when no busy segment starts after the piece. Half the
    /// probes start at or just after the last segment's start, as an
    /// online scan's insertions do; the rest start anywhere. Checked at
    /// the paper's magnitudes and scaled by 10^6.
    #[test]
    fn the_insertion_floor_is_never_above_the_incremental_cost(
        server in (0usize..5, 0u32..13),
        history in proptest::collection::vec((arb_scaled_vm(), 0u32..4), 0..16),
        probe in arb_scaled_vm(),
        ordered in proptest::bool::ANY,
    ) {
        for scale in [1, 1_000_000] {
            let spec = paper_spec(server.0, server.1, scale);
            let (ledger, _) = grow(spec, &history, scale);
            let last = ledger.segments().iter().last().map(|s| s.start());
            let mut probe = scaled_vm(99, probe, scale);
            if ordered {
                let start = last.unwrap_or(0) + probe.start() % (3 * scale);
                let interval = Interval::with_len(start, probe.interval().len() as u32);
                probe = Vm::new(99, probe.demand(), interval);
            }
            let floor = ledger.insertion_floor(probe.demand(), probe.interval());
            let later = ledger.segments().iter().any(|s| s.start() > probe.start());
            prop_assert_eq!(floor.is_some(), !later);
            if let Some(floor) = floor {
                prop_assert_eq!(floor.to_bits(), spec.run_cost(&probe).to_bits());
                let delta = ledger.incremental_piece_cost(probe.demand(), probe.interval());
                prop_assert!(delta >= floor, "scale {}: delta {} below the floor {}", scale, delta, floor);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fit row of the candidate index is exact: after any history of
    /// adds and removes, the `piece_at` window around a time holds
    /// `usage_at` at every unit of it, so a row read from the window
    /// rejects a start in it exactly where `fits` rejects at its first
    /// test, and a row that rejects implies `fits` rejects. Left in
    /// place while later adds raise the usage (a host), such a row still
    /// implies it: it can only under-reject.
    #[test]
    fn a_fit_row_rejects_only_where_fits_rejects(
        entries in proptest::collection::vec((arb_interval(), 1u32..8, 1u32..8, 0u32..4), 0..16),
        later in proptest::collection::vec((arb_interval(), 1u32..8, 1u32..8), 0..4),
        at in 0u32..240,
        probe in (0u32..40, 1u32..30, 1u32..8, 1u32..8),
        cap in (4u32..24, 4u32..24),
    ) {
        let capacity = Resources::new(f64::from(cap.0), f64::from(cap.1));
        let mut profile = history(entries);
        let (from, until, usage) = profile.piece_at(at);
        prop_assert!(from <= at && at < until, "[{}, {}) misses {}", from, until, at);
        for s in from..until.min(300) {
            prop_assert_eq!(profile.usage_at(s), usage, "s={} in [{}, {})", s, from, until);
        }
        // A start anywhere in the window.
        let (offset, len, cpu, mem) = probe;
        let start = from + offset % (until.min(300) - from);
        let (interval, demand) = (Interval::with_len(start, len), fractional(cpu, mem));
        let rejects = |row: Resources| !(row + demand).fits_within(capacity);
        if rejects(usage) {
            prop_assert!(!profile.fits(interval, demand, capacity));
        }
        for (iv, cpu, mem) in later {
            profile.add(iv, fractional(cpu, mem));
        }
        if rejects(usage) {
            prop_assert!(!profile.fits(interval, demand, capacity));
        }
    }
}
