//! Property tests for the plan catalog and the matrix fingerprint.
//!
//! Invariants under arbitrary insert / lease / drop / remove
//! interleavings:
//!
//! * resident bytes never exceed the configured budget;
//! * a leased (in-flight) plan is never evicted — over-budget inserts
//!   against a fully pinned catalog fail with `BudgetPinned` instead;
//! * fingerprint equality is exactly byte-stream equality (also for a
//!   matrix's cached fingerprint along values-only patches), and any
//!   payload corruption changes the fingerprint.

use proptest::prelude::*;
use spasm::{Pipeline, PipelineOptions, Prepared};
use spasm_format::{MatrixFingerprint, SpasmMatrix, CHECKSUM_BYTES, HEADER_BYTES};
use spasm_hw::HwConfig;
use spasm_patterns::TemplateSet;
use spasm_serve::{CatalogConfig, CatalogError, PlanCatalog, PlanLease};
use spasm_sparse::Coo;

fn pinned_pipeline() -> Pipeline {
    Pipeline::with_options(
        PipelineOptions::default()
            .fixed_portfolio(TemplateSet::table_v_set(0))
            .fixed_schedule(256, HwConfig::spasm_4_1()),
    )
}

fn scatter(n: u32, per_row: u32, salt: u32) -> Coo {
    let mut t = Vec::new();
    for i in 0..n {
        for k in 0..per_row {
            let j = (i * 37 + k * 13 + salt) % n;
            t.push((i, j, ((i + k + salt) % 9 + 1) as f32 * 0.5));
        }
    }
    Coo::from_triplets(n, n, t).expect("valid triplets")
}

/// Four distinct prepared plans to shuffle through the catalog.
fn corpus() -> Vec<Prepared> {
    let pipeline = pinned_pipeline();
    [(64, 3, 0), (72, 3, 1), (80, 4, 2), (96, 4, 3)]
        .into_iter()
        .map(|(n, per_row, salt)| {
            pipeline
                .prepare(&scatter(n, per_row, salt))
                .expect("prepare corpus plan")
        })
        .collect()
}

fn arb_matrix() -> impl Strategy<Value = Coo> {
    (16u32..64, 16u32..64).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, (1i32..32).prop_map(|q| q as f32 * 0.25));
        proptest::collection::vec(entry, 1..96)
            .prop_map(move |t| Coo::from_triplets(rows, cols, t).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary interleavings of insert / lease / drop-lease / remove
    /// never overrun the byte budget and never evict a leased plan.
    #[test]
    fn catalog_respects_budget_and_pins(
        ops in proptest::collection::vec((0u8..4, 0usize..4), 1..24),
    ) {
        let plans = corpus();
        let fps: Vec<MatrixFingerprint> =
            plans.iter().map(|p| p.encoded.fingerprint()).collect();
        let sizes: Vec<usize> = plans.iter().map(spasm_serve::prepared_bytes).collect();
        // Roughly two plans fit: inserts beyond that must evict (or fail
        // loudly when everything resident is pinned).
        let budget = sizes.iter().copied().max().unwrap() * 2;
        let catalog = PlanCatalog::new(CatalogConfig { byte_budget: budget });
        let mut held: Vec<PlanLease> = Vec::new();

        for &(op, i) in &ops {
            match op {
                0 => match catalog.insert_prepared(plans[i].clone()) {
                    Ok(fp) => {
                        prop_assert_eq!(fp, fps[i]);
                        prop_assert!(catalog.contains(&fp));
                    }
                    Err(CatalogError::BudgetPinned { pinned, budget: b, .. }) => {
                        prop_assert!(!held.is_empty(), "BudgetPinned without a live lease");
                        prop_assert!(pinned <= b);
                    }
                    Err(e) => prop_assert!(false, "unexpected insert error: {e}"),
                },
                1 => {
                    if let Some(lease) = catalog.get(&fps[i]) {
                        prop_assert_eq!(lease.fingerprint(), fps[i]);
                        held.push(lease);
                    }
                }
                2 => {
                    if !held.is_empty() {
                        held.remove(0);
                    }
                }
                _ => {
                    // Removal always de-indexes; a leased entry's plan and
                    // bytes linger (doomed) until its last lease drops.
                    let resident = catalog.contains(&fps[i]);
                    let removed = catalog.remove(&fps[i]);
                    prop_assert_eq!(removed, resident, "remove reports de-indexing");
                    prop_assert!(!catalog.contains(&fps[i]), "removed fp still indexed");
                }
            }
            prop_assert!(
                catalog.resident_bytes() <= budget,
                "{} resident > {budget} budget",
                catalog.resident_bytes()
            );
            for lease in &held {
                // A leased plan is never freed mid-flight, removed or not:
                // the plan behind the lease must still be lockable.
                drop(lease.prepared());
            }
        }

        // Once every lease drops, the next catalog operation reaps any
        // doomed entries, and the byte ledger matches the entries
        // actually resident.
        drop(held);
        let resident_fps = catalog.fingerprints();
        let tally: usize = resident_fps
            .iter()
            .filter_map(|fp| catalog.get(fp).map(|l| l.bytes()))
            .sum();
        prop_assert_eq!(tally, catalog.resident_bytes());
    }

    /// Fingerprint equality is exactly canonical-byte-stream equality,
    /// the encoding is deterministic, and the wire-side fingerprint
    /// agrees with the matrix-side one — also along a random sequence of
    /// values-only patches, where the matrix-side fingerprint is carried
    /// forward from its cache, and for a clone taken mid-sequence, whose
    /// cache must evolve independently of the original's.
    #[test]
    fn fingerprint_equality_iff_byte_equality(
        m1 in arb_matrix(),
        m2 in arb_matrix(),
        patches in proptest::collection::vec(
            proptest::collection::vec((0u32.., 1i32..128), 1..4),
            1..12,
        ),
        clone_at in 0usize..12,
    ) {
        let pipeline = pinned_pipeline();
        let p1 = pipeline.prepare(&m1).unwrap();
        let p2 = pipeline.prepare(&m2).unwrap();
        let (b1, b2) = (p1.encoded.to_bytes(), p2.encoded.to_bytes());
        prop_assert_eq!(
            p1.encoded.fingerprint() == p2.encoded.fingerprint(),
            b1 == b2,
            "fingerprint equality must track byte equality"
        );
        let p1_again = pipeline.prepare(&m1).unwrap();
        prop_assert_eq!(p1_again.encoded.fingerprint(), p1.encoded.fingerprint());
        prop_assert_eq!(p1_again.encoded.to_bytes(), b1.clone());
        prop_assert_eq!(
            MatrixFingerprint::of_wire_bytes(&b1).unwrap(),
            p1.encoded.fingerprint()
        );

        let scratch = |m: &SpasmMatrix| MatrixFingerprint::of_wire_bytes(&m.to_bytes()).unwrap();
        let cells: Vec<(u32, u32)> = m1.iter().map(|(r, c, _)| (r, c)).collect();
        let mut live = p1.encoded.clone();
        let mut twin = None;
        for (k, batch) in patches.iter().enumerate() {
            if k == clone_at {
                twin = Some(live.clone());
            }
            let entries: Vec<(u32, u32, f32)> = batch
                .iter()
                .map(|&(sel, q)| {
                    let (r, c) = cells[sel as usize % cells.len()];
                    let v = if q == 64 { 17.0 } else { (q - 64) as f32 * 0.25 };
                    (r, c, v)
                })
                .collect();
            live.patch_values(&entries).unwrap();
            let fp = live.fingerprint();
            prop_assert_eq!(fp, scratch(&live), "patch {}", k);
            prop_assert_eq!(fp == p1.encoded.fingerprint(), live.to_bytes() == b1);
        }
        prop_assert_eq!(p1.encoded.fingerprint(), scratch(&p1.encoded));
        if let Some(mut twin) = twin {
            prop_assert_eq!(twin.fingerprint(), scratch(&twin));
            prop_assert_eq!(
                twin.fingerprint() == live.fingerprint(),
                twin.to_bytes() == live.to_bytes()
            );
            let (r, c) = cells[0];
            twin.patch_values(&[(r, c, 99.0)]).unwrap();
            prop_assert_eq!(twin.fingerprint(), scratch(&twin));
            prop_assert_eq!(live.fingerprint(), scratch(&live));
        }
    }

    /// Flipping any payload byte (header fields, stream body — anything
    /// covered by the fingerprint CRC) yields a different fingerprint.
    #[test]
    fn payload_corruption_changes_the_fingerprint(
        m in arb_matrix(),
        pos_sel in 0u32..,
        xor in 1u8..,
    ) {
        let p = pinned_pipeline().prepare(&m).unwrap();
        let bytes = p.encoded.to_bytes().to_vec();
        let fp = MatrixFingerprint::of_wire_bytes(&bytes).unwrap();
        // Corrupt strictly inside the CRC-covered payload, past the
        // header (magic/version flips are rejected as foreign streams,
        // which is its own kind of "different").
        let lo = HEADER_BYTES;
        let hi = bytes.len() - CHECKSUM_BYTES;
        prop_assert!(hi > lo, "encoded stream has no payload");
        let pos = lo + (pos_sel as usize) % (hi - lo);
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= xor;
        let fp2 = MatrixFingerprint::of_wire_bytes(&corrupt).unwrap();
        prop_assert!(fp2 != fp, "single-byte corruption at {pos} went unnoticed");
    }
}
