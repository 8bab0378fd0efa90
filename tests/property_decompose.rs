//! Property tests (proptest) for the decomposed store, locking the
//! ε-lossless contract end to end on randomly generated relations:
//!
//! * the reconstruction is always a **superset** of the original instance
//!   (decomposition may add spurious tuples, never drop one),
//! * **exact equality** holds whenever the mined schema's J-measure is 0
//!   (Lee's theorem: J(S) = 0 iff the acyclic join dependency holds),
//! * the store's count propagation agrees with `acyclic_join_size` and with
//!   actually enumerating the streaming reconstruction,
//! * the query executor agrees with a flat scan of the reconstruction for
//!   random selection/projection queries.

use maimon::decompose::{flat_scan, Query};
use maimon::relation::{acyclic_join_size, AttrSet, Relation, Schema};
use maimon::{MaimonConfig, MaimonSession, MiningLimits};
use proptest::prelude::*;

/// Strategy: a random small relation (2–6 columns, 5–60 rows, tiny per-column
/// domains so duplicate groups and spurious join combinations are common).
fn relation_strategy() -> impl Strategy<Value = Relation> {
    (2usize..=6, 5usize..=60, 1u64..10_000).prop_map(|(cols, rows, seed)| {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let schema = Schema::with_arity(cols).unwrap();
        let columns: Vec<Vec<u32>> = (0..cols)
            .map(|c| {
                let domain = 1 + (c as u32 % 4);
                (0..rows).map(|_| (next() % (domain as u64 + 1)) as u32).collect()
            })
            .collect();
        Relation::from_code_columns(schema, columns).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn reconstruction_is_a_superset_and_exact_when_j_is_zero(
        rel in relation_strategy(),
        eps_millis in 0usize..=300,
    ) {
        let epsilon = eps_millis as f64 / 1000.0;
        let config = MaimonConfig::builder()
        .epsilon(epsilon)
        .limits(MiningLimits::small().to_builder().time_budget(None).build().unwrap())
        .max_schemas(Some(8))
        .build()
        .unwrap();
        let result = MaimonSession::new(&rel, config).unwrap().quality(config.epsilon).unwrap();
        let original = rel.distinct_count(rel.schema().all_attrs()).unwrap() as u128;
        for ranked in result.schemas.iter().take(4) {
            let schema = &ranked.discovered.schema;
            let store = schema.decompose(&rel).unwrap();
            let spec = schema.join_tree().unwrap().to_spec();

            // Counting consistency: store DP == relation DP == enumeration.
            let count = store.reconstruction_count();
            prop_assert_eq!(count, acyclic_join_size(&rel, &spec).unwrap());
            prop_assert_eq!(count, store.reconstruct().count() as u128);

            // Superset: |reconstruction| − |spurious| = |original|, i.e. the
            // reconstruction contains every original tuple.
            let spurious = store.spurious_rows(&rel).unwrap().count() as u128;
            prop_assert_eq!(
                count - spurious, original,
                "schema {:?} lost original tuples (ε = {})", schema.bags(), epsilon
            );

            // ε-lossless contract: J = 0 ⇒ the join dependency holds exactly.
            if let Some(j) = ranked.discovered.j {
                if j.abs() < 1e-9 {
                    prop_assert_eq!(
                        count, original,
                        "J = 0 but the reconstruction differs from the original"
                    );
                    prop_assert_eq!(spurious, 0u128);
                }
            }
        }
    }

    #[test]
    fn exact_mining_always_reconstructs_exactly(rel in relation_strategy()) {
        // At ε = 0 every discovered schema has J = 0, so every store must
        // reconstruct the original instance verbatim.
        let config = MaimonConfig::builder()
        .epsilon(0.0)
        .limits(MiningLimits::small().to_builder().time_budget(None).build().unwrap())
        .max_schemas(Some(8))
        .build()
        .unwrap();
        let result = MaimonSession::new(&rel, config).unwrap().quality(config.epsilon).unwrap();
        let distinct = rel.distinct();
        for ranked in result.schemas.iter().take(4) {
            let store = ranked.discovered.schema.decompose(&rel).unwrap();
            prop_assert_eq!(store.reconstruction_count(), distinct.n_rows() as u128);
            let recon = store.reconstruct_relation().unwrap();
            prop_assert!(
                recon.equal_as_sets(&distinct),
                "ε = 0 store failed to reconstruct the instance for {:?}",
                ranked.discovered.schema.bags()
            );
        }
    }

    #[test]
    fn query_executor_matches_flat_scan(
        rel in relation_strategy(),
        pick in (0usize..100, 0usize..100, 0usize..100),
    ) {
        let config = MaimonConfig::builder()
        .epsilon(0.1)
        .limits(MiningLimits::small().to_builder().time_budget(None).build().unwrap())
        .max_schemas(Some(4))
        .build()
        .unwrap();
        let result = MaimonSession::new(&rel, config).unwrap().quality(config.epsilon).unwrap();
        let n = rel.arity();
        let (p0, p1, p2) = pick;
        for ranked in result.schemas.iter().take(2) {
            let store = ranked.discovered.schema.decompose(&rel).unwrap();
            let recon = store.reconstruct_relation().unwrap();
            // A random projection plus a selection on an actual value.
            let projection: AttrSet = [p0 % n, p1 % n].into_iter().collect();
            let sel_attr = p2 % n;
            let sel_row = (p0 + p1) % rel.n_rows();
            let query = Query::project(projection)
                .select_eq(sel_attr, rel.value(sel_row, sel_attr).to_string());
            let via_store = store.execute(&query).unwrap();
            let via_scan = flat_scan(&recon, &query).unwrap();
            prop_assert!(
                via_store.equal_as_sets(&via_scan),
                "query {:?} differs on {:?}", query, ranked.discovered.schema.bags()
            );
        }
    }
}
