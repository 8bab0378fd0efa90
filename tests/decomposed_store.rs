//! Acceptance suite for the decomposed-store subsystem.
//!
//! On the Fig. 1 running example, Nursery and **all 20 catalog datasets**,
//! and for every schema the miner discovers there:
//!
//! * the store's reconstruction cardinality (count propagation over its own
//!   bag tables) equals `acyclic_join_size` on the raw relation,
//! * the store's cell counts reproduce `decomposed_cells` and therefore
//!   `storage_savings_pct` *exactly* (bit-for-bit, not approximately),
//! * `evaluate_schema_checked` — the quality path that insists on all of the
//!   above — succeeds,
//! * and the query executor answers a fixed suite of selection/projection
//!   queries identically to a flat scan of the materialized reconstruction.

use maimon::decompose::{flat_scan, Query};
use maimon::relation::{acyclic_join_size, AttrSet, Relation};
use maimon::{
    evaluate_schema, evaluate_schema_checked, AcyclicSchema, MaimonConfig, MaimonSession,
    MiningLimits,
};
use maimon_datasets::{
    metanome_catalog, nursery_with_rows, running_example, running_example_with_red_tuple,
};

/// Mines schemas deterministically (no wall-clock budget) and returns them.
fn mined_schemas(rel: &Relation, epsilon: f64) -> Vec<AcyclicSchema> {
    let config = MaimonConfig::builder()
        .epsilon(epsilon)
        .limits(MiningLimits::small().to_builder().time_budget(None).build().unwrap())
        .max_schemas(Some(32))
        .build()
        .unwrap();
    let result = MaimonSession::new(rel, config)
        .expect("valid relation")
        .quality(config.epsilon)
        .expect("mining runs");
    result.schemas.iter().map(|s| s.discovered.schema.clone()).collect()
}

/// The acceptance invariants of one (relation, schema) pair.
fn check_store_invariants(rel: &Relation, schema: &AcyclicSchema, label: &str) {
    let quality = evaluate_schema(rel, schema).expect("quality evaluates");
    let store = schema.decompose(rel).expect("store builds");
    let spec = schema.join_tree().expect("schema is acyclic").to_spec();
    assert_eq!(
        store.reconstruction_count(),
        acyclic_join_size(rel, &spec).unwrap(),
        "{label}: store reconstruction cardinality != acyclic_join_size for {:?}",
        schema.bags()
    );
    assert_eq!(
        store.total_cells(),
        quality.decomposed_cells,
        "{label}: store cell count != quality decomposed_cells"
    );
    assert_eq!(
        store.original_cells(),
        quality.original_cells,
        "{label}: store original cells != quality original_cells"
    );
    // Exact float equality: same integers through the same formula.
    assert_eq!(
        store.storage_savings_pct(),
        quality.storage_savings_pct,
        "{label}: storage savings must be reproduced exactly"
    );
    evaluate_schema_checked(rel, schema).expect("checked evaluation agrees");
}

/// A fixed suite of selection/projection queries derived from the relation.
fn query_suite(rel: &Relation) -> Vec<Query> {
    let n = rel.arity();
    let last_row = rel.n_rows().saturating_sub(1);
    vec![
        Query::project(AttrSet::singleton(0)),
        Query::project(AttrSet::singleton(n - 1)),
        Query::project([0, n / 2, n - 1].into_iter().collect()),
        Query::project(AttrSet::full(n)),
        Query::project(AttrSet::singleton(n - 1)).select_eq(0, rel.value(0, 0).to_string()),
        Query::project([0usize, 1].into_iter().collect())
            .select_eq(n - 1, rel.value(last_row, n - 1).to_string()),
        Query::project(AttrSet::singleton(0))
            .select_eq(0, rel.value(0, 0).to_string())
            .select_eq(n / 2, rel.value(0, n / 2).to_string()),
        Query::project(AttrSet::full(n)).select_eq(1.min(n - 1), "no-such-value".to_string()),
    ]
}

/// Runs the query suite over the store and over a flat scan of the
/// materialized reconstruction; the answers must be set-equal.
fn check_queries(rel: &Relation, schema: &AcyclicSchema, label: &str) {
    let store = schema.decompose(rel).expect("store builds");
    let reconstruction = store.reconstruct_relation().expect("reconstruction materializes");
    assert_eq!(
        reconstruction.n_rows() as u128,
        store.reconstruction_count(),
        "{label}: materialized reconstruction size disagrees with the count"
    );
    for (i, query) in query_suite(rel).iter().enumerate() {
        let via_store = store.execute(query).expect("query executes");
        let via_scan = flat_scan(&reconstruction, query).expect("flat scan executes");
        assert!(
            via_store.equal_as_sets(&via_scan),
            "{label}: query {} differs: store {:?} vs flat scan {:?}",
            i,
            via_store,
            via_scan
        );
    }
}

/// Picks the best storage saver whose reconstruction stays materializable.
fn pick_query_schema(rel: &Relation, schemas: &[AcyclicSchema]) -> AcyclicSchema {
    schemas
        .iter()
        .filter_map(|s| {
            let q = evaluate_schema(rel, s).ok()?;
            (q.join_size <= 50_000).then(|| (s.clone(), q.storage_savings_pct))
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map(|(s, _)| s)
        .unwrap_or_else(|| AcyclicSchema::trivial(rel.schema().all_attrs()).unwrap())
}

#[test]
fn fig1_running_example_store_and_queries() {
    let paper_schema = |rel: &Relation| {
        let attrs = |names: &[&str]| rel.schema().attrs(names.iter().copied()).unwrap();
        AcyclicSchema::new(vec![
            attrs(&["A", "B", "D"]),
            attrs(&["A", "C", "D"]),
            attrs(&["B", "D", "E"]),
            attrs(&["A", "F"]),
        ])
        .unwrap()
    };
    for (rel, label) in
        [(running_example(), "Fig. 1 exact"), (running_example_with_red_tuple(), "Fig. 1 red")]
    {
        let schema = paper_schema(&rel);
        check_store_invariants(&rel, &schema, label);
        check_queries(&rel, &schema, label);
        for (i, mined) in mined_schemas(&rel, 0.2).iter().enumerate() {
            check_store_invariants(&rel, mined, &format!("{label} mined #{i}"));
        }
    }
}

#[test]
fn nursery_store_and_queries() {
    let rel = nursery_with_rows(2000);
    let schemas = mined_schemas(&rel, 0.1);
    assert!(!schemas.is_empty(), "nursery must yield schemas at ε = 0.1");
    for (i, schema) in schemas.iter().take(12).enumerate() {
        check_store_invariants(&rel, schema, &format!("Nursery #{i}"));
    }
    let query_schema = pick_query_schema(&rel, &schemas);
    check_queries(&rel, &query_schema, "Nursery");
}

#[test]
fn all_catalog_datasets_store_and_queries() {
    let catalog = metanome_catalog();
    assert_eq!(catalog.len(), 20, "Table 2 lists 20 datasets");
    for spec in &catalog {
        // Scale to roughly 150 rows and at most 7 columns so mining plus 20
        // dataset stores stay CI-sized (same sizing as parallel_equivalence).
        let scale = (150.0 / spec.rows as f64).min(1.0);
        let rel = spec.generate(scale);
        let rel = if rel.arity() > 7 { rel.column_prefix(7).unwrap() } else { rel };
        let schemas = mined_schemas(&rel, 0.1);
        for (i, schema) in schemas.iter().take(8).enumerate() {
            check_store_invariants(&rel, schema, &format!("{} #{i}", spec.name));
        }
        let query_schema = pick_query_schema(&rel, &schemas);
        check_queries(&rel, &query_schema, spec.name);
        // The trivial schema is the identity store: reconstruction == input.
        let trivial = AcyclicSchema::trivial(rel.schema().all_attrs()).unwrap();
        check_store_invariants(&rel, &trivial, spec.name);
    }
}

#[test]
fn full_reducer_is_a_noop_on_exact_projections_and_prunes_filtered_stores() {
    // Projections of a real instance never dangle; pushing a selection into
    // the store makes the reducer do real work, and the reduced store must
    // reconstruct exactly the selected fraction of the join.
    let rel = nursery_with_rows(1000);
    let schemas = mined_schemas(&rel, 0.1);
    let schema = pick_query_schema(&rel, &schemas);
    let store = schema.decompose(&rel).unwrap();
    let (reduced, stats) = store.full_reduce();
    assert_eq!(stats.removed(), 0, "exact projections never dangle");
    assert_eq!(reduced.reconstruction_count(), store.reconstruction_count());
}
