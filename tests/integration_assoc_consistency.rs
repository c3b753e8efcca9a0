//! Property tests of association-mining consistency: Apriori, Partition,
//! and the E-dag traversal agree with a brute-force reference on
//! arbitrary databases, both within one 64-transaction tidset word and
//! across two to four, and phase-II rules satisfy their definitions.

use fpdm::assoc::{
    apriori, generate_rules, is_subset, partition_mine, FrequentItemsets, ItemsetMiningProblem,
    TransactionDb,
};
use fpdm::core::sequential_edt;
use proptest::prelude::*;

fn brute(db: &TransactionDb, min_support: usize) -> FrequentItemsets {
    let items = db.items().to_vec();
    let mut out = FrequentItemsets::new();
    for mask in 1u32..(1u32 << items.len()) {
        let set: Vec<u32> = (0..items.len())
            .filter(|&b| mask & (1 << b) != 0)
            .map(|b| items[b])
            .collect();
        let s = db.support(&set);
        if s >= min_support {
            out.insert(set, s);
        }
    }
    out
}

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..9, 1..6), 1..30).prop_map(TransactionDb::new)
}

/// 60–200 transactions: tidsets of one, two, three or four words.
fn arb_multiword_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..9, 1..6), 60..200)
        .prop_map(TransactionDb::new)
}

/// Every phase-I miner against the brute-force reference.
fn check_miners(db: &TransactionDb, min_support: usize) -> Result<(), TestCaseError> {
    let reference = brute(db, min_support);
    prop_assert_eq!(&apriori(db, min_support), &reference);
    prop_assert_eq!(&partition_mine(db, min_support, 3), &reference);
    let problem = ItemsetMiningProblem::new(db.clone(), min_support);
    prop_assert_eq!(&problem.report(&sequential_edt(&problem)), &reference);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_miners_agree_with_brute_force(
        db in arb_db(),
        min_support in 1usize..8,
    ) {
        prop_assume!(db.items().len() <= 12);
        check_miners(&db, min_support)?;
    }

    #[test]
    fn multiword_miners_agree_with_brute_force(
        db in arb_multiword_db(),
        min_support in 1usize..60,
    ) {
        check_miners(&db, min_support)?;
    }

    #[test]
    fn rules_satisfy_their_definitions(
        db in arb_db(),
        min_support in 1usize..5,
    ) {
        prop_assume!(db.items().len() <= 10);
        let frequent = apriori(&db, min_support);
        let min_conf = 0.6;
        for r in generate_rules(&frequent, min_conf) {
            // Disjoint antecedent/consequent.
            prop_assert!(r.antecedent.iter().all(|i| !r.consequent.contains(i)));
            // Reported statistics are exact.
            let mut union: Vec<u32> = r
                .antecedent
                .iter()
                .chain(r.consequent.iter())
                .copied()
                .collect();
            union.sort_unstable();
            prop_assert_eq!(db.support(&union), r.support);
            let conf = r.support as f64 / db.support(&r.antecedent) as f64;
            prop_assert!((conf - r.confidence).abs() < 1e-9);
            prop_assert!(r.confidence >= min_conf);
            prop_assert!(r.support >= min_support);
        }
    }

    #[test]
    fn anti_monotone_support(db in arb_db()) {
        // Property 1 of §2.2.3 on sampled subset pairs.
        let items = db.items();
        prop_assume!(items.len() >= 2);
        let a = vec![items[0]];
        let mut b = a.clone();
        b.push(items[items.len() - 1]);
        b.sort_unstable();
        b.dedup();
        if is_subset(&a, &b) {
            prop_assert!(db.support(&a) >= db.support(&b));
        }
    }
}
