//! Pins the answers of the two exact tail engines on the suite's units.
//!
//! Each check folds, unit by unit, everything an engine returns —
//! coloring, cost, certainty and (for EC) the certificate flag — into one
//! FNV digest recorded from a reference build. A budget-cut incumbent
//! depends on the exact order the search visits its tree, so digests that
//! stay equal under small node budgets show that the same tree was
//! walked, not only that the same optimum was found:
//!
//! - `EcDecomposer::decompose_certified` at the default node budget and
//!   under [`EC_BUDGETS`];
//! - `BipDecomposer::decompose` (a cold solve) and
//!   `BipDecomposer::decompose_below_within` from the EC cost (the
//!   verification an uncertified EC result gets), unbounded and under
//!   [`BIP_NODE_LIMITS`].
//!
//! The tier-1 test covers a subset of the suite that still reaches EC's
//! single-pair relaxation enumeration, its relax-and-repair fallback and
//! the BIP verification of an uncertified result; the `#[ignore]`d test
//! covers every suite unit for EC and every unit of at most
//! [`BIP_MAX_NODES`] nodes for the BIP (run it in release mode).

use mpld::prepare;
use mpld_ec::EcDecomposer;
use mpld_graph::{
    Budget, Certainty, DecomposeParams, Decomposer, Decomposition, Fnv64, LayoutGraph,
};
use mpld_ilp::encode::BipDecomposer;
use mpld_layout::{circuit_by_name, iscas_suite};

/// Search-node budgets the EC pins run `EcDecomposer::with_budget` at.
const EC_BUDGETS: [u64; 3] = [2, 12, 100];
/// Node limits the BIP pins run under (`Budget::and_node_limit`).
const BIP_NODE_LIMITS: [u64; 3] = [1, 20, 300];
/// Largest unit (in nodes) the BIP pins solve.
const BIP_MAX_NODES: usize = 12;

/// One digest per engine variant, in a fixed order.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    ec_default: u64,
    ec_budgets: [u64; 3],
    bip_cold: u64,
    bip_cold_limited: [u64; 3],
    bip_below: u64,
    bip_below_limited: [u64; 3],
}

/// What the pinned runs reached, so a subset can show it exercises every
/// path it claims to.
#[derive(Debug, Default)]
struct Reach {
    ec_units: usize,
    /// Certified with a cost of one conflict or more: the certificate came
    /// from the completed single-pair relaxation enumeration.
    enumeration_certified: usize,
    /// Uncertified: the relax-and-repair fallback ran.
    uncertified: usize,
    /// Uncertified units the BIP verification ran on.
    bip_verified: usize,
    bip_units: usize,
}

fn certainty_code(c: Certainty) -> u64 {
    match c {
        Certainty::Certified => 1,
        Certainty::Heuristic => 2,
        Certainty::BudgetExhausted => 3,
        Certainty::Degraded => 4,
    }
}

fn fold(h: &mut Fnv64, d: &Decomposition) {
    h.word(d.coloring.len() as u64)
        .bytes(&d.coloring)
        .word(u64::from(d.cost.conflicts))
        .word(u64::from(d.cost.stitches))
        .word(certainty_code(d.certainty));
}

fn fold_below(h: &mut Fnv64, (d, exhausted): &(Option<Decomposition>, bool)) {
    h.word(u64::from(*exhausted));
    match d {
        Some(d) => {
            h.word(1);
            fold(h, d);
        }
        None => {
            h.word(0);
        }
    }
}

/// Runs every pinned variant over `units`; the BIP variants only on units
/// of at most `bip_max_nodes` nodes.
fn pin(units: &[LayoutGraph], bip_max_nodes: usize) -> (Pins, Reach) {
    let params = DecomposeParams::tpl();
    let unlimited = Budget::unlimited();
    let bip = BipDecomposer::new();
    let mut reach = Reach::default();

    let mut ec_default = Fnv64::new();
    let mut ec_budgets = [Fnv64::new(), Fnv64::new(), Fnv64::new()];
    let mut bip_cold = Fnv64::new();
    let mut bip_cold_limited = [Fnv64::new(), Fnv64::new(), Fnv64::new()];
    let mut bip_below = Fnv64::new();
    let mut bip_below_limited = [Fnv64::new(), Fnv64::new(), Fnv64::new()];

    for (i, g) in units.iter().enumerate() {
        let (d, certified) = EcDecomposer::new()
            .decompose_certified(g, &params, &unlimited)
            .expect("EC decomposes every suite unit");
        ec_default.word(i as u64).word(u64::from(certified));
        fold(&mut ec_default, &d);
        reach.ec_units += 1;
        if !certified {
            reach.uncertified += 1;
        } else if d.cost.value(params.alpha) >= 1.0 - 1e-9 {
            reach.enumeration_certified += 1;
        }
        for (h, &n) in ec_budgets.iter_mut().zip(&EC_BUDGETS) {
            let (b, c) = EcDecomposer::with_budget(n)
                .decompose_certified(g, &params, &unlimited)
                .expect("EC decomposes every suite unit");
            h.word(i as u64).word(u64::from(c));
            fold(h, &b);
        }

        if g.num_nodes() > bip_max_nodes {
            continue;
        }
        reach.bip_units += 1;
        if !certified {
            reach.bip_verified += 1;
        }
        let cold = bip
            .decompose(g, &params, &unlimited)
            .expect("the BIP decomposes every suite unit at k = 3");
        bip_cold.word(i as u64);
        fold(&mut bip_cold, &cold);
        let below = bip.decompose_below_within(g, &params, &d.cost, &unlimited);
        bip_below.word(i as u64);
        fold_below(&mut bip_below, &below);
        for (j, &n) in BIP_NODE_LIMITS.iter().enumerate() {
            let limited = unlimited.clone().and_node_limit(n);
            let cold = bip
                .decompose(g, &params, &limited)
                .expect("a budget-cut BIP still returns a coloring");
            bip_cold_limited[j].word(i as u64);
            fold(&mut bip_cold_limited[j], &cold);
            let below = bip.decompose_below_within(g, &params, &d.cost, &limited);
            bip_below_limited[j].word(i as u64);
            fold_below(&mut bip_below_limited[j], &below);
        }
    }
    let finish = |hs: [Fnv64; 3]| hs.map(|h| h.finish());
    (
        Pins {
            ec_default: ec_default.finish(),
            ec_budgets: finish(ec_budgets),
            bip_cold: bip_cold.finish(),
            bip_cold_limited: finish(bip_cold_limited),
            bip_below: bip_below.finish(),
            bip_below_limited: finish(bip_below_limited),
        },
        reach,
    )
}

/// The decomposition units of the named suite circuits, in circuit then
/// unit order.
fn units_of(names: &[&str]) -> Vec<LayoutGraph> {
    let params = DecomposeParams::tpl();
    names
        .iter()
        .flat_map(|name| {
            let layout = circuit_by_name(name).expect("suite circuit").generate();
            prepare(&layout, &params)
                .units
                .into_iter()
                .map(|u| u.hetero)
        })
        .collect()
}

fn assert_reaches_every_path(reach: &Reach) {
    assert!(reach.enumeration_certified > 0, "{reach:?}");
    assert!(reach.uncertified > 0, "{reach:?}");
    assert!(reach.bip_verified > 0, "{reach:?}");
}

#[test]
fn tail_engines_reproduce_the_pinned_answers_on_a_suite_subset() {
    let units = units_of(&["C432", "C499", "C3540"]);
    let (pins, reach) = pin(&units, BIP_MAX_NODES);
    assert_reaches_every_path(&reach);
    assert_eq!(
        pins,
        Pins {
            ec_default: 0x0686_1aa2_4ee0_cf7c,
            ec_budgets: [
                0xe374_beba_9ef6_9c42,
                0xa193_e506_0494_85c5,
                0x6fa5_b922_e11b_112a
            ],
            bip_cold: 0x3eb6_badd_ec19_3629,
            bip_cold_limited: [
                0x1419_ffc4_aee7_5a56,
                0x902c_07e2_1d4f_df13,
                0x397c_6b85_ab39_6e6a
            ],
            bip_below: 0x037a_14db_4fa1_72d7,
            bip_below_limited: [
                0x9d8d_966e_23c2_3a21,
                0x1517_21da_eb3a_2fd9,
                0x67d3_2744_3ea9_d43a
            ],
        }
    );
}

#[test]
#[ignore = "the whole suite: run in release mode"]
fn tail_engines_reproduce_the_pinned_answers_on_the_whole_suite() {
    let names: Vec<&str> = iscas_suite().iter().map(|c| c.name).collect();
    let units = units_of(&names);
    assert_eq!(units.len(), 8631);
    let (pins, reach) = pin(&units, BIP_MAX_NODES);
    assert_reaches_every_path(&reach);
    assert_eq!(
        pins,
        Pins {
            ec_default: 0xc5db_f935_1334_d926,
            ec_budgets: [
                0x9555_b602_189c_e07d,
                0x2f16_39db_e5ee_8b1d,
                0xe0c3_5180_c98d_f050
            ],
            bip_cold: 0x2c52_05ad_7937_d708,
            bip_cold_limited: [
                0x14d1_1eaf_6d31_4a59,
                0x4b63_b1e9_d912_be3a,
                0x4d35_d892_5873_dd30
            ],
            bip_below: 0x36b0_7325_12fe_22e7,
            bip_below_limited: [
                0xb663_4059_19c4_a4fd,
                0xe754_dedc_b974_9533,
                0x9d15_2601_9569_f566
            ],
        }
    );
}
