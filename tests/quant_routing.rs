//! Suite-level check of the routing batch planner: on a real circuit the
//! units span size bands, so `route` plans several batches whose peak
//! scratch is strictly smaller than one union batch of every unit.

use mpld::{prepare, train_framework, AdaptiveFramework, OfflineConfig, TrainingData};
use mpld_graph::DecomposeParams;
use mpld_layout::iscas_suite;

fn trained_framework(params: &DecomposeParams) -> (AdaptiveFramework, Vec<mpld::PreparedLayout>) {
    let suite = iscas_suite();
    let preps: Vec<_> = suite[..3]
        .iter()
        .map(|c| prepare(&c.generate(), params))
        .collect();
    let mut data = TrainingData::default();
    for p in &preps {
        data.add_layout_capped(p, params, 30);
    }
    let mut cfg = OfflineConfig::default();
    cfg.rgcn.epochs = 2;
    cfg.colorgnn.epochs = 1;
    (train_framework(&data, params, &cfg), preps)
}

#[test]
fn planner_reduces_padding_waste_on_real_layouts() {
    let params = DecomposeParams::tpl();
    let (fw, preps) = trained_framework(&params);
    let r = fw.decompose_prepared(&preps[0]);
    assert!(r.inference.batches_planned > 1, "expected multiple batches");
    assert!(r.inference.padding_waste_after_bytes < r.inference.padding_waste_before_bytes);
}
