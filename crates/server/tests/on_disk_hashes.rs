//! Hash values that are on disk — journal fingerprints, job ids (journal
//! file names) and store file names — pinned to the values the workspace
//! has always written, so a change to the shared hash helper cannot
//! silently orphan existing journals and stores.

use mpld_graph::LayoutGraph;
use mpld_store::StoreKey;

#[test]
fn on_disk_hash_values_are_pinned() {
    let g = LayoutGraph::new(vec![0, 0, 1, 2], vec![(0, 2), (1, 3), (2, 3)], vec![(0, 1)])
        .expect("valid graph");
    assert_eq!(mpld_matching::graph_fingerprint(&g), 0x762b_8daf_a10b_1304);

    let job =
        mpld_server::derive_job_id("circuit", br#"{"circuit":"C432","seed":7}"#, 7, Some(500));
    assert_eq!(job, "j87a10bbec716ed2b");

    let key = StoreKey {
        model_digest: 0xdead_beef_cafe_f00d,
        k: 3,
        alpha: 0.1,
        dim: 8,
        library: "p6s1n7t1".into(),
    };
    assert_eq!(key.digest(), 0xaae8_bdad_20fb_b70c);
    assert_eq!(key.file_name(), "library-aae8bdad20fbb70c.jsonl");
    assert_eq!(mpld_store::fnv64(b"MPLDFW01"), 0xacd3_f239_aa2c_f38c);
}
