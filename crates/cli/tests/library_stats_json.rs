//! Byte-exact pin of `mpld library stats --json`: one object per store
//! file in name order, `header` null when the header line is unreadable,
//! `alpha` in its `{}` form, and the path and library token escaped.

use mpld_store::{StoreCaps, StoreKey};
use std::process::Command;

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[test]
fn library_stats_json_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("mpld-cli-stats-\"q\\-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = StoreKey {
        model_digest: 0xdead_beef_cafe_f00d,
        k: 3,
        alpha: 1.0,
        dim: 8,
        library: "p6\"s1\\n7".into(),
    };
    drop(mpld_store::open(&dir, &key, StoreCaps::default()).expect("store opens"));
    std::fs::write(dir.join("library-zz.jsonl"), "not a header\n{}\n").expect("write");

    let out = Command::new(env!("CARGO_BIN_EXE_mpld"))
        .args(["library", "stats", "--json", "true", "--store-dir"])
        .arg(&dir)
        .output()
        .expect("mpld runs");
    assert!(out.status.success(), "{out:?}");

    let files = mpld_store::scan_dir(&dir).expect("scan");
    assert_eq!(files.len(), 2);
    assert!(files[0].header.is_some() && files[1].header.is_none());
    let items: Vec<String> = files
        .iter()
        .map(|f| {
            let header = match &f.header {
                Some(h) => format!(
                    r#"{{"model":"{:016x}","k":{},"alpha":{},"dim":{},"library":{}}}"#,
                    h.model_digest,
                    h.k,
                    h.alpha,
                    h.dim,
                    quote(&h.library)
                ),
                None => "null".into(),
            };
            format!(
                r#"{{"path":{},"header":{header},"solves":{},"buckets":{},"lib_entries":{},"lib_complete":{},"corrupt":{},"bytes":{}}}"#,
                quote(&f.path.display().to_string()),
                f.solves,
                f.buckets,
                f.lib_entries,
                f.lib_complete,
                f.corrupt,
                f.bytes
            )
        })
        .collect();
    let want = format!("[{}]\n", items.join(","));
    assert!(want.contains(r#""alpha":1,"#), "{want}");
    assert!(want.contains(r#""library":"p6\"s1\\n7""#), "{want}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
    let _ = std::fs::remove_dir_all(&dir);
}
