//! `nscc inspect --ckpt`: list the generations of an on-disk checkpoint
//! store — virtual cut time, size, checksum and per-node iteration
//! vector per generation, with corrupt files flagged instead of hidden.
//!
//! The store layout is [`nscc_ckpt::CkptStore`]'s: one `gen-NNNNNN.nsck`
//! file per generation. Both the sweeps' per-cell checkpoints
//! (`--ckpt-dir`) and any other store written through `nscc-ckpt`
//! render the same way.

use std::path::Path;

use nscc_ckpt::CkptStore;

use crate::fmt::{ns, table};

/// Render the generation listing of the checkpoint store at `dir` (or of
/// a bench subdirectory inside it). Errors are strings ready for stderr.
pub fn inspect_ckpt_dir(dir: &Path) -> Result<String, String> {
    if !dir.is_dir() {
        return Err(format!("{}: not a directory", dir.display()));
    }
    // A sweep's --ckpt-dir holds one subdirectory per experiment;
    // descend into each so `nscc inspect --ckpt ck` shows everything.
    let mut stores: Vec<std::path::PathBuf> = Vec::new();
    let has_gens = |d: &Path| {
        std::fs::read_dir(d).is_ok_and(|entries| {
            entries
                .flatten()
                .any(|e| e.file_name().to_string_lossy().ends_with(".nsck"))
        })
    };
    if has_gens(dir) {
        stores.push(dir.to_path_buf());
    } else {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() && has_gens(&p) {
                stores.push(p);
            }
        }
        stores.sort();
    }
    if stores.is_empty() {
        return Ok(format!(
            "checkpoint store {}: no generations\n",
            dir.display()
        ));
    }

    let mut out = String::new();
    for (i, store_dir) in stores.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let store = CkptStore::open(store_dir).map_err(|e| e.to_string())?;
        let gens = store.generations().map_err(|e| e.to_string())?;
        let intact = gens.iter().filter(|g| g.ok()).count();
        out.push_str(&format!(
            "checkpoint store {} ({} generation(s), {} intact):\n",
            store_dir.display(),
            gens.len(),
            intact
        ));
        let mut rows = vec![vec![
            "gen".to_string(),
            "kind".to_string(),
            "t".to_string(),
            "bytes".to_string(),
            "checksum".to_string(),
            "iters".to_string(),
            "status".to_string(),
        ]];
        for g in &gens {
            let iters = g
                .iters
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            rows.push(vec![
                g.gen.to_string(),
                g.kind.label().to_string(),
                ns(g.t_ns),
                g.bytes.to_string(),
                format!("{:016x}", g.checksum),
                format!("[{iters}]"),
                g.error.clone().unwrap_or_else(|| "ok".to_string()),
            ]);
        }
        out.push_str(&table(&rows));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("nscc-analyze-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn lists_generations_and_flags_corruption() {
        let dir = tmpdir("list");
        let store = CkptStore::open(&dir).unwrap();
        store.save(0, 1_000_000, &[12, 13], b"cell-a").unwrap();
        let p = store.save(1, 2_000_000, &[14], b"cell-b").unwrap();
        let mut data = std::fs::read(&p).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        std::fs::write(&p, &data).unwrap();

        let text = inspect_ckpt_dir(&dir).unwrap();
        assert!(text.contains("2 generation(s), 1 intact"), "{text}");
        assert!(text.contains("[12,13]"), "{text}");
        assert!(text.contains("checksum"), "{text}");
        assert!(text.contains("ok"), "{text}");
        assert!(text.contains("stop-world"), "{text}");
        assert!(text.to_lowercase().contains("checksum mismatch"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn labels_consistent_cut_generations() {
        use nscc_ckpt::{save_cut, CutFrame, GlobalCut};
        let dir = tmpdir("cut");
        let store = CkptStore::open(&dir).unwrap();
        store.save(3, 1_000, &[9], b"stop-world frame").unwrap();
        let cut = GlobalCut {
            id: 6,
            frames: vec![CutFrame {
                rank: 0,
                gen: 6,
                state: vec![1, 2, 3],
                inflight: Vec::new(),
            }],
        };
        save_cut(&store, &cut, 2_000).unwrap();
        let text = inspect_ckpt_dir(&dir).unwrap();
        assert!(text.contains("stop-world"), "{text}");
        assert!(text.contains("consistent-cut"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn descends_into_bench_subdirectories() {
        let dir = tmpdir("sub");
        let store = CkptStore::open(dir.join("fault_study")).unwrap();
        store.save(0, 500, &[1], b"x").unwrap();
        let text = inspect_ckpt_dir(&dir).unwrap();
        assert!(text.contains("fault_study"), "{text}");
        assert!(text.contains("1 generation(s), 1 intact"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_an_error_and_empty_dir_is_not() {
        assert!(inspect_ckpt_dir(Path::new("/nonexistent-nscc")).is_err());
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let text = inspect_ckpt_dir(&dir).unwrap();
        assert!(text.contains("no generations"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
