//! The consistent-cut generation format: what a Chandy–Lamport snapshot
//! of a whole world looks like on disk.
//!
//! A [`GlobalCut`] is one marker-protocol snapshot: per rank, the sealed
//! local state captured on first marker plus the in-flight channel
//! messages recorded between that capture and the arrival of the closing
//! markers. Cuts are written to a [`CkptStore`] as
//! [`CkptKind::ConsistentCut`] generations (generation number = cut id),
//! next to — and distinguishable from — PR 4's stop-world generations.
//!
//! [`load_latest_cut`] is the warm-restore entry point: it walks the
//! store newest-first, skipping corrupt generations *and* stop-world
//! generations, so a damaged newest cut degrades recovery by one cadence
//! interval instead of failing the run.

use crate::store::{CkptKind, CkptStore};
use crate::{from_bytes, to_bytes, CkptError, Snapshot};

/// One rank's contribution to a consistent cut.
#[derive(Debug, Clone, PartialEq, Eq, Snapshot)]
pub struct CutFrame {
    /// The rank this frame belongs to.
    pub rank: u32,
    /// The producer's iteration (island generation) at local capture.
    pub gen: u64,
    /// Sealed local state (the producer's own checkpoint encoding; for GA
    /// islands, a sealed `IslandCkpt`).
    pub state: Vec<u8>,
    /// Recorded in-flight channel messages: updates that arrived between
    /// this rank's local capture and the closing marker of each incoming
    /// channel, in arrival order (producer-defined encoding).
    pub inflight: Vec<u8>,
}

/// One completed marker-protocol snapshot: every rank's [`CutFrame`].
#[derive(Debug, Clone, PartialEq, Eq, Snapshot)]
pub struct GlobalCut {
    /// The cut id (markers carried it; doubles as the generation number).
    pub id: u64,
    /// Per-rank frames, sorted by rank.
    pub frames: Vec<CutFrame>,
}

impl GlobalCut {
    /// The frame for `rank`, if the cut has one.
    pub fn frame(&self, rank: usize) -> Option<&CutFrame> {
        self.frames.iter().find(|f| f.rank as usize == rank)
    }

    /// The per-rank iteration vector (for the generation header).
    pub fn iters(&self) -> Vec<u64> {
        self.frames.iter().map(|f| f.gen).collect()
    }
}

/// Persist a completed cut as a consistent-cut generation (generation
/// number = cut id). Returns the path written.
pub fn save_cut(
    store: &CkptStore,
    cut: &GlobalCut,
    t_ns: u64,
) -> Result<std::path::PathBuf, CkptError> {
    store.save_kind(
        cut.id,
        t_ns,
        &cut.iters(),
        &to_bytes(cut),
        CkptKind::ConsistentCut,
    )
}

/// Load the newest intact consistent cut from `store`, skipping corrupt
/// generations (each skip is reported on stderr, as `load_latest` does)
/// and stop-world generations. `None` when the store holds no loadable
/// cut at all — the caller falls back to its stop-world path.
pub fn load_latest_cut(store: &CkptStore) -> Result<Option<GlobalCut>, CkptError> {
    let mut gens = store.generations()?;
    gens.sort_by_key(|g| std::cmp::Reverse(g.gen));
    for info in &gens {
        if let Some(err) = &info.error {
            eprintln!(
                "warning: skipping corrupt checkpoint generation {} ({}): {err}",
                info.gen,
                info.path.display()
            );
            continue;
        }
        if info.kind != CkptKind::ConsistentCut {
            continue;
        }
        let (_, payload) = CkptStore::load_path(&info.path)?;
        match from_bytes::<GlobalCut>(&payload) {
            Ok(cut) => return Ok(Some(cut)),
            Err(e) => {
                // Checksum passed but the cut body does not parse — treat
                // like any other corrupt generation and keep falling back.
                eprintln!(
                    "warning: skipping undecodable consistent cut {} ({}): {e}",
                    info.gen,
                    info.path.display()
                );
                continue;
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("nscc-cut-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn cut(id: u64, ranks: u32) -> GlobalCut {
        GlobalCut {
            id,
            frames: (0..ranks)
                .map(|r| CutFrame {
                    rank: r,
                    gen: id * 10 + r as u64,
                    state: vec![r as u8; 4],
                    inflight: vec![0xAA, r as u8],
                })
                .collect(),
        }
    }

    #[test]
    fn cut_roundtrips_through_the_store() {
        let dir = tmpdir("roundtrip");
        let store = CkptStore::open(&dir).unwrap();
        let c = cut(5, 3);
        assert_eq!(
            (nscc_ckpt::CKPT_VERSION, nscc_ckpt::fnv1a(&to_bytes(&c))),
            (2, 0x1933_7bc0_d756_0a50),
            "the checkpoint layout moved: bump CKPT_VERSION and pin the new pair"
        );
        save_cut(&store, &c, 1234).unwrap();
        let back = load_latest_cut(&store).unwrap().unwrap();
        assert_eq!(back, c);
        assert_eq!(back.frame(2).unwrap().gen, 52);
        assert_eq!(back.iters(), vec![50, 51, 52]);
        let info = &store.generations().unwrap()[0];
        assert_eq!(info.kind, CkptKind::ConsistentCut);
        assert_eq!(info.iters, vec![50, 51, 52]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_restore_skips_a_corrupt_newest_cut() {
        let dir = tmpdir("fallback");
        let store = CkptStore::open(&dir).unwrap();
        save_cut(&store, &cut(1, 2), 100).unwrap();
        let newest = save_cut(&store, &cut(2, 2), 200).unwrap();
        // Flip a payload bit in the newest generation.
        let mut data = fs::read(&newest).unwrap();
        let last = data.len() - 9; // inside the payload, before the kind tag
        data[last] ^= 0xFF;
        fs::write(&newest, &data).unwrap();

        let back = load_latest_cut(&store).unwrap().unwrap();
        assert_eq!(back.id, 1, "warm restore must fall back, not fail");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stop_world_generations_are_not_cuts() {
        let dir = tmpdir("mixed");
        let store = CkptStore::open(&dir).unwrap();
        store.save(7, 700, &[1, 2], b"stop-world frame").unwrap();
        assert!(load_latest_cut(&store).unwrap().is_none());
        // But a cut below a newer stop-world generation is still found.
        save_cut(&store, &cut(3, 2), 300).unwrap();
        store.save(9, 900, &[4, 5], b"newer stop-world").unwrap();
        assert_eq!(load_latest_cut(&store).unwrap().unwrap().id, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_cuts_corrupt_means_none_not_error() {
        let dir = tmpdir("allbad");
        let store = CkptStore::open(&dir).unwrap();
        let p = save_cut(&store, &cut(1, 1), 10).unwrap();
        let mut data = fs::read(&p).unwrap();
        data[20] ^= 0x55;
        fs::write(&p, &data).unwrap();
        assert!(
            load_latest_cut(&store).unwrap().is_none(),
            "caller falls back to the stop-world path"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
