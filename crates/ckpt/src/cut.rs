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
//! On-disk cuts are for `nscc inspect --ckpt`, which lists them with a
//! `kind` column. Nothing reads them back into a run: warm restores take
//! the newest sealed cut from the in-memory snapshot board.

use crate::store::{CkptKind, CkptStore};
use crate::{to_bytes, CkptError, Snapshot};

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
        let info = &store.generations().unwrap()[0];
        assert_eq!((info.gen, info.kind), (5, CkptKind::ConsistentCut));
        assert_eq!(info.iters, vec![50, 51, 52]);
        let (_, payload) = CkptStore::load_path(&info.path).unwrap();
        let back: GlobalCut = crate::from_bytes(&payload).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.frame(2).unwrap().gen, 52);
        fs::remove_dir_all(&dir).unwrap();
    }
}
