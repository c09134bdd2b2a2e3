//! Consistent-snapshot coordination: the [`SnapshotBoard`] collecting
//! per-rank [`CutFrame`]s into complete [`GlobalCut`]s, and the
//! [`SnapConfig`] bundle an application thread needs to participate in
//! the marker protocol.
//!
//! The protocol itself is deliberately split across layers: markers
//! travel on [`nscc_msg::MarkerPlane`]'s zero-cost side channel,
//! per-channel in-flight recording lives inside
//! [`DsmNode`](crate::DsmNode) (`snap_begin`/`snap_close`/`snap_finish`),
//! and the application drives both from its iteration loop. The board is
//! the meeting point: every rank posts its frame, and the first post that
//! completes a cut publishes it (and optionally persists it as a
//! [`CkptKind::ConsistentCut`](nscc_ckpt::CkptKind) generation).
//!
//! Like the GA layer's `ConvergenceBoard` pattern, the board is
//! measurement-plane machinery with **zero virtual cost**: posting and
//! reading it never advances simulated time, so snapshot-on runs stay
//! byte-identical to snapshot-off runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use nscc_ckpt::{save_cut, CkptStore, CutFrame, GlobalCut};
use nscc_msg::MarkerPlane;

/// Aggregate counters the board keeps about the snapshot protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapCounters {
    /// Cuts initiated (marker waves started).
    pub started: u64,
    /// Cuts that reached every rank and completed.
    pub completed: u64,
    /// In-flight channel messages recorded across all posted frames.
    pub inflight_recorded: u64,
}

struct BoardInner {
    ranks: usize,
    /// Incomplete cuts: id → rank → frame.
    pending: BTreeMap<u64, BTreeMap<u32, CutFrame>>,
    /// Newest completed cut.
    latest: Option<GlobalCut>,
    /// Optional persistence: completed cuts become consistent-cut
    /// generations here.
    store: Option<CkptStore>,
    counters: SnapCounters,
    /// Persistence failures (never fatal for the run; the in-memory cut
    /// is still available for warm restores).
    persist_errors: u64,
    /// Live recording state per rank: rank → (cut id, open channels,
    /// in-flight updates recorded so far). Pure diagnostics — ranks
    /// refresh it while a wave is active and clear it on finish, and the
    /// sim watchdog reads it as deadlock breadcrumbs.
    waves: BTreeMap<u32, (u64, usize, usize)>,
}

/// Shared collection point for one world's consistent cuts.
#[derive(Clone)]
pub struct SnapshotBoard {
    inner: Rc<RefCell<BoardInner>>,
}

impl fmt::Debug for SnapshotBoard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.inner.borrow();
        f.debug_struct("SnapshotBoard")
            .field("ranks", &g.ranks)
            .field("pending", &g.pending.len())
            .field("counters", &g.counters)
            .finish()
    }
}

impl SnapshotBoard {
    /// A board for `ranks` processes, in-memory only.
    pub fn new(ranks: usize) -> Self {
        SnapshotBoard {
            inner: Rc::new(RefCell::new(BoardInner {
                ranks,
                pending: BTreeMap::new(),
                latest: None,
                store: None,
                counters: SnapCounters::default(),
                persist_errors: 0,
                waves: BTreeMap::new(),
            })),
        }
    }

    /// Persist completed cuts into `store` as consistent-cut generations
    /// (generation number = cut id).
    pub fn with_store(self, store: CkptStore) -> Self {
        self.inner.borrow_mut().store = Some(store);
        self
    }

    /// Note a new marker wave (called once per cut by its initiator).
    pub fn note_start(&self, _id: u64) {
        self.inner.borrow_mut().counters.started += 1;
    }

    /// Post one rank's frame for cut `id`, with the number of in-flight
    /// messages it recorded. The post that delivers the final missing
    /// rank completes the cut: it becomes [`latest_complete`]
    /// (newest-id wins) and is persisted when a store is attached
    /// (`t_ns` stamps the generation header).
    ///
    /// [`latest_complete`]: SnapshotBoard::latest_complete
    pub fn post(&self, id: u64, frame: CutFrame, recorded: u64, t_ns: u64) {
        let mut g = self.inner.borrow_mut();
        g.counters.inflight_recorded += recorded;
        let ranks = g.ranks;
        let slot = g.pending.entry(id).or_default();
        slot.insert(frame.rank, frame);
        if slot.len() < ranks {
            return;
        }
        let frames = g
            .pending
            .remove(&id)
            .expect("cut present")
            .into_values()
            .collect();
        let cut = GlobalCut { id, frames };
        g.counters.completed += 1;
        if let Some(store) = &g.store {
            if save_cut(store, &cut, t_ns).is_err() {
                g.persist_errors += 1;
            }
        }
        match &g.latest {
            Some(prev) if prev.id >= id => {}
            _ => g.latest = Some(cut),
        }
        // Older incomplete cuts can never beat this one for restores;
        // drop them so a crashed rank's abandoned wave does not leak.
        g.pending.retain(|&k, _| k > id);
    }

    /// The newest completed cut, if any — the warm-restore source.
    pub fn latest_complete(&self) -> Option<GlobalCut> {
        self.inner.borrow().latest.clone()
    }

    /// Protocol counters so far.
    pub fn counters(&self) -> SnapCounters {
        self.inner.borrow().counters
    }

    /// Completed cuts that failed to persist to the attached store.
    pub fn persist_errors(&self) -> u64 {
        self.inner.borrow().persist_errors
    }

    /// Refresh one rank's live recording state: the cut it is recording,
    /// how many incoming channels still await their closing marker, and
    /// how many in-flight updates it captured so far.
    pub fn note_wave(&self, rank: u32, id: u64, open: usize, recorded: usize) {
        self.inner
            .borrow_mut()
            .waves
            .insert(rank, (id, open, recorded));
    }

    /// Clear one rank's live recording state (its local cut finished).
    pub fn clear_wave(&self, rank: u32) {
        self.inner.borrow_mut().waves.remove(&rank);
    }

    /// Deadlock breadcrumbs: one line per rank still mid-recording (cut
    /// id, open channel count, in-flight depth) and one line per pending
    /// cut naming the ranks whose frames never arrived. Empty when no
    /// wave is in trouble — register this with the sim watchdog
    /// (`SimBuilder::deadlock_note`) so a wedged run explains its marker
    /// plane.
    pub fn wave_notes(&self) -> Vec<String> {
        let g = self.inner.borrow();
        let mut notes = Vec::new();
        for (rank, (id, open, recorded)) in &g.waves {
            notes.push(format!(
                "marker plane: rank {rank} recording cut {id} ({open} channel(s) open, {recorded} in-flight update(s) recorded)"
            ));
        }
        for (id, frames) in &g.pending {
            let missing: Vec<String> = (0..g.ranks as u32)
                .filter(|r| !frames.contains_key(r))
                .map(|r| r.to_string())
                .collect();
            notes.push(format!(
                "marker plane: cut {id} incomplete ({}/{} frames posted, missing rank(s) {})",
                frames.len(),
                g.ranks,
                missing.join(",")
            ));
        }
        notes
    }
}

/// Everything an application thread needs to take part in the marker
/// protocol: the cut cadence, the marker fabric, and the board to post
/// frames to. Cloneable (all shared handles); one per world, handed to
/// every rank's config.
#[derive(Clone)]
pub struct SnapConfig {
    /// Initiate a cut every this many application iterations (rank 0
    /// starts the wave at `iter % every == 0`). Keep this equal to the
    /// checkpoint cadence (the age bound) so a cut restore never rolls
    /// back further than the staleness `Global_Read` tolerates.
    pub every: u64,
    /// The out-of-band marker fabric.
    pub plane: MarkerPlane,
    /// Where completed frames meet.
    pub board: SnapshotBoard,
}

impl fmt::Debug for SnapConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapConfig")
            .field("every", &self.every)
            .field("ranks", &self.plane.ranks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(rank: u32, gen: u64) -> CutFrame {
        CutFrame {
            rank,
            gen,
            state: vec![rank as u8],
            inflight: Vec::new(),
        }
    }

    #[test]
    fn cut_completes_when_every_rank_posts() {
        let board = SnapshotBoard::new(3);
        board.note_start(5);
        board.post(5, frame(0, 10), 2, 100);
        board.post(5, frame(2, 12), 0, 110);
        assert!(board.latest_complete().is_none(), "one rank still missing");
        board.post(5, frame(1, 11), 1, 120);
        let cut = board.latest_complete().expect("complete");
        assert_eq!(cut.id, 5);
        assert_eq!(cut.frames.len(), 3);
        let c = board.counters();
        assert_eq!((c.started, c.completed, c.inflight_recorded), (1, 1, 3));
    }

    #[test]
    fn newer_cut_supersedes_and_drops_stale_waves() {
        let board = SnapshotBoard::new(2);
        // Wave 3 stalls (rank 1 never posts)…
        board.post(3, frame(0, 6), 0, 10);
        // …wave 7 completes.
        board.post(7, frame(0, 14), 0, 20);
        board.post(7, frame(1, 14), 0, 21);
        assert_eq!(board.latest_complete().unwrap().id, 7);
        // A late post for wave 3 finds its slot gone and never completes
        // a stale cut over the newer one.
        board.post(3, frame(1, 6), 0, 30);
        assert_eq!(board.latest_complete().unwrap().id, 7);
    }

    #[test]
    fn completed_cuts_persist_as_consistent_cut_generations() {
        let dir = std::env::temp_dir().join(format!("nscc-board-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CkptStore::open(&dir).unwrap();
        let board = SnapshotBoard::new(2).with_store(CkptStore::open(&dir).unwrap());
        board.post(4, frame(0, 8), 0, 40);
        board.post(4, frame(1, 8), 0, 41);
        let gens = store.generations().unwrap();
        let kinds: Vec<_> = gens.iter().map(|g| (g.gen, g.kind, g.ok())).collect();
        assert_eq!(kinds, [(4, nscc_ckpt::CkptKind::ConsistentCut, true)]);
        assert_eq!(board.persist_errors(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
