//! The location directory: which rank writes each shared location, which
//! ranks read it.
//!
//! The paper's applications have compile-time-known readers for every
//! shared value (§4.1), which is what lets the DSM implement writes as
//! direct sends. The directory captures exactly that static knowledge.

/// Identifier of a shared location (dense index into the directory).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, nscc_ckpt::Snapshot)]
pub struct LocId(pub u32);

impl nscc_msg::WireSize for LocId {
    fn wire_size(&self) -> usize {
        nscc_msg::wire_size(&self.0)
    }
}

impl LocId {
    /// Dense index of this location.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Static metadata for one shared location.
#[derive(Debug, Clone)]
pub struct LocMeta {
    /// Diagnostic name.
    pub name: String,
    /// The unique writing rank.
    pub writer: usize,
    /// Ranks that read the location (may include the writer; the writer
    /// always reads its own copy locally for free).
    pub readers: Vec<usize>,
}

/// Builder/owner of the static location table shared by all ranks.
#[derive(Debug, Default, Clone)]
pub struct Directory {
    locs: Vec<LocMeta>,
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Register a location with its unique `writer` and its `readers`.
    /// Readers equal to the writer are dropped (local reads are free).
    pub fn add(
        &mut self,
        name: impl Into<String>,
        writer: usize,
        readers: impl IntoIterator<Item = usize>,
    ) -> LocId {
        let id = LocId(self.locs.len() as u32);
        let mut readers: Vec<usize> = readers.into_iter().filter(|&r| r != writer).collect();
        readers.sort_unstable();
        readers.dedup();
        self.locs.push(LocMeta {
            name: name.into(),
            writer,
            readers,
        });
        id
    }

    /// Convenience for the common all-to-all pattern of the island GA: one
    /// location per rank, written by that rank and read by everyone else.
    /// Returns the per-rank location ids.
    pub fn add_per_rank(&mut self, prefix: &str, ranks: usize) -> Vec<LocId> {
        (0..ranks)
            .map(|w| self.add(format!("{prefix}{w}"), w, 0..ranks))
            .collect()
    }

    /// One location per rank on a bidirectional ring: rank `w`'s location
    /// is read by `w±1 (mod ranks)` — the classic low-traffic island-GA
    /// migration topology (§3.1 lists topology among the migration
    /// parameters).
    pub fn add_ring(&mut self, prefix: &str, ranks: usize) -> Vec<LocId> {
        (0..ranks)
            .map(|w| {
                let readers: Vec<usize> = if ranks <= 1 {
                    Vec::new()
                } else if ranks == 2 {
                    vec![(w + 1) % ranks]
                } else {
                    vec![(w + 1) % ranks, (w + ranks - 1) % ranks]
                };
                self.add(format!("{prefix}{w}"), w, readers)
            })
            .collect()
    }

    /// One location per rank with `k` distinct random readers each
    /// (deterministic per `seed`).
    pub fn add_random_topology(
        &mut self,
        prefix: &str,
        ranks: usize,
        k: usize,
        seed: u64,
    ) -> Vec<LocId> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..ranks)
            .map(|w| {
                let mut others: Vec<usize> = (0..ranks).filter(|&r| r != w).collect();
                others.shuffle(&mut rng);
                others.truncate(k.min(others.len()));
                self.add(format!("{prefix}{w}"), w, others)
            })
            .collect()
    }

    /// Metadata for `loc`.
    pub fn meta(&self, loc: LocId) -> &LocMeta {
        &self.locs[loc.index()]
    }

    /// Number of registered locations.
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// True when no locations are registered.
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// Iterate over `(LocId, &LocMeta)`.
    pub fn iter(&self) -> impl Iterator<Item = (LocId, &LocMeta)> {
        self.locs
            .iter()
            .enumerate()
            .map(|(i, m)| (LocId(i as u32), m))
    }

    /// All locations read by `rank` (i.e. whose updates will arrive there).
    pub fn read_by(&self, rank: usize) -> Vec<LocId> {
        self.iter()
            .filter(|(_, m)| m.readers.contains(&rank))
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_dedups_and_drops_writer_from_readers() {
        let mut d = Directory::new();
        let id = d.add("x", 1, [0, 1, 2, 2, 0]);
        let m = d.meta(id);
        assert_eq!(m.writer, 1);
        assert_eq!(m.readers, vec![0, 2]);
    }

    #[test]
    fn per_rank_all_to_all() {
        let mut d = Directory::new();
        let locs = d.add_per_rank("best", 3);
        assert_eq!(locs.len(), 3);
        assert_eq!(d.meta(locs[1]).writer, 1);
        assert_eq!(d.meta(locs[1]).readers, vec![0, 2]);
        assert_eq!(d.read_by(0), vec![locs[1], locs[2]]);
    }

    #[test]
    fn empty_directory() {
        let d = Directory::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
