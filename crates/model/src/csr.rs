//! Flat (CSR-style) row storage for the two adjacency views of
//! [`crate::answer_matrix::AnswerMatrix`].
//!
//! One view is one `(id, label)` pair slab plus a `(start, len, cap)` row
//! table: row `r` is the window `pairs[start..start + len]`, with `cap`
//! slots reserved from `start`. That is exactly the layout the EM kernels
//! stream, so every reader gets a row as one sequential slice.
//!
//! Votes are written in place:
//!
//! - **Append** — a pair goes to the end of its row's window. A row that
//!   outgrows its window relocates to the slab tail with 1.5x slack; the
//!   old window becomes garbage until the next repack.
//! - **Overwrite** — the label changes in place.
//! - **Remove** — swap-remove with the row's last pair, so the relative
//!   order of the remaining pairs may change.
//! - **Repack on garbage** — once the slab holds more than twice the live
//!   pairs (the corpus-doubling rhythm of a streaming session) plus
//!   [`REBUILD_SLACK`], the whole view is repacked tightly in row order,
//!   which also restores row-major locality for sequential scans.
//!
//! Within a row, pairs stay in the order those mutations leave them
//! (arrival order for a pure append stream). That order decides the
//! summation order of the EM kernels, so it is part of the snapshot
//! format; repacking never changes it.

/// Extra slab slack (in pairs) tolerated before a garbage-triggered repack;
/// keeps tiny matrices from repacking on every relocation.
const REBUILD_SLACK: usize = 1024;

/// One row: a `[start, start + len)` window of the pair slab, with `cap`
/// pairs reserved from `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    start: u32,
    len: u32,
    cap: u32,
}

impl Row {
    const EMPTY: Row = Row {
        start: 0,
        len: 0,
        cap: 0,
    };
}

/// Rows of `(id, label)` pairs over one flat slab. See the module docs for
/// the growth and repack policy.
#[derive(Debug, Clone, Default)]
pub(crate) struct Adjacency {
    rows: Vec<Row>,
    /// The pair slab. `rows` windows index into this; slots outside every
    /// window are garbage awaiting the next repack.
    pairs: Vec<(u32, u32)>,
    /// Live pairs across all rows (slab length minus garbage and slack).
    live: usize,
}

impl Adjacency {
    pub(crate) fn with_rows(rows: usize) -> Self {
        Self {
            rows: vec![Row::EMPTY; rows],
            pairs: Vec::new(),
            live: 0,
        }
    }

    /// A tightly packed view over `pairs`, whose rows are consecutive runs
    /// of `row_lens` pairs (the deserialization path). The caller validates
    /// the pairs.
    pub(crate) fn from_packed(pairs: Vec<(u32, u32)>, row_lens: &[u32]) -> Self {
        let mut start = 0u32;
        let rows = row_lens
            .iter()
            .map(|&len| {
                let row = Row {
                    start,
                    len,
                    cap: len,
                };
                start += len;
                row
            })
            .collect();
        debug_assert_eq!(start as usize, pairs.len());
        Self {
            rows,
            live: pairs.len(),
            pairs,
        }
    }

    pub(crate) fn num_rows(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn ensure_rows(&mut self, rows: usize) {
        if rows > self.rows.len() {
            self.rows.resize(rows, Row::EMPTY);
        }
    }

    pub(crate) fn row_len(&self, row: usize) -> usize {
        self.rows.get(row).map_or(0, |r| r.len as usize)
    }

    /// The row's pairs as one slice; empty for out-of-range rows.
    #[inline]
    pub(crate) fn row(&self, row: usize) -> &[(u32, u32)] {
        match self.rows.get(row) {
            Some(r) => &self.pairs[r.start as usize..(r.start + r.len) as usize],
            None => &[],
        }
    }

    /// Reserves slab capacity for `additional` pairs (ingest-batch hint;
    /// relocation slack can still grow the slab past it).
    pub(crate) fn reserve_pairs(&mut self, additional: usize) {
        self.grow(additional);
    }

    /// Makes room for `extra` more pairs past the slab's end, growing the
    /// allocation by at least half the slab. `Vec`'s own doubling would
    /// overshoot: the slab is repacked once it holds twice its live pairs,
    /// so most of a doubled allocation would only be freed again.
    fn grow(&mut self, extra: usize) {
        let len = self.pairs.len();
        if len + extra > self.pairs.capacity() {
            self.pairs.reserve_exact(extra.max(len / 2));
        }
    }

    /// Slab index of the pair stored under `id` in `row`.
    fn find(&self, row: usize, id: u32) -> Option<usize> {
        let r = self.rows.get(row)?;
        let start = r.start as usize;
        self.pairs[start..start + r.len as usize]
            .iter()
            .position(|&(i, _)| i == id)
            .map(|pos| start + pos)
    }

    /// The label stored under `id` in `row`.
    pub(crate) fn get(&self, row: usize, id: u32) -> Option<u32> {
        self.find(row, id).map(|at| self.pairs[at].1)
    }

    /// Inserts or overwrites a pair; returns `true` when the pair is new.
    pub(crate) fn set(&mut self, row: usize, id: u32, label: u32) -> bool {
        if let Some(at) = self.find(row, id) {
            self.pairs[at].1 = label;
            false
        } else {
            self.push(row, id, label);
            true
        }
    }

    /// Appends a pair to the end of a row (no duplicate check), relocating
    /// the row to the slab tail when its window is full.
    pub(crate) fn push(&mut self, row: usize, id: u32, label: u32) {
        let r = self.rows[row];
        if r.len < r.cap {
            self.pairs[(r.start + r.len) as usize] = (id, label);
            self.rows[row].len += 1;
        } else {
            let len = r.len + 1;
            let cap = len + len / 2;
            let start = self.pairs.len();
            let end = u32::try_from(start + cap as usize).expect("slab offsets fit in u32");
            self.grow(cap as usize);
            self.pairs
                .extend_from_within(r.start as usize..(r.start + r.len) as usize);
            self.pairs.push((id, label));
            self.pairs.resize(end as usize, (0, 0));
            self.rows[row] = Row {
                start: end - cap,
                len,
                cap,
            };
        }
        self.live += 1;
        if self.pairs.len() > 2 * self.live + REBUILD_SLACK {
            self.repack();
        }
    }

    /// Removes a pair by id: swap-remove with the row's last pair. The
    /// window keeps its capacity.
    pub(crate) fn remove(&mut self, row: usize, id: u32) -> Option<u32> {
        let at = self.find(row, id)?;
        let r = &mut self.rows[row];
        r.len -= 1;
        let last = (r.start + r.len) as usize;
        let label = self.pairs[at].1;
        self.pairs[at] = self.pairs[last];
        self.live -= 1;
        Some(label)
    }

    /// Repacks the slab tightly in row order: drops relocation garbage and
    /// restores sequential-scan locality. Row contents do not change.
    fn repack(&mut self) {
        let mut pairs = Vec::with_capacity(self.live);
        for r in &mut self.rows {
            let start = pairs.len();
            pairs.extend_from_slice(&self.pairs[r.start as usize..(r.start + r.len) as usize]);
            *r = Row {
                start: start as u32,
                len: r.len,
                cap: r.len,
            };
        }
        self.pairs = pairs;
    }

    /// Heap bytes held by the view (capacities, not lengths).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Row>()
            + self.pairs.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// Slab slots in use, garbage and slack included.
    #[cfg(test)]
    pub(crate) fn slab_len(&self) -> usize {
        self.pairs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_votes(rows: usize, votes: &[(usize, u32, u32)]) -> Adjacency {
        let mut adj = Adjacency::with_rows(rows);
        for &(row, id, label) in votes {
            adj.set(row, id, label);
        }
        adj
    }

    #[test]
    fn in_place_patch_and_relocation() {
        let mut adj = with_votes(3, &[(1, 0, 0)]);
        assert_eq!(adj.row(1), &[(0, 0)]);
        // Overwrite in place: same window, new label.
        let before = adj.rows[1];
        assert!(!adj.set(1, 0, 9));
        assert_eq!(adj.rows[1], before);
        assert_eq!(adj.row(1), &[(0, 9)]);
        // Grow past capacity: the row relocates, keeping its order.
        for id in 1..40 {
            assert!(adj.set(1, id, id % 3));
        }
        assert_ne!(adj.rows[1].start, before.start);
        let expected: Vec<_> = std::iter::once((0, 9))
            .chain((1..40).map(|id| (id, id % 3)))
            .collect();
        assert_eq!(adj.row(1), &expected[..]);
        assert!(adj.row(0).is_empty() && adj.row(2).is_empty());
        assert_eq!(adj.live, 40);
    }

    #[test]
    fn shrinking_rows_patch_in_place() {
        let mut adj = with_votes(1, &[(0, 0, 0), (0, 1, 1), (0, 2, 0)]);
        let before = adj.rows[0];
        assert_eq!(adj.remove(0, 1), Some(1));
        // The row's last pair filled the hole; the window did not move.
        assert_eq!(adj.row(0), &[(0, 0), (2, 0)]);
        assert_eq!(adj.rows[0].start, before.start);
        assert_eq!(adj.rows[0].cap, before.cap);
        assert_eq!(adj.remove(0, 1), None);
        assert_eq!(adj.live, 2);
        // Regrowing within the old capacity stays in place.
        adj.push(0, 3, 1);
        assert_eq!(adj.rows[0].start, before.start);
        assert_eq!(adj.row(0), &[(0, 0), (2, 0), (3, 1)]);
    }

    #[test]
    fn garbage_triggers_a_tight_rebuild() {
        // Grow one row repeatedly so relocation strands enough garbage to
        // cross the 2x-live threshold (REBUILD_SLACK forces a large corpus).
        let mut adj = Adjacency::with_rows(4);
        let mut repacked = false;
        for id in 0..(1u32 << 13) {
            let before = adj.pairs.len();
            adj.push(0, id, id % 2);
            repacked |= adj.pairs.len() < before;
        }
        assert!(repacked, "no repack after {} pairs", adj.live);
        let expected: Vec<_> = (0..1u32 << 13).map(|id| (id, id % 2)).collect();
        assert_eq!(adj.row(0), &expected[..]);
        // After a repack the slab is tight: no more than live plus one
        // row's relocation slack.
        assert!(
            adj.pairs.len() <= 2 * adj.live + REBUILD_SLACK,
            "slab {} vs live {}",
            adj.pairs.len(),
            adj.live
        );
    }

    #[test]
    fn repack_keeps_every_row_in_row_order() {
        // Interleaved appends scatter the rows across the slab; the repack
        // lays them out in row order without changing any row.
        let mut adj = Adjacency::with_rows(7);
        let mut reference = vec![Vec::new(); 7];
        for i in 0..4000u32 {
            let row = (i as usize * 5) % 7;
            adj.push(row, i, i % 3);
            reference[row].push((i, i % 3));
        }
        adj.repack();
        let mut expected_start = 0;
        for (row, pairs) in reference.iter().enumerate() {
            assert_eq!(adj.row(row), &pairs[..]);
            assert_eq!(adj.rows[row].start as usize, expected_start);
            expected_start += pairs.len();
        }
        assert_eq!(adj.pairs.len(), adj.live);
    }

    #[test]
    fn from_packed_splits_rows_in_order() {
        let adj = Adjacency::from_packed(vec![(3, 1), (1, 0), (0, 2)], &[2, 0, 1]);
        assert_eq!(adj.num_rows(), 3);
        assert_eq!(adj.row(0), &[(3, 1), (1, 0)]);
        assert!(adj.row(1).is_empty());
        assert_eq!(adj.row(2), &[(0, 2)]);
        assert_eq!(adj.slab_len(), 3);
        assert_eq!(adj.live, 3);
    }

    #[test]
    fn ensure_rows_keeps_new_rows_clean_and_empty() {
        let mut adj = with_votes(1, &[(0, 0, 0)]);
        adj.ensure_rows(5);
        assert_eq!(adj.num_rows(), 5);
        assert!(adj.row(4).is_empty());
        assert!(adj.row(99).is_empty());
        assert_eq!(adj.row(0), &[(0, 0)]);
    }

    #[test]
    fn heap_bytes_counts_slab_and_tables() {
        let adj = with_votes(2, &[(0, 0, 0), (1, 1, 1)]);
        assert!(
            adj.heap_bytes()
                >= 2 * std::mem::size_of::<Row>() + 2 * std::mem::size_of::<(u32, u32)>()
        );
    }
}
