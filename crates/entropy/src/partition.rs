//! Stripped partitions (position list indices) in a flat CSR layout.
//!
//! A *stripped partition* over an attribute set `X` groups the tuple
//! identifiers of a relation by their `X`-value and discards groups of size
//! one. This is the PLI structure of TANE/HyFD that §6.3 of the paper adapts:
//! singleton groups contribute `1·log 1 = 0` to the entropy sum of Eq. (5),
//! so dropping them loses nothing, and as attribute sets grow the partitions
//! shrink rapidly, which is what makes repeated entropy computation feasible.
//!
//! # Memory layout
//!
//! A [`Pli`] is **two flat vectors**, not a `Vec<Vec<u32>>`:
//!
//! * `rows` — one `u32` arena holding every covered row id, cluster by
//!   cluster;
//! * `offsets` — `cluster_count() + 1` boundaries into `rows`, CSR-style:
//!   cluster `i` is `rows[offsets[i] .. offsets[i + 1]]`.
//!
//! One partition therefore costs exactly two allocations however many
//! clusters it has, the clusters are contiguous in memory (sequential scans
//! during probing touch no pointer indirections), and `covered_rows` is
//! `rows.len()` instead of a per-cluster sum. Cluster order is canonical —
//! ascending by first (= smallest) row id, with rows ascending inside each
//! cluster — which keeps the floating-point summation order of
//! [`Pli::entropy`] identical across construction paths and runs.
//!
//! # Intersection and the scratch-reuse contract
//!
//! The paper materializes partitions as `CNT`/`TID` tables in the H2
//! in-memory database and intersects them with SQL joins; here the
//! intersection is a native two-pass probe. All probe state lives in a
//! caller-owned [`IntersectScratch`] whose arrays are *epoch-stamped*: a
//! stamp array entry is valid only if it equals the current epoch, so
//! between calls nothing is cleared — the epoch is bumped instead. A scratch
//! reaches a steady state after the first call at a given relation size and
//! performs **zero heap allocations** from then on; one scratch can be
//! reused across arbitrary partitions and even across relations (it resizes
//! on demand). Two entry points share it:
//!
//! * [`Pli::intersect_with`] materializes the refined partition (used when
//!   the result is worth caching);
//! * [`Pli::intersect_counts`] computes only the non-singleton group sizes
//!   of the refinement ([`GroupSizes`], enough to evaluate Eq. (5)) without
//!   writing a single TID — the §6.3 count-only fast path for partitions
//!   that would be thrown away right after their entropy is read.
//!
//! [`Pli::intersect`] remains as a convenience wrapper that allocates a
//! fresh scratch per call.

use crate::oracle::shannon_entropy;
use relation::{AttrSet, FoldKeyMap, KeyFold, Relation};
use std::collections::HashMap;
use storage::{RelationBackend, StorageError};

/// A stripped partition: clusters of row indices, each of size ≥ 2, grouping
/// rows with equal values on some attribute set. Stored as a flat CSR arena
/// (see the module docs for the layout and ordering invariants).
#[derive(Clone, Debug, PartialEq)]
pub struct Pli {
    /// Row-id arena: every covered row, cluster by cluster.
    rows: Vec<u32>,
    /// Cluster boundaries into `rows`; `offsets[0] == 0` and
    /// `offsets.len() == cluster_count() + 1`.
    offsets: Vec<u32>,
    n_rows: usize,
}

impl Pli {
    /// Builds the stripped partition of a single attribute directly from its
    /// dictionary codes, via a counting pass plus a CSR scatter: two passes
    /// over the code column and four exact-size allocations, independent of
    /// the column's cardinality (the previous representation allocated one
    /// bucket `Vec` per dictionary code, painful on high-cardinality columns
    /// where almost every value is a singleton).
    ///
    /// Consumes the column as a chunk stream ([`RelationBackend::scan_column`])
    /// so the same code serves the in-memory store (one whole-column chunk,
    /// inner loops unchanged) and the paged store. Both passes accumulate
    /// across chunk boundaries, so the result is chunk-size invariant —
    /// bit-identical whatever the backend's page size.
    ///
    /// # Errors
    /// Propagates the backend's [`StorageError`] when a scan chunk cannot be
    /// produced (failed page read, checksum mismatch).
    pub fn from_column(source: &dyn RelationBackend, attr: usize) -> Result<Pli, StorageError> {
        let cardinality = source.column_cardinality(attr);
        let mut counts = vec![0u32; cardinality];
        source.scan_column(attr, &mut |_, codes| {
            for &code in codes {
                counts[code as usize] += 1;
            }
        })?;
        // Directory pass: reserve an arena range per non-singleton code, in
        // code order (= first-occurrence order, since dictionaries assign
        // codes by first appearance — so this is ascending-first-row order).
        let mut starts = vec![u32::MAX; cardinality];
        let mut offsets = Vec::new();
        offsets.push(0u32);
        let mut total = 0u32;
        for (code, &count) in counts.iter().enumerate() {
            if count >= 2 {
                starts[code] = total;
                total += count;
                offsets.push(total);
            }
        }
        let mut rows = vec![0u32; total as usize];
        source.scan_column(attr, &mut |start, codes| {
            for (i, &code) in codes.iter().enumerate() {
                let cursor = starts[code as usize];
                if cursor != u32::MAX {
                    rows[cursor as usize] = (start + i) as u32;
                    starts[code as usize] = cursor + 1;
                }
            }
        })?;
        Ok(Pli { rows, offsets, n_rows: source.n_rows() })
    }

    /// Builds the stripped partition of an arbitrary attribute set by
    /// grouping every row's key. When the cardinality product of `attrs`
    /// fits in a `u64`, each row's dictionary codes are folded into a single
    /// exact mixed-radix key ([`Relation::fold_key`]) — one integer hash per
    /// row instead of hashing (and allocating) a per-row `Vec<u32>`; wider
    /// sets fall back to vector keys. Used as the reference implementation
    /// and as a fallback when no cached partition is available.
    ///
    /// Rows arrive through an aligned multi-column chunk stream
    /// ([`RelationBackend::scan_columns`]); since chunks tile the row range
    /// in ascending order, group ids still assign in first-occurrence order
    /// and the result is chunk-size invariant.
    ///
    /// # Errors
    /// Propagates the backend's [`StorageError`] when a scan chunk cannot be
    /// produced (failed page read, checksum mismatch).
    pub fn from_attrs(source: &dyn RelationBackend, attrs: AttrSet) -> Result<Pli, StorageError> {
        let n = source.n_rows();
        let cols: Vec<usize> = attrs.iter().collect();
        // Group ids are assigned in first-occurrence order over an ascending
        // row scan, so groups come out ordered by their smallest row — the
        // same canonical order every other constructor produces.
        let mut row_gids: Vec<u32> = Vec::with_capacity(n);
        let mut counts: Vec<u32> = Vec::new();
        if let Some(fold) = KeyFold::from_cardinalities(attrs, |c| source.column_cardinality(c)) {
            let mut gids: FoldKeyMap<u32> =
                FoldKeyMap::with_capacity_and_hasher(n, Default::default());
            source.scan_columns(&cols, &mut |_, slices| {
                let len = slices.first().map_or(0, |s| s.len());
                for i in 0..len {
                    let next = counts.len() as u32;
                    let gid = *gids.entry(fold.fold_slices(slices, i)).or_insert(next);
                    if gid == next {
                        counts.push(0);
                    }
                    counts[gid as usize] += 1;
                    row_gids.push(gid);
                }
            })?;
        } else {
            let mut gids: HashMap<Vec<u32>, u32> = HashMap::with_capacity(n);
            source.scan_columns(&cols, &mut |_, slices| {
                let len = slices.first().map_or(0, |s| s.len());
                for i in 0..len {
                    let key: Vec<u32> = slices.iter().map(|s| s[i]).collect();
                    let next = counts.len() as u32;
                    let gid = *gids.entry(key).or_insert(next);
                    if gid == next {
                        counts.push(0);
                    }
                    counts[gid as usize] += 1;
                    row_gids.push(gid);
                }
            })?;
        }
        // CSR scatter of the non-singleton groups, in group-id order.
        let mut starts = vec![u32::MAX; counts.len()];
        let mut offsets = Vec::new();
        offsets.push(0u32);
        let mut total = 0u32;
        for (gid, &count) in counts.iter().enumerate() {
            if count >= 2 {
                starts[gid] = total;
                total += count;
                offsets.push(total);
            }
        }
        let mut rows = vec![0u32; total as usize];
        for (r, &gid) in row_gids.iter().enumerate() {
            let cursor = starts[gid as usize];
            if cursor != u32::MAX {
                rows[cursor as usize] = r as u32;
                starts[gid as usize] = cursor + 1;
            }
        }
        Ok(Pli { rows, offsets, n_rows: n })
    }

    /// Delta-maintains this partition across an append: given that `new` is
    /// `old` plus a batch of appended rows (and `self` is the partition of
    /// `attrs` over `old`), builds the partition of `attrs` over `new`
    /// without regrouping the old rows. Of `old` only the row count and the
    /// column cardinalities are read, so any backend can stand for the
    /// pre-append generation. Batch rows are scattered into the
    /// existing CSR clusters they extend, promote old singletons into fresh
    /// clusters when they match one, or open batch-only clusters.
    ///
    /// Returns `None` when the cardinality product of `attrs` on `new`
    /// overflows the `u64` fold ([`Relation::key_fold`]) — the only case
    /// where the delta path cannot key rows exactly; callers then rebuild
    /// from scratch with [`Pli::from_attrs`]. The result is **bit-identical**
    /// to `Pli::from_attrs(new, attrs)`: appends never renumber existing
    /// dictionary codes, so the new fold is exact on old rows too, and the
    /// merge below emits clusters in the same canonical ascending-first-row
    /// order with ascending interiors.
    ///
    /// # Panics
    /// Panics if `self` is not a partition over `old` (row-count mismatch)
    /// or `new` has fewer rows than `old`.
    pub fn extended(
        &self,
        old: &dyn RelationBackend,
        new: &Relation,
        attrs: AttrSet,
    ) -> Option<Pli> {
        let old_n = old.n_rows();
        let new_n = new.n_rows();
        assert_eq!(self.n_rows, old_n, "partition must belong to the pre-append relation");
        assert!(new_n >= old_n, "extended() only handles appends");
        if new_n == old_n {
            return Some(self.clone());
        }
        let fold = new.key_fold(attrs)?;
        // Pre-append cardinalities per attribute: a code at or above one is
        // new in the batch.
        let old_cards: Vec<(usize, usize)> =
            attrs.iter().map(|c| (c, old.column_cardinality(c))).collect();
        // Key every existing cluster by its first row under the *new* fold;
        // distinct clusters disagree on some attribute, so keys are unique.
        let mut by_key: FoldKeyMap<u32> =
            FoldKeyMap::with_capacity_and_hasher(self.cluster_count(), Default::default());
        for (ci, cluster) in self.clusters().enumerate() {
            by_key.insert(new.fold_key(cluster[0] as usize, &fold), ci as u32);
        }
        // Group the batch rows by key, remembering which existing cluster
        // (if any) each group extends.
        struct BatchGroup {
            /// Existing cluster this key extends, if any.
            cluster: Option<u32>,
            /// Batch rows with this key, ascending.
            rows: Vec<u32>,
            /// Uncovered old row promoted into this group, if one matches.
            old_singleton: Option<u32>,
            /// Whether an old singleton could match: every code pre-exists.
            maybe_old: bool,
        }
        let mut index: FoldKeyMap<u32> =
            FoldKeyMap::with_capacity_and_hasher(new_n - old_n, Default::default());
        let mut groups: Vec<BatchGroup> = Vec::new();
        let mut scan_singletons = false;
        for r in old_n..new_n {
            let key = new.fold_key(r, &fold);
            let gi = match index.get(&key) {
                Some(&gi) => gi,
                None => {
                    let cluster = by_key.get(&key).copied();
                    // A batch row carrying a brand-new dictionary code on any
                    // attribute cannot equal any old row, so only groups whose
                    // codes all pre-date the append can absorb an old singleton.
                    let maybe_old = cluster.is_none()
                        && old_cards.iter().all(|&(c, card)| (new.code(r, c) as usize) < card);
                    scan_singletons |= maybe_old;
                    let gi = groups.len() as u32;
                    groups.push(BatchGroup {
                        cluster,
                        rows: Vec::new(),
                        old_singleton: None,
                        maybe_old,
                    });
                    index.insert(key, gi);
                    gi
                }
            };
            groups[gi as usize].rows.push(r as u32);
        }
        if scan_singletons {
            // Old rows absent from the arena are singletons in `self`. At most
            // one of them can share a key with a batch group (two uncovered
            // rows sharing a key would have formed a cluster already), and an
            // uncovered row can never key into an existing cluster.
            let mut covered = vec![false; old_n];
            for &row in &self.rows {
                covered[row as usize] = true;
            }
            for r in 0..old_n {
                if covered[r] {
                    continue;
                }
                if let Some(&gi) = index.get(&new.fold_key(r, &fold)) {
                    let g = &mut groups[gi as usize];
                    if g.maybe_old {
                        g.old_singleton = Some(r as u32);
                    }
                }
            }
        }
        // Split the groups into per-existing-cluster extensions and fresh
        // clusters (old-singleton promotions and batch-only groups of ≥ 2).
        let mut appended: Vec<Vec<u32>> = vec![Vec::new(); self.cluster_count()];
        let mut fresh: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut total = self.rows.len();
        for g in groups {
            match g.cluster {
                Some(ci) => {
                    total += g.rows.len();
                    appended[ci as usize] = g.rows;
                }
                None => {
                    let size = g.rows.len() + usize::from(g.old_singleton.is_some());
                    if size >= 2 {
                        total += size;
                        let mut rows = Vec::with_capacity(size);
                        // The promoted singleton (an old row id) precedes every
                        // batch row, keeping the interior ascending.
                        rows.extend(g.old_singleton);
                        rows.extend(g.rows);
                        fresh.push((rows[0], rows));
                    }
                }
            }
        }
        fresh.sort_unstable_by_key(|&(first, _)| first);
        // Canonical merge: existing clusters keep their order (their first
        // rows are unchanged — batch ids only ever land at the end), fresh
        // clusters slot in by first row.
        let mut rows = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(1 + self.cluster_count() + fresh.len());
        offsets.push(0u32);
        let mut fi = 0;
        for ci in 0..self.cluster_count() {
            let cluster = self.cluster(ci);
            while fi < fresh.len() && fresh[fi].0 < cluster[0] {
                rows.extend_from_slice(&fresh[fi].1);
                offsets.push(rows.len() as u32);
                fi += 1;
            }
            rows.extend_from_slice(cluster);
            rows.extend_from_slice(&appended[ci]);
            offsets.push(rows.len() as u32);
        }
        for (_, fresh_rows) in &fresh[fi..] {
            rows.extend_from_slice(fresh_rows);
            offsets.push(rows.len() as u32);
        }
        Some(Pli { rows, offsets, n_rows: new_n })
    }

    /// The trivial partition of the empty attribute set: one cluster holding
    /// every row (or none if the relation is smaller than two rows).
    pub fn trivial(n_rows: usize) -> Pli {
        if n_rows >= 2 {
            Pli { rows: (0..n_rows as u32).collect(), offsets: vec![0, n_rows as u32], n_rows }
        } else {
            Pli { rows: Vec::new(), offsets: vec![0], n_rows }
        }
    }

    /// Number of rows of the underlying relation.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Iterates over the clusters as slices of the row arena, in canonical
    /// (ascending-first-row) order; each cluster has size ≥ 2.
    #[inline]
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = &[u32]> + Clone + '_ {
        self.offsets.windows(2).map(|w| &self.rows[w[0] as usize..w[1] as usize])
    }

    /// The `i`-th cluster (canonical order).
    ///
    /// # Panics
    /// Panics if `i >= cluster_count()`.
    #[inline]
    pub fn cluster(&self, i: usize) -> &[u32] {
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of non-singleton clusters.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of rows covered by non-singleton clusters; everything else
    /// is a singleton in the partition. `O(1)` on the CSR layout.
    #[inline]
    pub fn covered_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct values (clusters plus implicit singletons).
    #[inline]
    pub fn distinct_values(&self) -> usize {
        self.cluster_count() + (self.n_rows - self.covered_rows())
    }

    /// Entropy (in bits) of the empirical distribution grouped by this
    /// partition's attribute set, per Eq. (5) of the paper:
    /// `H = log₂ N − (1/N) · Σ_groups |g|·log₂|g|`, where singleton groups
    /// contribute zero and are therefore absent from the stripped partition.
    /// Summation runs in canonical cluster order, so the value is
    /// bit-identical however the partition was built.
    pub fn entropy(&self) -> f64 {
        shannon_entropy(self.n_rows, self.offsets.windows(2).map(|w| f64::from(w[1] - w[0])))
    }

    /// Intersects this partition with another (computing the partition of
    /// `X ∪ Y` from the partitions of `X` and `Y`). Convenience wrapper
    /// around [`Pli::intersect_with`] that builds a throwaway scratch; hot
    /// paths should own an [`IntersectScratch`] and reuse it.
    pub fn intersect(&self, other: &Pli) -> Pli {
        let mut scratch = IntersectScratch::new();
        self.intersect_with(other, &mut scratch)
    }

    /// Stamps `scratch`'s probe table with this partition's cluster ids and
    /// returns the epoch used. Shared prologue of the two intersection modes.
    fn build_probe(&self, other: &Pli, scratch: &mut IntersectScratch) -> u32 {
        assert_eq!(
            self.n_rows, other.n_rows,
            "cannot intersect partitions over different relations"
        );
        scratch.prepare(self.n_rows, self.cluster_count(), 1 + other.cluster_count() as u64);
        let probe_epoch = scratch.next_epoch();
        for (ci, cluster) in self.clusters().enumerate() {
            for &row in cluster {
                scratch.probe_stamp[row as usize] = probe_epoch;
                scratch.probe_cluster[row as usize] = ci as u32;
            }
        }
        probe_epoch
    }

    /// Intersects into a freshly materialized partition using the standard
    /// probe-table algorithm (rows that are singletons in either input are
    /// singletons in the output and are skipped), with all transient state
    /// held in `scratch`. The output is the only allocation: two exact-size
    /// vectors, filled in canonical cluster order.
    pub fn intersect_with(&self, other: &Pli, scratch: &mut IntersectScratch) -> Pli {
        let probe_epoch = self.build_probe(other, scratch);
        scratch.bounds.clear();
        scratch.stage_rows.clear();
        for cluster in other.clusters() {
            let cluster_epoch = scratch.tally_cluster(cluster, probe_epoch);
            // Reserve a staging range per surviving group; demote singleton
            // groups by resetting their stamp (0 is never a live epoch).
            for &g in &scratch.touched {
                let g = g as usize;
                let count = scratch.group_count[g];
                if count >= 2 {
                    let start = scratch.stage_rows.len() as u32;
                    scratch.bounds.push((scratch.group_first[g], start, count));
                    scratch.group_cursor[g] = start;
                    scratch.stage_rows.resize(scratch.stage_rows.len() + count as usize, 0);
                } else {
                    scratch.group_stamp[g] = 0;
                }
            }
            for &row in cluster {
                if scratch.probe_stamp[row as usize] != probe_epoch {
                    continue;
                }
                let g = scratch.probe_cluster[row as usize] as usize;
                if scratch.group_stamp[g] == cluster_epoch {
                    scratch.stage_rows[scratch.group_cursor[g] as usize] = row;
                    scratch.group_cursor[g] += 1;
                }
            }
        }
        // Canonical order: ascending first row — the CSR equivalent of the
        // legacy representation's lexicographic cluster sort (clusters are
        // disjoint with ascending interiors, so first rows decide).
        scratch.bounds.sort_unstable_by_key(|&(first, _, _)| first);
        let mut rows = Vec::with_capacity(scratch.stage_rows.len());
        let mut offsets = Vec::with_capacity(scratch.bounds.len() + 1);
        offsets.push(0u32);
        for &(_, start, len) in &scratch.bounds {
            rows.extend_from_slice(&scratch.stage_rows[start as usize..(start + len) as usize]);
            offsets.push(rows.len() as u32);
        }
        Pli { rows, offsets, n_rows: self.n_rows }
    }

    /// The §6.3 count-only fast path: computes the non-singleton group sizes
    /// of `self ∩ other` — everything Eq. (5) needs — without materializing
    /// any TID list. Performs **zero heap allocations** once `scratch` has
    /// reached steady state. Sizes are reported in the canonical
    /// (ascending-first-row) cluster order of the partition that
    /// [`Pli::intersect_with`] would have built, so
    /// [`GroupSizes::entropy`] is bit-identical to materializing first.
    pub fn intersect_counts<'s>(
        &self,
        other: &Pli,
        scratch: &'s mut IntersectScratch,
    ) -> GroupSizes<'s> {
        let probe_epoch = self.build_probe(other, scratch);
        scratch.bounds.clear();
        for cluster in other.clusters() {
            scratch.tally_cluster(cluster, probe_epoch);
            for &g in &scratch.touched {
                let g = g as usize;
                if scratch.group_count[g] >= 2 {
                    scratch.bounds.push((scratch.group_first[g], scratch.group_count[g], 0));
                }
            }
        }
        scratch.bounds.sort_unstable_by_key(|&(first, _, _)| first);
        scratch.sizes.clear();
        scratch.sizes.extend(scratch.bounds.iter().map(|&(_, size, _)| size));
        GroupSizes { sizes: &scratch.sizes, n_rows: self.n_rows }
    }

    /// Memory footprint proxy: total number of row ids stored.
    pub fn size(&self) -> usize {
        self.covered_rows()
    }
}

/// Reusable transient state for partition intersections (probe table, group
/// accumulators, staging arena). All per-row / per-cluster arrays are
/// epoch-stamped — an entry is live only if its stamp equals the current
/// epoch — so nothing is cleared between calls; the epoch is bumped instead
/// (with a full reset on the rare `u32` wrap). After the first call at a
/// given relation size the scratch allocates nothing, which is what makes
/// the oracle's steady-state intersections allocation-free.
#[derive(Debug, Default)]
pub struct IntersectScratch {
    epoch: u32,
    /// Per-row: epoch stamp + cluster id of the probed (left) partition.
    probe_stamp: Vec<u32>,
    probe_cluster: Vec<u32>,
    /// Per-left-cluster: epoch stamp, group size, first row and write cursor
    /// of the refined group inside the current right-hand cluster.
    group_stamp: Vec<u32>,
    group_count: Vec<u32>,
    group_first: Vec<u32>,
    group_cursor: Vec<u32>,
    /// Left-cluster ids seen in the current right-hand cluster.
    touched: Vec<u32>,
    /// Staging cluster directory: `(first_row, start, len)` per group.
    bounds: Vec<(u32, u32, u32)>,
    /// Staging row arena (scattered in discovery order, re-emitted sorted).
    stage_rows: Vec<u32>,
    /// Group sizes handed out by [`Pli::intersect_counts`].
    sizes: Vec<u32>,
}

impl IntersectScratch {
    /// Creates an empty scratch; arrays are sized lazily on first use.
    pub fn new() -> Self {
        IntersectScratch::default()
    }

    /// Grows the stamped arrays to the given dimensions and resets the epoch
    /// counter if the upcoming `epochs_needed` bumps would wrap `u32`.
    fn prepare(&mut self, n_rows: usize, left_clusters: usize, epochs_needed: u64) {
        if self.probe_stamp.len() < n_rows {
            self.probe_stamp.resize(n_rows, 0);
            self.probe_cluster.resize(n_rows, 0);
        }
        if self.group_stamp.len() < left_clusters {
            self.group_stamp.resize(left_clusters, 0);
            self.group_count.resize(left_clusters, 0);
            self.group_first.resize(left_clusters, 0);
            self.group_cursor.resize(left_clusters, 0);
        }
        if self.epoch as u64 + epochs_needed >= u32::MAX as u64 {
            self.probe_stamp.fill(0);
            self.group_stamp.fill(0);
            self.epoch = 0;
        }
    }

    #[inline]
    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// The shared group-counting pass of both intersection modes: opens a
    /// fresh epoch for `cluster` (one right-hand cluster of an intersection)
    /// and tallies its rows by the probed left-hand cluster id, leaving
    /// `group_count`/`group_first` filled for every id listed in `touched`.
    /// Rows that are singletons on the left (stale probe stamp) are skipped.
    /// Returns the cluster's epoch so callers can recognize live entries.
    fn tally_cluster(&mut self, cluster: &[u32], probe_epoch: u32) -> u32 {
        let cluster_epoch = self.next_epoch();
        self.touched.clear();
        for &row in cluster {
            if self.probe_stamp[row as usize] != probe_epoch {
                continue;
            }
            let g = self.probe_cluster[row as usize] as usize;
            if self.group_stamp[g] != cluster_epoch {
                self.group_stamp[g] = cluster_epoch;
                self.group_count[g] = 1;
                self.group_first[g] = row;
                self.touched.push(g as u32);
            } else {
                self.group_count[g] += 1;
            }
        }
        cluster_epoch
    }
}

/// The non-singleton group sizes of a partition intersection, borrowed from
/// the scratch that computed them ([`Pli::intersect_counts`]). Carries
/// everything Eq. (5) needs; sizes are in canonical cluster order so
/// [`GroupSizes::entropy`] matches the materialized partition bit-for-bit.
#[derive(Debug)]
pub struct GroupSizes<'a> {
    sizes: &'a [u32],
    n_rows: usize,
}

impl GroupSizes<'_> {
    /// The group sizes (each ≥ 2), in canonical cluster order.
    #[inline]
    pub fn sizes(&self) -> &[u32] {
        self.sizes
    }

    /// Number of rows of the underlying relation.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of non-singleton groups.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.sizes.len()
    }

    /// Total rows covered by non-singleton groups.
    #[inline]
    pub fn covered_rows(&self) -> usize {
        self.sizes.iter().map(|&s| s as usize).sum()
    }

    /// Entropy per Eq. (5), summed in canonical cluster order — bit-identical
    /// to [`Pli::entropy`] on the partition [`Pli::intersect_with`] builds.
    pub fn entropy(&self) -> f64 {
        shannon_entropy(self.n_rows, self.sizes.iter().map(|&s| f64::from(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Relation, Schema};

    fn sample() -> Relation {
        // Matches Figure 7 of the paper (the getEntropy example).
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        Relation::from_rows(
            schema,
            &[
                vec!["a1", "b2", "c3"],
                vec!["a2", "b1", "c1"],
                vec!["a2", "b2", "c2"],
                vec!["a3", "b3", "c3"],
                vec!["a3", "b3", "c4"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_column_partitions_match_figure_7() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0).unwrap();
        // A: a2 -> {t2,t3}, a3 -> {t4,t5}; a1 is a singleton.
        assert_eq!(a.cluster_count(), 2);
        assert_eq!(a.covered_rows(), 4);
        assert_eq!(a.distinct_values(), 3);
        assert_eq!(a.cluster(0), &[1, 2]);
        assert_eq!(a.cluster(1), &[3, 4]);
        let c = Pli::from_column(&rel, 2).unwrap();
        // C: c3 -> {t1,t4}; the rest are singletons.
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.distinct_values(), 4);
    }

    #[test]
    fn from_attrs_matches_from_column_for_singletons() {
        let rel = sample();
        for attr in 0..3 {
            let a = Pli::from_column(&rel, attr).unwrap();
            let b = Pli::from_attrs(&rel, AttrSet::singleton(attr)).unwrap();
            assert_eq!(a, b, "CSR partitions must agree exactly, attr {attr}");
            assert_eq!(a.entropy(), b.entropy());
        }
    }

    #[test]
    fn from_column_on_all_distinct_column_has_no_clusters() {
        // High-cardinality edge: every value is a singleton, so the counting
        // pass must produce an empty arena (the old per-code bucket build
        // allocated one Vec per row here).
        let schema = Schema::new(["K", "V"]).unwrap();
        let rows: Vec<Vec<String>> =
            (0..1000).map(|i| vec![format!("k{i}"), format!("v{}", i % 3)]).collect();
        let rel = Relation::from_rows(schema, &rows).unwrap();
        assert_eq!(rel.column_cardinality(0), 1000);
        let p = Pli::from_column(&rel, 0).unwrap();
        assert_eq!(p.cluster_count(), 0);
        assert_eq!(p.covered_rows(), 0);
        assert_eq!(p.distinct_values(), 1000);
        assert!((p.entropy() - 1000f64.log2()).abs() < 1e-12);
        assert_eq!(p, Pli::from_attrs(&rel, AttrSet::singleton(0)).unwrap());
    }

    #[test]
    fn intersection_matches_direct_computation() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0).unwrap();
        let b = Pli::from_column(&rel, 1).unwrap();
        let ab = a.intersect(&b);
        let direct = Pli::from_attrs(&rel, [0usize, 1].into_iter().collect()).unwrap();
        assert_eq!(ab, direct, "intersection and direct build agree exactly");
        assert_eq!(ab.entropy(), direct.entropy());
        // Figure 7: AB has a single non-singleton cluster {t4, t5}.
        assert_eq!(ab.cluster_count(), 1);
        assert_eq!(ab.cluster(0), &[3, 4]);
    }

    #[test]
    fn intersection_is_commutative() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0).unwrap();
        let c = Pli::from_column(&rel, 2).unwrap();
        let ac = a.intersect(&c);
        let ca = c.intersect(&a);
        assert_eq!(ac, ca, "canonical cluster order makes intersection commutative");
        assert_eq!(ac.entropy(), ca.entropy());
    }

    #[test]
    fn count_only_matches_materialized_intersection() {
        let rel = sample();
        let mut scratch = IntersectScratch::new();
        for (x, y) in [(0usize, 1usize), (0, 2), (1, 2)] {
            let a = Pli::from_column(&rel, x).unwrap();
            let b = Pli::from_column(&rel, y).unwrap();
            let materialized = a.intersect_with(&b, &mut scratch);
            let expected_sizes: Vec<u32> =
                materialized.clusters().map(|c| c.len() as u32).collect();
            let expected_entropy = materialized.entropy();
            let counts = a.intersect_counts(&b, &mut scratch);
            assert_eq!(counts.sizes(), expected_sizes.as_slice(), "attrs ({x},{y})");
            assert_eq!(counts.covered_rows(), materialized.covered_rows());
            assert_eq!(counts.cluster_count(), materialized.cluster_count());
            assert_eq!(counts.entropy().to_bits(), expected_entropy.to_bits());
        }
    }

    #[test]
    fn scratch_reuse_across_calls_and_relations_is_sound() {
        // One scratch serving partitions of different shapes and relations
        // must behave exactly like a fresh scratch each time.
        let rel = sample();
        let schema = Schema::new(["X", "Y"]).unwrap();
        let other_rel = Relation::from_rows(
            schema,
            &[vec!["0", "p"], vec!["0", "p"], vec!["1", "q"], vec!["1", "p"]],
        )
        .unwrap();
        let mut scratch = IntersectScratch::new();
        for _ in 0..3 {
            for (r, n_cols) in [(&rel, 3usize), (&other_rel, 2usize)] {
                for x in 0..n_cols {
                    for y in 0..n_cols {
                        let a = Pli::from_column(r, x).unwrap();
                        let b = Pli::from_column(r, y).unwrap();
                        assert_eq!(a.intersect_with(&b, &mut scratch), a.intersect(&b));
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_epoch_wrap_resets_cleanly() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0).unwrap();
        let b = Pli::from_column(&rel, 1).unwrap();
        let mut scratch = IntersectScratch::new();
        let expected = a.intersect(&b);
        // Poison the scratch with a near-overflow epoch; prepare() must reset
        // the stamps rather than wrap into stale-stamp collisions.
        scratch.epoch = u32::MAX - 2;
        assert_eq!(a.intersect_with(&b, &mut scratch), expected);
        assert_eq!(a.intersect_with(&b, &mut scratch), expected);
        assert_eq!(a.intersect_counts(&b, &mut scratch).entropy(), expected.entropy());
    }

    #[test]
    fn trivial_partition_entropy_is_zero() {
        let p = Pli::trivial(10);
        assert_eq!(p.cluster_count(), 1);
        assert!(p.entropy().abs() < 1e-12);
        let small = Pli::trivial(1);
        assert_eq!(small.cluster_count(), 0);
        assert_eq!(small.entropy(), 0.0);
        let empty = Pli::trivial(0);
        assert_eq!(empty.entropy(), 0.0);
    }

    #[test]
    fn entropy_of_key_attribute_set_is_log_n() {
        let rel = sample();
        // ABC together identify every tuple: entropy = log2(5).
        let p = Pli::from_attrs(&rel, AttrSet::full(3)).unwrap();
        assert!((p.entropy() - (5f64).log2()).abs() < 1e-12);
        assert_eq!(p.cluster_count(), 0);
    }

    #[test]
    fn entropy_of_uniform_two_groups_is_one_bit() {
        let schema = Schema::new(["X"]).unwrap();
        let rel =
            Relation::from_rows(schema, &[vec!["0"], vec!["0"], vec!["1"], vec!["1"]]).unwrap();
        let p = Pli::from_column(&rel, 0).unwrap();
        assert!((p.entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intersect_with_trivial_is_identity_on_entropy() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0).unwrap();
        let t = Pli::trivial(rel.n_rows());
        let both = a.intersect(&t);
        assert_eq!(both.entropy(), a.entropy());
        let flipped = t.intersect(&a);
        assert_eq!(flipped, both);
    }

    #[test]
    #[should_panic(expected = "different relations")]
    fn intersecting_mismatched_sizes_panics() {
        let a = Pli::trivial(3);
        let b = Pli::trivial(4);
        let _ = a.intersect(&b);
    }

    #[test]
    fn size_reports_covered_rows() {
        let rel = sample();
        let a = Pli::from_column(&rel, 0).unwrap();
        assert_eq!(a.size(), 4);
    }

    #[test]
    fn extended_matches_from_scratch_on_every_attr_subset() {
        // The batch exercises every delta case at once: rows extending an
        // existing cluster ("a2"/"a3"), an old singleton promoted into a new
        // cluster (row t0's "a1"/"b2"/"c3" values recur), brand-new values
        // opening batch-only clusters ("a9"), and batch-only duplicates.
        let old = sample();
        let batch: Vec<Vec<&str>> = vec![
            vec!["a2", "b2", "c2"],
            vec!["a1", "b2", "c3"],
            vec!["a9", "b9", "c9"],
            vec!["a9", "b9", "c9"],
            vec!["a3", "b1", "c4"],
        ];
        let mut new = old.clone();
        new.append_rows(&batch).unwrap();
        for bits in 1u32..8 {
            let attrs: AttrSet = (0..3usize).filter(|c| bits & (1 << c) != 0).collect();
            let before = Pli::from_attrs(&old, attrs).unwrap();
            let delta = before.extended(&old, &new, attrs).expect("tiny cardinalities fold");
            let scratch_build = Pli::from_attrs(&new, attrs).unwrap();
            assert_eq!(delta, scratch_build, "attrs {attrs:?}");
            assert_eq!(delta.entropy().to_bits(), scratch_build.entropy().to_bits());
        }
    }

    #[test]
    fn extended_empty_batch_is_identity() {
        let rel = sample();
        let p = Pli::from_column(&rel, 0).unwrap();
        let same = p.extended(&rel, &rel, AttrSet::singleton(0)).unwrap();
        assert_eq!(same, p);
    }

    #[test]
    fn extended_none_on_fold_overflow() {
        // 12 columns of cardinality 64 overflow the u64 fold (see the
        // fallback test above); the delta path must decline, not mis-key.
        let cols = 12usize;
        let schema = Schema::with_arity(cols).unwrap();
        let columns: Vec<Vec<u32>> = (0..cols)
            .map(|c| (0..128u32).map(|r| (r * 7 + c as u32 * 13) % 64).collect())
            .collect();
        let rel = Relation::from_code_columns(schema, columns).unwrap();
        let full = AttrSet::full(cols);
        let p = Pli::from_attrs(&rel, full).unwrap();
        let mut grown = rel.clone();
        grown.append_rows(&[rel.row(0)]).unwrap();
        assert!(p.extended(&rel, &grown, full).is_none());
    }

    #[test]
    fn from_attrs_vector_key_fallback_matches_reference_grouping() {
        // 12 columns of cardinality 64 defeat the u64 fold (64^12 = 2^72),
        // forcing `from_attrs` onto the Vec<u32>-key fallback branch. Rows r
        // and r + 64 agree on every column by construction, so the grouping
        // is non-trivial: 64 clusters of exactly two rows.
        let cols = 12usize;
        let schema = Schema::with_arity(cols).unwrap();
        let columns: Vec<Vec<u32>> = (0..cols)
            .map(|c| (0..128u32).map(|r| (r * 7 + c as u32 * 13) % 64).collect())
            .collect();
        let rel = Relation::from_code_columns(schema, columns).unwrap();
        let full = AttrSet::full(cols);
        assert!(rel.key_fold(full).is_none(), "the fold must overflow for this test to bite");

        let pli = Pli::from_attrs(&rel, full).unwrap();
        // Reference grouping: the legacy hash-map-and-sort algorithm.
        let mut groups: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
        for r in 0..rel.n_rows() {
            groups.entry(rel.key(r, full)).or_default().push(r as u32);
        }
        let mut expected: Vec<Vec<u32>> = groups.into_values().filter(|g| g.len() >= 2).collect();
        expected.sort();
        assert_eq!(expected.len(), 64);
        assert!(expected.iter().all(|g| g.len() == 2));
        let got: Vec<Vec<u32>> = pli.clusters().map(|c| c.to_vec()).collect();
        assert_eq!(got, expected);
        // A foldable sub-projection of the same relation goes down the fold
        // path; both paths must agree where they overlap.
        let narrow: AttrSet = [0usize, 1].into_iter().collect();
        assert!(rel.key_fold(narrow).is_some());
        let fold_path = Pli::from_attrs(&rel, narrow).unwrap();
        let mut narrow_groups: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
        for r in 0..rel.n_rows() {
            narrow_groups.entry(rel.key(r, narrow)).or_default().push(r as u32);
        }
        let mut narrow_expected: Vec<Vec<u32>> =
            narrow_groups.into_values().filter(|g| g.len() >= 2).collect();
        narrow_expected.sort();
        let narrow_got: Vec<Vec<u32>> = fold_path.clusters().map(|c| c.to_vec()).collect();
        assert_eq!(narrow_got, narrow_expected);
    }
}
