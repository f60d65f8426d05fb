//! The multi-version store.
//!
//! A [`MvStore`] maps [`RowRef`]s to version chains. Each version carries a
//! write timestamp; a read at timestamp `t` observes the newest version whose
//! write timestamp is `<= t`. The store holds versions and nothing else: a
//! primary's concurrency control (the MVTSO engine's read timestamps, the 2PL
//! engine's locks) lives in that primary, and a backup's per-row order check
//! is [`MvStore::install_if_prev`]'s comparison with the chain head.
//!
//! The store is sharded: rows are spread over a fixed number of shards, each
//! protected by a `parking_lot::RwLock`. The C5 workers only ever touch one
//! row at a time, so per-shard locking gives them the row-granularity
//! parallelism the protocol is designed to exploit while keeping the
//! implementation dependency-light.
//!
//! A row is hashed once per operation, with [`RowHasher`]: bits 32–39 of its
//! hash pick the shard, and the shard's [`RowMap`] uses the low bits (bucket)
//! and the top bits (tag) of the same hash, so the two never correlate. Each
//! shard also keeps a per-table list of the keys it holds, appended to when
//! a row's chain is created, so a table scan visits only that table's rows;
//! scans sort what they collect, which is what makes their output key-sorted.
//!
//! Every version below a chain's head lives in its shard's slab, one
//! `Vec` of 32-byte slots with a free list threaded through it, so a row's
//! versions cost no heap block of their own: an install takes a slot (a
//! freed one first), a trim returns slots, and dropping the store frees one
//! block per shard. `VersionChain` explains the links.
//!
//! Version garbage is collected where it is written. The store holds one GC
//! horizon, raised by whoever exposes a prefix of the installs
//! ([`raise_gc_horizon`](MvStore::raise_gc_horizon)); every install trims
//! its own chain to that horizon while it holds the row's shard lock, so a
//! chain never outgrows the writes above the horizon at its last install
//! plus one version at or below it. The trim runs before the new version
//! goes in, so a replica's steady-state rewrite hands the slot it frees
//! straight to the head it displaces and allocates nothing. The horizon
//! starts at zero, which never trims: a store nobody raises it on (a
//! primary's) keeps every version. [`gc`](MvStore::gc) is the full vacuum,
//! for rows not written again.

use std::collections::hash_map::Entry;
use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use c5_common::{IdMap, Key, RowHasher, RowMap, RowRef, TableId, Timestamp, Value, WriteKind};

/// Number of shards. More shards means less lock contention between workers
/// touching unrelated rows.
const SHARDS: usize = 256;

/// A slab index that names no slot: past a chain's oldest version, or the
/// end of the free list.
const NIL: u32 = u32::MAX;

/// A [`Slot::newer`] link not recorded yet.
const UNKNOWN: u32 = u32::MAX - 1;

/// A single row version.
#[derive(Debug)]
struct Version {
    /// Commit timestamp of the transaction that produced this version.
    write_ts: Timestamp,
    /// The payload; `None` is a delete marker.
    value: Option<Value>,
}

/// A version below its chain's head, in its shard's [`Slab`].
#[derive(Debug)]
struct Slot {
    version: Version,
    /// The next older version of the chain, `NIL` below its oldest. A free
    /// slot's `older` is the next free slot instead.
    older: u32,
    /// The next newer version of the chain, or `UNKNOWN`. An in-order
    /// install writes only the slot it fills, so it cannot record this link
    /// on the slot below; the first trim that needs a link records every one
    /// it walks past (see [`VersionChain`]). A chain's newest slot's link is
    /// always `UNKNOWN`: the version above it is the head.
    newer: u32,
}

/// One shard's versions below their chains' heads, with a free list threaded
/// through the free slots' `older` links.
///
/// A slab never shrinks while its store lives: it is as long as the most
/// non-head versions its shard ever held at once, and the store's drop frees
/// it as one block. Indices are `u32`, so a shard holds at most 2³²−2
/// non-head versions (the two largest values are `NIL` and `UNKNOWN`);
/// [`alloc`](Self::alloc) asserts it.
#[derive(Debug)]
struct Slab {
    slots: Vec<Slot>,
    /// The first free slot, `NIL` when none is.
    free: u32,
}

impl Default for Slab {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: NIL,
        }
    }
}

impl Index<u32> for Slab {
    type Output = Slot;

    fn index(&self, slot: u32) -> &Slot {
        &self.slots[slot as usize]
    }
}

impl IndexMut<u32> for Slab {
    fn index_mut(&mut self, slot: u32) -> &mut Slot {
        &mut self.slots[slot as usize]
    }
}

impl Slab {
    /// Stores `version` in a free slot, or in a new one when none is free.
    fn alloc(&mut self, version: Version, older: u32, newer: u32) -> u32 {
        let filled = Slot {
            version,
            older,
            newer,
        };
        if self.free != NIL {
            let slot = self.free;
            self.free = self[slot].older;
            self[slot] = filled;
            return slot;
        }
        assert!(
            self.slots.len() < UNKNOWN as usize,
            "a store shard holds at most 2^32 - 2 versions below its heads"
        );
        self.slots.push(filled);
        self.slots.len() as u32 - 1
    }

    /// Puts `slot` on the free list and hands back its value.
    fn release(&mut self, slot: u32) -> Option<Value> {
        self[slot].older = self.free;
        self.free = slot;
        self[slot].version.value.take()
    }
}

/// The values a trim took out of the slab, dropped once the shard lock is
/// released. Most trims free one version, which needs no allocation.
#[derive(Default)]
struct Garbage {
    first: Option<Value>,
    rest: Vec<Value>,
}

impl Garbage {
    fn push(&mut self, value: Option<Value>) {
        match (value, &self.first) {
            (None, _) => {}
            (Some(value), None) => self.first = Some(value),
            (Some(value), Some(_)) => self.rest.push(value),
        }
    }
}

/// A row's versions: the newest inline in the map slot, older ones in the
/// shard's [`Slab`], linked from `newest` down to `oldest`.
///
/// A chain exists only once its first version is installed, so it always has
/// a head. Most rows only ever have one version, so keeping the head inline
/// means creating a row allocates nothing, and the common read and
/// `install_if_prev`'s `prev == head` check touch only the slot the hash
/// lookup already fetched. A read below the head walks the `older` links
/// down from `newest`, as does an out-of-order install looking for its
/// place. A trim frees from `oldest` up, along the `newer` links. Those are
/// recorded lazily: known links always form a run from `oldest` up, and the
/// first trim to need an unknown one walks down from `newest` once and
/// records every link it passes, so each link is recorded about once.
#[derive(Debug)]
struct VersionChain {
    /// The version with the largest write timestamp.
    head: Version,
    /// The slot of the newest version below `head`, `NIL` when none is.
    newest: u32,
    /// The slot of the oldest version, `NIL` when only the head is left.
    oldest: u32,
}

impl VersionChain {
    fn new(head: Version) -> Self {
        Self {
            head,
            newest: NIL,
            oldest: NIL,
        }
    }

    /// Returns the newest version with `write_ts <= ts`.
    fn version_at<'a>(&'a self, slab: &'a Slab, ts: Timestamp) -> Option<&'a Version> {
        if self.head.write_ts <= ts {
            return Some(&self.head);
        }
        // Search from the newest end because reads overwhelmingly target
        // recent versions.
        self.below(slab)
            .map(|slot| &slab[slot].version)
            .find(|v| v.write_ts <= ts)
    }

    /// The slots of the versions below the head, newest first.
    fn below<'a>(&self, slab: &'a Slab) -> impl Iterator<Item = u32> + 'a {
        let linked = |slot: u32| (slot != NIL).then_some(slot);
        std::iter::successors(linked(self.newest), move |&slot| linked(slab[slot].older))
    }

    /// Number of versions held.
    fn len(&self, slab: &Slab) -> usize {
        1 + self.below(slab).count()
    }

    /// Inserts a version, keeping the ascending order; a version whose
    /// timestamp equals an existing one's goes after it. The common case
    /// replaces the head (per-row writes arrive in timestamp order on both
    /// the primary and, thanks to the C5 scheduler, the backup) and writes
    /// one slot; out-of-order installs are still handled correctly because
    /// the MVTSO primary may commit transactions whose timestamps interleave
    /// across threads.
    fn insert(&mut self, slab: &mut Slab, version: Version) {
        if self.head.write_ts <= version.write_ts {
            let displaced = std::mem::replace(&mut self.head, version);
            let slot = slab.alloc(displaced, self.newest, UNKNOWN);
            if self.oldest == NIL {
                self.oldest = slot;
            }
            self.newest = slot;
            return;
        }
        // Walk down to the first version at or below the new one; it goes
        // between `lower` and `upper` (`NIL`: the head).
        let (mut upper, mut lower) = (NIL, self.newest);
        while lower != NIL && slab[lower].version.write_ts > version.write_ts {
            upper = lower;
            lower = slab[lower].older;
        }
        // The new slot's link up is known where its lower neighbour's was
        // (or where it becomes the oldest), which keeps the known links a
        // run from the oldest; the newest slot's link is never known.
        let linked = upper != NIL && (lower == NIL || slab[lower].newer != UNKNOWN);
        let slot = slab.alloc(version, lower, if linked { upper } else { UNKNOWN });
        if lower == NIL {
            self.oldest = slot;
        } else if linked {
            slab[lower].newer = slot;
        }
        if upper == NIL {
            self.newest = slot;
        } else {
            slab[upper].older = slot;
        }
    }

    /// The slot above `slot`, a slot below `newest`, recording the `newer`
    /// links from `newest` down to it if they are not known yet.
    fn newer(&self, slab: &mut Slab, slot: u32) -> u32 {
        if slab[slot].newer == UNKNOWN {
            // Every slot between `newest` and `slot` is unknown too: known
            // links run from the oldest up.
            let mut upper = self.newest;
            while upper != slot {
                let lower = slab[upper].older;
                slab[lower].newer = upper;
                upper = lower;
            }
        }
        slab[slot].newer
    }

    /// Frees every version no read at or after `horizon` can observe: all
    /// below the newest version with `write_ts <= horizon`, so the head
    /// always stays. Their values go to `garbage`; returns how many went.
    fn trim(&mut self, slab: &mut Slab, horizon: Timestamp, garbage: &mut Garbage) -> usize {
        let mut freed = 0;
        if self.head.write_ts <= horizon {
            while self.newest != NIL {
                let slot = self.newest;
                self.newest = slab[slot].older;
                garbage.push(slab.release(slot));
                freed += 1;
            }
            self.oldest = NIL;
            return freed;
        }
        // The head is above the horizon, so the newest slot is the last
        // that can go, and only when the slot above it is at or below.
        while self.oldest != self.newest {
            let next = self.newer(slab, self.oldest);
            if slab[next].version.write_ts > horizon {
                break;
            }
            garbage.push(slab.release(self.oldest));
            slab[next].older = NIL;
            self.oldest = next;
            freed += 1;
        }
        freed
    }
}

/// One shard's state: the row chains, their older versions' slab, and a
/// per-table key index.
///
/// The index makes table scans proportional to the *table's* rows in the
/// shard instead of every row of every table. It is append-only and in
/// creation order: a key is pushed exactly once, when its chain is created
/// by its first version, and chains are never removed (a delete installs a
/// version without a value and GC always keeps a chain's newest version), so
/// it can hold neither a duplicate nor a stale key. Order is the scans' job
/// — they sort what they collect.
#[derive(Debug, Default)]
struct ShardState {
    rows: RowMap<VersionChain>,
    slab: Slab,
    tables: IdMap<TableId, Vec<Key>>,
}

type Shard = RwLock<ShardState>;

/// One row's newest version at a cut, as exported by
/// [`MvStore::export_versions_at`] (the raw material of a checkpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionExport {
    /// The row.
    pub row: RowRef,
    /// The version's commit timestamp (a log position on a backup).
    pub write_ts: Timestamp,
    /// The payload; `None` is a delete marker.
    pub value: Option<Value>,
}

/// Aggregate statistics about a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvStoreStats {
    /// Number of distinct rows (live or deleted) written at least once: one
    /// per chain, since a chain exists only once a version is installed.
    pub rows: usize,
    /// Total number of versions retained across all chains.
    pub versions: usize,
}

/// The sharded multi-version store.
pub struct MvStore {
    shards: Vec<Shard>,
    /// The GC horizon installs trim to; zero trims nothing (see the
    /// [module docs](self)). It guards no other data: a stale load is a
    /// lower horizon, which only trims less.
    gc_horizon: AtomicU64,
}

impl std::fmt::Debug for MvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("MvStore")
            .field("shards", &self.shards.len())
            .field("rows", &stats.rows)
            .field("versions", &stats.versions)
            .finish()
    }
}

impl Default for MvStore {
    /// An empty store.
    fn default() -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(ShardState::default()))
                .collect(),
            gc_horizon: AtomicU64::new(0),
        }
    }
}

impl MvStore {
    /// Bits 32–39 of the row's hash: the shard's map uses other bits of the
    /// same hash (see the [module docs](self)).
    fn shard_index(&self, row: RowRef) -> usize {
        (RowHasher::hash_row(row) >> 32) as usize % SHARDS
    }

    fn shard_for(&self, row: RowRef) -> &Shard {
        &self.shards[self.shard_index(row)]
    }

    /// Raises the GC horizon to `horizon` (never lowers it). From then on an
    /// install trims its row's chain to the horizon: nothing a read at or
    /// after it can observe goes. Whoever raises it promises that no reader
    /// will read below it.
    pub fn raise_gc_horizon(&self, horizon: Timestamp) {
        self.gc_horizon
            .fetch_max(horizon.as_u64(), Ordering::Release);
    }

    /// The GC horizon installs trim to (zero: none).
    pub fn gc_horizon(&self) -> Timestamp {
        Timestamp(self.gc_horizon.load(Ordering::Acquire))
    }

    /// Reads the newest version of `row` visible at timestamp `ts`.
    /// Returns `None` if the row does not exist at that timestamp or is
    /// deleted there.
    pub fn read_at(&self, row: RowRef, ts: Timestamp) -> Option<Value> {
        let shard = self.shard_for(row).read();
        shard
            .rows
            .get(&row)?
            .version_at(&shard.slab, ts)?
            .value
            .clone()
    }

    /// Reads the newest committed version of `row`.
    pub fn read_latest(&self, row: RowRef) -> Option<Value> {
        self.read_at(row, Timestamp::MAX)
    }

    /// Latest write timestamp of `row`, or `Timestamp::ZERO` if the row has
    /// never been written. This is the check C5-Cicada's workers use against
    /// each log record's `prev_timestamp` (Section 7.2).
    pub fn latest_write_ts(&self, row: RowRef) -> Timestamp {
        let shard = self.shard_for(row).read();
        shard
            .rows
            .get(&row)
            .map_or(Timestamp::ZERO, |c| c.head.write_ts)
    }

    /// Installs a version of `row` at timestamp `ts`. This is the primitive
    /// used by both the primary's commit step and the backup's workers; it
    /// never fails (the log is authoritative — if it says the row was
    /// written, the backup must apply it).
    pub fn install(&self, row: RowRef, ts: Timestamp, kind: WriteKind, value: Option<Value>) {
        self.install_if(row, ts, kind, value, |_| true);
    }

    /// Installs a version only if the row's current latest write timestamp
    /// equals `prev_ts` (`Timestamp::ZERO` for a row never written). Returns
    /// `true` if installed; a refused write leaves the store as it was, and
    /// creates no chain for a row never written. This is the atomic "is this
    /// write safe to execute" check-and-install used by C5-Cicada's workers:
    /// a write is safe when the version at the head of the chain is the one
    /// named by the log record's `prev_timestamp` (Section 7.2).
    pub fn install_if_prev(
        &self,
        row: RowRef,
        prev_ts: Timestamp,
        ts: Timestamp,
        kind: WriteKind,
        value: Option<Value>,
    ) -> bool {
        self.install_if(row, ts, kind, value, |latest| latest == prev_ts)
    }

    /// The one install path: installs a version of `row` at `ts` if `admit`
    /// accepts the row's latest write timestamp (`Timestamp::ZERO` for a row
    /// never written). A row's first version creates (and indexes) its
    /// chain; a refused version creates nothing. A write of `kind` carries a
    /// value exactly when it is not a delete, so the version keeps only the
    /// value. On a store with a GC horizon, an install trims its chain to it
    /// before the version goes in, so the slot a trim frees takes the
    /// displaced head, and again after when the version itself is at or
    /// below the horizon (see the [module docs](self)); the trimmed values
    /// are dropped after the shard lock is released, so freeing never holds
    /// up another install.
    fn install_if(
        &self,
        row: RowRef,
        ts: Timestamp,
        kind: WriteKind,
        value: Option<Value>,
        admit: impl FnOnce(Timestamp) -> bool,
    ) -> bool {
        debug_assert!(kind.carries_value() == value.is_some());
        let version = Version {
            write_ts: ts,
            value,
        };
        // Loaded before the lock: a stale horizon is a lower one, which only
        // trims less.
        let horizon = self.gc_horizon();
        let mut shard = self.shard_for(row).write();
        let ShardState { rows, slab, tables } = &mut *shard;
        let mut garbage = Garbage::default();
        match rows.entry(row) {
            Entry::Occupied(chain) => {
                if !admit(chain.get().head.write_ts) {
                    return false;
                }
                let chain = chain.into_mut();
                let trims = horizon > Timestamp::ZERO;
                if trims {
                    chain.trim(slab, horizon, &mut garbage);
                }
                chain.insert(slab, version);
                // A version above the horizon leaves the newest version at
                // or below it where it was, so only one at or below trims
                // more.
                if trims && ts <= horizon {
                    chain.trim(slab, horizon, &mut garbage);
                }
            }
            Entry::Vacant(slot) => {
                if !admit(Timestamp::ZERO) {
                    return false;
                }
                tables.entry(row.table).or_default().push(row.key);
                slot.insert(VersionChain::new(version));
            }
        }
        drop(shard);
        drop(garbage);
        true
    }

    /// Garbage-collects versions that are no longer visible to any reader at
    /// or after `horizon`, in every chain: the vacuum for rows that are not
    /// written again (installs trim the rest). Returns the number of
    /// versions reclaimed.
    pub fn gc(&self, horizon: Timestamp) -> usize {
        let mut reclaimed = 0;
        for shard in &self.shards {
            let mut garbage = Garbage::default();
            let mut shard = shard.write();
            let ShardState { rows, slab, .. } = &mut *shard;
            for chain in rows.values_mut() {
                reclaimed += chain.trim(slab, horizon, &mut garbage);
            }
            drop(shard);
            drop(garbage);
        }
        reclaimed
    }

    /// Key-sorted scan of all live rows of `table` visible at `ts`.
    ///
    /// The per-table index restricts the scan to the table's own rows (a
    /// whole-store sweep before it existed), and the output order is
    /// deterministic, so scan results can be compared directly against a
    /// reference replay.
    pub fn scan_table_at(&self, table: TableId, ts: Timestamp) -> Vec<(RowRef, Value)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            let Some(keys) = shard.tables.get(&table) else {
                continue;
            };
            for &key in keys {
                let row = RowRef { table, key };
                let chain = &shard.rows[&row];
                if let Some(value) = chain
                    .version_at(&shard.slab, ts)
                    .and_then(|v| v.value.as_ref())
                {
                    out.push((row, value.clone()));
                }
            }
        }
        out.sort_unstable_by_key(|(row, _)| *row);
        out
    }

    /// Scans all live rows visible at `ts`, across every table, sorted by
    /// `(table, key)`. Used by the monotonic-prefix-consistency checker to
    /// compare the backup's exposed state against the reference replay.
    pub fn scan_all_at(&self, ts: Timestamp) -> Vec<(RowRef, Value)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for (row, chain) in shard.rows.iter() {
                if let Some(value) = chain
                    .version_at(&shard.slab, ts)
                    .and_then(|v| v.value.as_ref())
                {
                    out.push((*row, value.clone()));
                }
            }
        }
        out.sort_unstable_by_key(|(row, _)| *row);
        out
    }

    /// Exports, for every row, the newest version visible at `ts`,
    /// *including deletes* and their write timestamps. This is the
    /// checkpoint primitive: unlike [`scan_all_at`](Self::scan_all_at), the
    /// export preserves enough of each chain head for a fresh store to
    /// resume per-row ordered apply (`install_if_prev` checks the head's
    /// timestamp, and a deleted row's next write names the delete).
    /// Rows whose first version lies above `ts` are skipped.
    ///
    /// The export is per-row consistent under concurrent installs (a version
    /// at or below the cut never changes), but the caller must keep the GC
    /// horizon at or below `ts` for the duration — a horizon that overtakes
    /// the cut may collect the very version the export needs.
    pub fn export_versions_at(&self, ts: Timestamp) -> Vec<VersionExport> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for (row, chain) in shard.rows.iter() {
                if let Some(v) = chain.version_at(&shard.slab, ts) {
                    out.push(VersionExport {
                        row: *row,
                        write_ts: v.write_ts,
                        value: v.value.clone(),
                    });
                }
            }
        }
        out
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MvStoreStats {
        let mut rows = 0;
        let mut versions = 0;
        for shard in &self.shards {
            let shard = shard.read();
            rows += shard.rows.len();
            versions += shard
                .rows
                .values()
                .map(|chain| chain.len(&shard.slab))
                .sum::<usize>();
        }
        MvStoreStats { rows, versions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn store() -> MvStore {
        MvStore::default()
    }

    #[test]
    fn read_at_sees_timestamp_ordered_history() {
        let s = store();
        let row = RowRef::new(1, 1);
        s.install(
            row,
            Timestamp(10),
            WriteKind::Insert,
            Some(Value::from_u64(1)),
        );
        s.install(
            row,
            Timestamp(20),
            WriteKind::Update,
            Some(Value::from_u64(2)),
        );
        s.install(
            row,
            Timestamp(30),
            WriteKind::Update,
            Some(Value::from_u64(3)),
        );

        assert_eq!(s.read_at(row, Timestamp(5)), None);
        assert_eq!(s.read_at(row, Timestamp(10)).unwrap().as_u64(), Some(1));
        assert_eq!(s.read_at(row, Timestamp(25)).unwrap().as_u64(), Some(2));
        assert_eq!(s.read_latest(row).unwrap().as_u64(), Some(3));
    }

    #[test]
    fn delete_produces_tombstone_visibility() {
        let s = store();
        let row = RowRef::new(1, 7);
        s.install(
            row,
            Timestamp(1),
            WriteKind::Insert,
            Some(Value::from_u64(9)),
        );
        s.install(row, Timestamp(2), WriteKind::Delete, None);
        assert!(s.read_at(row, Timestamp(1)).is_some());
        assert!(s.read_at(row, Timestamp(2)).is_none());
        assert_eq!(s.read_latest(row), None);
    }

    #[test]
    fn out_of_order_install_is_sorted() {
        let s = store();
        let row = RowRef::new(1, 1);
        s.install(
            row,
            Timestamp(20),
            WriteKind::Insert,
            Some(Value::from_u64(20)),
        );
        s.install(
            row,
            Timestamp(10),
            WriteKind::Insert,
            Some(Value::from_u64(10)),
        );
        assert_eq!(s.read_at(row, Timestamp(15)).unwrap().as_u64(), Some(10));
        assert_eq!(s.read_latest(row).unwrap().as_u64(), Some(20));
    }

    #[test]
    fn install_if_prev_enforces_per_row_order() {
        let s = store();
        let row = RowRef::new(1, 1);
        // prev_ts = 0 means "first write to the row".
        assert!(s.install_if_prev(
            row,
            Timestamp::ZERO,
            Timestamp(5),
            WriteKind::Insert,
            Some(Value::from_u64(1))
        ));
        // A write whose predecessor has not been installed yet must be deferred.
        assert!(!s.install_if_prev(
            row,
            Timestamp(7),
            Timestamp(9),
            WriteKind::Update,
            Some(Value::from_u64(3))
        ));
        // The in-order successor applies.
        assert!(s.install_if_prev(
            row,
            Timestamp(5),
            Timestamp(7),
            WriteKind::Update,
            Some(Value::from_u64(2))
        ));
        // Now the deferred write's turn.
        assert!(s.install_if_prev(
            row,
            Timestamp(7),
            Timestamp(9),
            WriteKind::Update,
            Some(Value::from_u64(3))
        ));
        assert_eq!(s.read_latest(row).unwrap().as_u64(), Some(3));
    }

    #[test]
    fn gc_keeps_visibility_at_horizon() {
        let s = store();
        let row = RowRef::new(1, 1);
        for ts in 1..=10u64 {
            s.install(
                row,
                Timestamp(ts),
                WriteKind::Update,
                Some(Value::from_u64(ts)),
            );
        }
        let before = s.stats().versions;
        let reclaimed = s.gc(Timestamp(8));
        assert!(reclaimed > 0);
        assert_eq!(s.stats().versions, before - reclaimed);
        // Reads at or after the horizon are unaffected.
        assert_eq!(s.read_at(row, Timestamp(8)).unwrap().as_u64(), Some(8));
        assert_eq!(s.read_at(row, Timestamp(10)).unwrap().as_u64(), Some(10));
    }

    #[test]
    fn an_install_trims_its_own_chain_to_the_horizon() {
        let s = store();
        let (hot, cold) = (RowRef::new(1, 1), RowRef::new(1, 2));
        for ts in 1..=10u64 {
            for row in [hot, cold] {
                s.install(
                    row,
                    Timestamp(ts),
                    WriteKind::Update,
                    Some(Value::from_u64(ts)),
                );
            }
        }
        // Zero, the default, trims nothing.
        assert_eq!(s.stats().versions, 20);
        s.raise_gc_horizon(Timestamp(8));
        s.raise_gc_horizon(Timestamp(3));
        assert_eq!(s.gc_horizon(), Timestamp(8), "the horizon never falls");
        s.install(
            hot,
            Timestamp(11),
            WriteKind::Update,
            Some(Value::from_u64(11)),
        );
        // The hot chain keeps 8 (visible at the horizon), 9, 10 and 11; the
        // cold chain was not written, so it keeps everything.
        assert_eq!(s.stats().versions, 4 + 10);
        assert_eq!(s.read_at(hot, Timestamp(8)).unwrap().as_u64(), Some(8));
        assert_eq!(s.read_at(cold, Timestamp(3)).unwrap().as_u64(), Some(3));
        // The vacuum reaches the rest.
        assert_eq!(s.gc(Timestamp(8)), 7);
    }

    #[test]
    fn table_scans_filter_by_table_and_timestamp() {
        let s = store();
        s.install(
            RowRef::new(1, 1),
            Timestamp(1),
            WriteKind::Insert,
            Some(Value::from_u64(1)),
        );
        s.install(
            RowRef::new(1, 2),
            Timestamp(5),
            WriteKind::Insert,
            Some(Value::from_u64(2)),
        );
        s.install(
            RowRef::new(2, 3),
            Timestamp(1),
            WriteKind::Insert,
            Some(Value::from_u64(3)),
        );

        assert_eq!(s.scan_table_at(TableId(1), Timestamp(1)).len(), 1);
        assert_eq!(s.scan_table_at(TableId(1), Timestamp(5)).len(), 2);
        assert_eq!(s.scan_table_at(TableId(2), Timestamp(10)).len(), 1);
        let all = s.scan_all_at(Timestamp(10));
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn scans_return_rows_sorted_by_key() {
        let s = store();
        // Insert in shuffled key order across two tables; scans must come
        // back sorted regardless of hash-shard placement.
        for &k in &[9u64, 2, 7, 1, 5, 3] {
            s.install(
                RowRef::new(1, k),
                Timestamp(1),
                WriteKind::Insert,
                Some(Value::from_u64(k)),
            );
        }
        s.install(
            RowRef::new(0, 4),
            Timestamp(1),
            WriteKind::Insert,
            Some(Value::from_u64(4)),
        );

        let keys: Vec<u64> = s
            .scan_table_at(TableId(1), Timestamp(10))
            .iter()
            .map(|(r, _)| r.key.as_u64())
            .collect();
        assert_eq!(keys, vec![1, 2, 3, 5, 7, 9]);

        let all: Vec<RowRef> = s
            .scan_all_at(Timestamp(10))
            .iter()
            .map(|(r, _)| *r)
            .collect();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted, "scan_all_at must be (table, key)-sorted");
        assert_eq!(all[0].table, TableId(0), "table 0 sorts first");
    }

    #[test]
    fn stats_count_rows_and_versions() {
        let s = store();
        let row = RowRef::new(1, 1);
        s.install(
            row,
            Timestamp(1),
            WriteKind::Insert,
            Some(Value::from_u64(1)),
        );
        s.install(
            row,
            Timestamp(2),
            WriteKind::Update,
            Some(Value::from_u64(2)),
        );
        s.install(
            RowRef::new(1, 2),
            Timestamp(1),
            WriteKind::Insert,
            Some(Value::from_u64(1)),
        );
        assert_eq!(
            s.stats(),
            MvStoreStats {
                rows: 2,
                versions: 3
            }
        );
    }

    #[test]
    fn a_refused_first_write_creates_no_row() {
        let s = store();
        let row = RowRef::new(1, 1);
        // A write naming a predecessor the row never had is refused, and
        // leaves no trace: no chain, no table-index key.
        assert!(!s.install_if_prev(
            row,
            Timestamp(3),
            Timestamp(5),
            WriteKind::Update,
            Some(Value::from_u64(5))
        ));
        assert_eq!(
            s.stats(),
            MvStoreStats {
                rows: 0,
                versions: 0
            }
        );
        assert!(s.scan_table_at(TableId(1), Timestamp::MAX).is_empty());
        assert_eq!(s.latest_write_ts(row), Timestamp::ZERO);
    }

    /// The chain sits in every row's map slot beside its 16-byte key, so its
    /// size is the store's per-row cost: a 24-byte head (timestamp and the
    /// value, whose absence is a delete) and two slab indices, a 48-byte slot
    /// in all. Each older version takes one 32-byte slab slot (the version
    /// and two links). A wider version or value type shows here first.
    #[test]
    fn a_chain_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<VersionChain>() <= 32);
        assert!(std::mem::size_of::<Slot>() <= 32);
    }

    /// Every shard's slab, checked: each chain's `older` links run from
    /// `newest` to `oldest`, its known `newer` links mirror them and run
    /// from the oldest up, and its newest slot's is unknown. Returns the
    /// slots the chains hold, the slots on the free lists, and the slabs'
    /// total length.
    fn slab_use(s: &MvStore) -> (usize, usize, usize) {
        let (mut in_use, mut free, mut len) = (0, 0, 0);
        for shard in &s.shards {
            let shard = shard.read();
            let slab = &shard.slab;
            for chain in shard.rows.values() {
                let (mut upper, mut known) = (NIL, false);
                for slot in chain.below(slab) {
                    let newer = slab[slot].newer;
                    if upper == NIL {
                        assert_eq!(newer, UNKNOWN, "the newest slot's link is never known");
                    } else if newer != UNKNOWN {
                        assert_eq!(newer, upper, "a known link names the slot above");
                        known = true;
                    } else {
                        assert!(!known, "known links run from the oldest up");
                    }
                    in_use += 1;
                    upper = slot;
                }
                assert_eq!(upper, chain.oldest, "the links down end at the oldest");
            }
            let mut slot = slab.free;
            while slot != NIL && free <= len + slab.slots.len() {
                free += 1;
                slot = slab[slot].older;
            }
            len += slab.slots.len();
        }
        (in_use, free, len)
    }

    /// The write timestamps `row`'s chain holds, newest first.
    fn write_timestamps(s: &MvStore, row: RowRef) -> Vec<Timestamp> {
        let shard = s.shard_for(row).read();
        let Some(chain) = shard.rows.get(&row) else {
            return Vec::new();
        };
        let below = chain.below(&shard.slab);
        let older = below.map(|slot| shard.slab[slot].version.write_ts);
        std::iter::once(chain.head.write_ts).chain(older).collect()
    }

    #[test]
    fn a_rewritten_row_reuses_the_slots_its_trims_free() {
        let s = store();
        let row = RowRef::new(1, 1);
        for ts in 1..=10_000u64 {
            s.raise_gc_horizon(Timestamp(ts.saturating_sub(3)));
            s.install(
                row,
                Timestamp(ts),
                WriteKind::Update,
                Some(Value::from_u64(ts)),
            );
            let slots = s.shard_for(row).read().slab.slots.len();
            assert!(slots <= 4, "{slots} slots after the write at {ts}");
        }
        assert_eq!(slab_use(&s), (3, 0, 3));
        assert_eq!(
            s.read_at(row, Timestamp(9_997)).unwrap().as_u64(),
            Some(9_997)
        );
    }

    #[test]
    fn an_out_of_order_install_is_trimmed_in_its_place() {
        let s = store();
        let row = RowRef::new(1, 1);
        let install = |ts: u64| {
            s.install(
                row,
                Timestamp(ts),
                WriteKind::Update,
                Some(Value::from_u64(ts)),
            )
        };
        for ts in [10, 20, 30, 40] {
            install(ts);
        }
        // This install's trim records the links from 10 up and frees nothing.
        s.raise_gc_horizon(Timestamp(15));
        install(50);
        assert_eq!(s.stats().versions, 5);
        // 12 goes between 10 and 20, and makes 10 unreadable at 15.
        install(12);
        assert_eq!(s.stats().versions, 5);
        assert_eq!(s.read_at(row, Timestamp(15)).unwrap().as_u64(), Some(12));
        assert_eq!(s.read_at(row, Timestamp(25)).unwrap().as_u64(), Some(20));
        assert_eq!(s.gc(Timestamp(25)), 1);
        assert_eq!(s.read_at(row, Timestamp(25)).unwrap().as_u64(), Some(20));
        assert_eq!(slab_use(&s), (3, 2, 5));
    }

    /// A chain as one ascending vector, the reference the inline-head layout
    /// is checked against: a version goes after every version at or below
    /// its timestamp, a read takes the last version at or below its
    /// timestamp, and GC keeps the newest version at or below the horizon
    /// and everything after it. `None` is a delete. An insert under a
    /// non-zero horizon is followed by GC at it.
    #[derive(Default)]
    struct ModelChain(Vec<(Timestamp, Option<u64>)>);

    impl ModelChain {
        fn insert(&mut self, ts: Timestamp, value: Option<u64>, horizon: Timestamp) {
            let pos = self.0.partition_point(|v| v.0 <= ts);
            self.0.insert(pos, (ts, value));
            if horizon > Timestamp::ZERO {
                self.gc(horizon);
            }
        }

        fn read_at(&self, ts: Timestamp) -> Option<u64> {
            self.0.iter().rev().find(|v| v.0 <= ts).and_then(|v| v.1)
        }

        fn latest(&self) -> Timestamp {
            self.0.last().map(|v| v.0).unwrap_or(Timestamp::ZERO)
        }

        fn gc(&mut self, horizon: Timestamp) -> usize {
            let keep_from = self.0.partition_point(|v| v.0 <= horizon);
            self.0.drain(..keep_from.saturating_sub(1)).count()
        }
    }

    const MODEL_ROWS: u64 = 3;
    const MODEL_MAX_TS: u64 = 40;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random installs (timestamps in any order, deletes, equal
        /// timestamps), `install_if_prev` with a right or a wrong
        /// predecessor, `gc` at random horizons, and raises of the store's
        /// GC horizon, on three rows: after every step the store reads,
        /// heads, counts and reclaims exactly what the one-vector model does,
        /// installs trimming as the model's GC does. Its row count is
        /// the rows the model wrote, so a refused `install_if_prev` on a row
        /// never written creates nothing, and its slabs hold one slot per
        /// version below a head, every other slot free: none leaked, none
        /// freed twice.
        #[test]
        fn chains_behave_as_one_ascending_vector(
            ops in prop::collection::vec(
                (0..MODEL_ROWS, 0u8..6, 1..MODEL_MAX_TS, 0..MODEL_MAX_TS),
                1..48,
            ),
        ) {
            let s = store();
            let mut model: Vec<ModelChain> =
                (0..MODEL_ROWS).map(|_| ModelChain::default()).collect();
            let row = |r: u64| RowRef::new(1, r);
            let mut raised = Timestamp::ZERO;
            for &(r, op, ts, h) in &ops {
                let (ts, horizon) = (Timestamp(ts), Timestamp(h));
                let chain = &mut model[r as usize];
                match op {
                    0 | 1 => {
                        let kind = if op == 0 { WriteKind::Insert } else { WriteKind::Update };
                        s.install(row(r), ts, kind, Some(Value::from_u64(ts.as_u64())));
                        chain.insert(ts, Some(ts.as_u64()), raised);
                    }
                    2 => {
                        s.install(row(r), ts, WriteKind::Delete, None);
                        chain.insert(ts, None, raised);
                    }
                    3 => {
                        let prev = if h & 1 == 0 { chain.latest() } else { horizon };
                        let expect = prev == chain.latest();
                        let value = Some(Value::from_u64(ts.as_u64()));
                        let installed =
                            s.install_if_prev(row(r), prev, ts, WriteKind::Update, value);
                        prop_assert_eq!(installed, expect);
                        if expect {
                            chain.insert(ts, Some(ts.as_u64()), raised);
                        }
                    }
                    4 => {
                        let expect: usize = model.iter_mut().map(|c| c.gc(horizon)).sum();
                        prop_assert_eq!(s.gc(horizon), expect);
                    }
                    _ => {
                        s.raise_gc_horizon(horizon);
                        raised = raised.max(horizon);
                    }
                }
                for (r, chain) in model.iter().enumerate() {
                    let r = r as u64;
                    prop_assert_eq!(s.latest_write_ts(row(r)), chain.latest());
                    for t in (0..=MODEL_MAX_TS).map(Timestamp) {
                        let got = s.read_at(row(r), t).and_then(|v| v.as_u64());
                        prop_assert_eq!(got, chain.read_at(t), "row {} at {}", r, t);
                    }
                }
                let rows = model.iter().filter(|c| !c.0.is_empty()).count();
                let versions = model.iter().map(|c| c.0.len()).sum();
                prop_assert_eq!(s.stats(), MvStoreStats { rows, versions });
                let (in_use, free, len) = slab_use(&s);
                prop_assert_eq!(in_use, versions - rows);
                prop_assert_eq!(free + in_use, len);
            }
        }

        /// Installs trimming to a rising horizon, against a twin that never
        /// trims. Random writes to four rows, at timestamps in any order,
        /// interleaved with raises of the horizon: after every step, every
        /// read at or after the current horizon answers as the twin's does,
        /// and every chain holds at most one version at or below the horizon
        /// its last install ran under (what a row not written again keeps).
        #[test]
        fn install_time_trimming_reads_as_a_never_trimmed_twin(
            ops in prop::collection::vec((0u64..4, 1..MODEL_MAX_TS, any::<bool>()), 1..64),
        ) {
            let (trimmed, twin) = (store(), store());
            let row = |r: u64| RowRef::new(1, r);
            let mut last_install_horizon = [Timestamp::ZERO; 4];
            for &(r, ts, raise) in &ops {
                if raise {
                    trimmed.raise_gc_horizon(Timestamp(ts));
                    continue;
                }
                let value = Some(Value::from_u64(ts));
                for s in [&trimmed, &twin] {
                    s.install(row(r), Timestamp(ts), WriteKind::Update, value.clone());
                }
                last_install_horizon[r as usize] = trimmed.gc_horizon();
                let horizon = trimmed.gc_horizon();
                for r in 0..4 {
                    for t in (horizon.as_u64()..=MODEL_MAX_TS).map(Timestamp) {
                        prop_assert_eq!(trimmed.read_at(row(r), t), twin.read_at(row(r), t));
                    }
                    let at_or_below = write_timestamps(&trimmed, row(r))
                        .into_iter()
                        .filter(|&ts| ts <= last_install_horizon[r as usize])
                        .count();
                    prop_assert!(at_or_below <= 1, "row {} keeps {} versions at or below its install horizon", r, at_or_below);
                }
            }
        }
    }
}
