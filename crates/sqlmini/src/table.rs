//! Schemas, rows and in-memory tables.
//!
//! Version storage is **sharded**: a table holds `S` append-only arenas,
//! each behind its own lock, so writers appending to different shards
//! never contend. Rows are addressed by a stable physical row id
//! (`Rid`) that packs the shard number into the high bits and the
//! arena-local position into the low bits — at `S = 1` a rid *is* the
//! arena position, reproducing the unsharded layout bit-for-bit.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::{Result, SqlError};
use crate::index::{key_of, unique_violation, KeySpace, SecondaryIndex};
use crate::value::{DataType, Value};

/// A named, typed column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name (stored lower-case; SQL identifiers are case-insensitive).
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
}

impl Column {
    /// Create a column (name is normalized to lower case).
    pub fn new(name: impl AsRef<str>, dtype: DataType) -> Self {
        Column {
            name: name.as_ref().to_ascii_lowercase(),
            dtype,
        }
    }
}

/// An ordered collection of columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Create a schema from columns, rejecting duplicates.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(SqlError::Constraint(format!(
                    "duplicate column name \"{}\"",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

/// A row of values.
pub type Row = Vec<Value>;

/// `end` stamp of a version that has not been deleted or superseded.
///
/// Note that `LIVE` has the [`UNCOMMITTED`] bit set, so visibility checks
/// must test for `LIVE` before interpreting the uncommitted bit.
pub(crate) const LIVE: u64 = u64::MAX;

/// High bit of a begin/end stamp: the stamp is a transaction id, not a
/// commit timestamp. `UNCOMMITTED | txid` marks a pending write that only
/// the owning transaction can see (begin) or still sees (end).
pub(crate) const UNCOMMITTED: u64 = 1 << 63;

/// `begin` stamp of a version that no snapshot can ever see again (a
/// rolled-back insert). Transaction ids start at 1, so `UNCOMMITTED | 0`
/// never collides with a real pending write.
pub(crate) const TOMBSTONE: u64 = UNCOMMITTED;

/// The read position of one statement or cursor: every version committed
/// at or before `ts` is visible, plus this transaction's own pending
/// writes when `txid != 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Snapshot {
    /// Commit-clock value pinned when the snapshot was taken.
    pub ts: u64,
    /// Owning transaction id, or 0 outside an explicit transaction.
    pub txid: u64,
}

impl Snapshot {
    /// A snapshot that sees every committed version and no pending ones —
    /// the view a brand-new statement would get "now".
    #[cfg(test)]
    pub(crate) fn latest() -> Self {
        Snapshot {
            ts: UNCOMMITTED - 1,
            txid: 0,
        }
    }
}

/// One version of one row: the payload plus the half-open commit-time
/// interval `[begin, end)` during which it is the current version.
#[derive(Debug, Clone)]
pub(crate) struct VersionedRow {
    /// Commit timestamp of the writer that created this version, or
    /// `UNCOMMITTED | txid` while that writer is still in flight.
    pub begin: u64,
    /// Commit timestamp of the writer that deleted/superseded it,
    /// [`LIVE`] while current, or `UNCOMMITTED | txid` for a pending
    /// delete.
    pub end: u64,
    /// The row payload.
    pub data: Row,
}

impl VersionedRow {
    /// The MVCC visibility rule: created by us or committed at-or-before
    /// our snapshot, and not yet deleted as far as our snapshot can tell.
    pub(crate) fn visible(&self, snap: Snapshot) -> bool {
        let begin_ok = if self.begin & UNCOMMITTED != 0 {
            snap.txid != 0 && self.begin == UNCOMMITTED | snap.txid
        } else {
            self.begin <= snap.ts
        };
        if !begin_ok {
            return false;
        }
        if self.end == LIVE {
            return true;
        }
        if self.end & UNCOMMITTED != 0 {
            // Another transaction's pending delete does not hide the row;
            // our own does.
            !(snap.txid != 0 && self.end == UNCOMMITTED | snap.txid)
        } else {
            self.end > snap.ts
        }
    }

    /// True when no current or future snapshot can see this version:
    /// a rolled-back insert, or a deletion committed at or before the
    /// oldest snapshot still alive.
    fn reclaimable(&self, watermark: u64) -> bool {
        self.begin == TOMBSTONE
            || (self.end != LIVE && self.end & UNCOMMITTED == 0 && self.end <= watermark)
    }

    /// Dead for accounting purposes: it can eventually be reclaimed once
    /// the watermark passes it.
    fn dead(&self) -> bool {
        self.begin == TOMBSTONE || (self.end != LIVE && self.end & UNCOMMITTED == 0)
    }
}

/// Compaction trigger: at least this many dead versions, and at least
/// half the heap dead.
const GC_MIN_DEAD: usize = 64;

// ---- physical row ids ------------------------------------------------------

/// A stable physical row id: shard number in the high bits, arena-local
/// position in the low bits. Rids compare in **shard-major ascending
/// order**, so every "ascending version positions" invariant (index
/// probes, undo logs, superseded lists) carries over unchanged; at one
/// shard a rid equals the arena position exactly.
pub(crate) type Rid = usize;

/// Bits reserved for the arena-local position (64-bit targets only).
const RID_SHARD_SHIFT: u32 = 48;
/// Mask extracting the arena-local position from a rid.
const RID_POS_MASK: usize = (1 << RID_SHARD_SHIFT) - 1;

/// Pack a shard number and arena-local position into a rid.
pub(crate) fn make_rid(shard: usize, pos: usize) -> Rid {
    debug_assert!(pos <= RID_POS_MASK);
    (shard << RID_SHARD_SHIFT) | pos
}

/// Shard number of a rid.
pub(crate) fn rid_shard(rid: Rid) -> usize {
    rid >> RID_SHARD_SHIFT
}

/// Arena-local position of a rid.
pub(crate) fn rid_pos(rid: Rid) -> usize {
    rid & RID_POS_MASK
}

// ---- home-shard routing ----------------------------------------------------

/// Round-robin seed for thread home slots.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home slot, assigned on first use. All appends a
    /// thread makes to a given table land in `slot % shard_count`, so a
    /// single-threaded workload preserves insertion order exactly (one
    /// shard) while distinct writer threads spread across shards.
    static HOME_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's home slot (assigned round-robin on first use).
fn home_slot() -> usize {
    HOME_SLOT.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v
    })
}

// ---- version arenas --------------------------------------------------------

/// One shard's version storage: an append-only heap of row versions plus
/// the per-shard slice of every secondary index (local positions).
#[derive(Debug, Clone, Default)]
struct Arena {
    /// Version storage. Append-only except for [`Arena::compact`], so
    /// local positions stay valid while the owning shard is pinned.
    versions: Vec<VersionedRow>,
    /// Count of versions whose data can eventually be reclaimed.
    dead: usize,
    /// Count of versions carrying an in-flight transaction's stamp — an
    /// uncommitted begin or a pending delete. Tombstones are excluded
    /// (they are counted in `dead`).
    pending: usize,
    /// Highest committed begin stamp ever appended (monotone; may
    /// overstate after compaction, which only makes the quiescence check
    /// conservative).
    max_begin: u64,
    /// This shard's slice of each secondary index, ordinal-aligned with
    /// the table's `index_meta` and keyed by **local** positions.
    indexes: Vec<SecondaryIndex>,
}

impl Arena {
    /// Every version in this arena is visible to `snap`: nothing dead,
    /// nothing pending, and nothing committed after the snapshot.
    fn all_visible(&self, snap: Snapshot) -> bool {
        self.dead == 0 && self.pending == 0 && self.max_begin <= snap.ts
    }

    /// Append a version (already coerced) and return its local position.
    fn push(&mut self, begin: u64, data: Row) -> usize {
        if begin & UNCOMMITTED != 0 {
            self.pending += 1;
        } else if begin > self.max_begin {
            self.max_begin = begin;
        }
        self.versions.push(VersionedRow {
            begin,
            end: LIVE,
            data,
        });
        let pos = self.versions.len() - 1;
        let data = &self.versions[pos].data;
        for ix in &mut self.indexes {
            ix.insert(pos, &data[ix.column]);
        }
        pos
    }

    /// Stamp a version's end (delete/supersede it as of `stamp`).
    fn end(&mut self, pos: usize, stamp: u64) {
        self.versions[pos].end = stamp;
        if stamp & UNCOMMITTED == 0 {
            self.dead += 1;
        } else {
            self.pending += 1;
        }
    }

    /// Commit a pending insert: `UNCOMMITTED | txid` → `cts`.
    fn commit_begin(&mut self, pos: usize, txid: u64, cts: u64) {
        if self.versions[pos].begin == UNCOMMITTED | txid {
            self.versions[pos].begin = cts;
            self.pending -= 1;
            if cts > self.max_begin {
                self.max_begin = cts;
            }
        }
    }

    /// Commit a pending delete: `UNCOMMITTED | txid` → `cts`.
    fn commit_end(&mut self, pos: usize, txid: u64, cts: u64) {
        if self.versions[pos].end == UNCOMMITTED | txid {
            self.versions[pos].end = cts;
            self.pending -= 1;
            self.dead += 1;
        }
    }

    /// Undo a pending delete: the version is current again.
    fn revert_end(&mut self, pos: usize, txid: u64) {
        if self.versions[pos].end == UNCOMMITTED | txid {
            self.versions[pos].end = LIVE;
            self.pending -= 1;
        }
    }

    /// Undo a pending insert: tombstone the version.
    fn revert_insert(&mut self, pos: usize, txid: u64) {
        if self.versions[pos].begin == UNCOMMITTED | txid {
            self.versions[pos].begin = TOMBSTONE;
            self.pending -= 1;
            self.dead += 1;
        }
    }

    /// Drop every version no snapshot at or after `watermark` can see,
    /// returning the number reclaimed. The caller has checked pins.
    fn compact(&mut self, watermark: u64) -> usize {
        let removed: Vec<usize> = self
            .versions
            .iter()
            .enumerate()
            .filter(|(_, v)| v.reclaimable(watermark))
            .map(|(i, _)| i)
            .collect();
        if removed.is_empty() {
            return 0;
        }
        self.versions.retain(|v| !v.reclaimable(watermark));
        for ix in &mut self.indexes {
            ix.remove_renumber(&removed);
        }
        self.dead = self.versions.iter().filter(|v| v.dead()).count();
        removed.len()
    }

    /// Number of current committed rows in this arena.
    fn committed_len(&self) -> usize {
        if self.dead == 0 && self.pending == 0 {
            return self.versions.len();
        }
        self.versions
            .iter()
            .filter(|v| v.begin & UNCOMMITTED == 0 && (v.end == LIVE || v.end & UNCOMMITTED != 0))
            .count()
    }
}

/// One independently locked shard: an arena plus its pin count.
#[derive(Debug, Default)]
struct Shard {
    /// The shard's version storage. Writers appending to different
    /// shards hold different locks and proceed in parallel.
    arena: RwLock<Arena>,
    /// Holders of local positions that outlive a single guard (streaming
    /// cursors, open transactions, copy-out DML). Compaction skips a
    /// shard while it is pinned, because compaction renumbers positions.
    pins: AtomicUsize,
}

/// Descriptor of one secondary index: its per-shard slices live inside
/// each arena (ordinal-aligned with this list), so readers can consult
/// name/column/uniqueness without taking any shard lock.
#[derive(Debug, Clone)]
pub(crate) struct IndexMeta {
    /// Index name (globally unique across the database).
    pub(crate) name: String,
    /// Indexed column's ordinal in the table schema.
    pub(crate) column: usize,
    /// Rejects duplicate non-NULL keys among currently-live versions.
    pub(crate) unique: bool,
}

/// Could this version still be (or become) current? Committed-dead
/// versions and tombstones cannot conflict; live versions always do;
/// a pending delete by *another* transaction may roll back, so the
/// version still conflicts — only our own pending delete clears it.
fn conflict_live(v: &VersionedRow, txid: u64) -> bool {
    if v.begin == TOMBSTONE {
        return false;
    }
    if v.end == LIVE {
        return true;
    }
    v.end & UNCOMMITTED != 0 && (txid == 0 || v.end != UNCOMMITTED | txid)
}

/// An in-memory heap table: a schema plus sharded append-only version
/// storage. Visibility of a version to a given `Snapshot` is decided per
/// read; dead versions linger until per-shard compaction reclaims them.
///
/// Lock discipline: shard locks are only ever acquired by a thread that
/// holds the table's outer `RwLock` guard (read or write), and always in
/// ascending shard order when more than one is taken. Exclusive (`&mut`)
/// access reaches arenas through `get_mut`, which takes no lock at all;
/// an append under the outer read guard takes just its home shard's.
#[derive(Debug)]
pub struct Table {
    /// The table's schema.
    pub schema: Schema,
    /// The version shards. Grown once at registration time
    /// ([`Table::set_shard_count`]); never shrunk or reordered, so shard
    /// numbers embedded in rids stay valid forever.
    shards: Vec<Shard>,
    /// Secondary-index descriptors, ordinal-aligned with every arena's
    /// `indexes` vector. Mutated only under the outer write guard.
    index_meta: Vec<IndexMeta>,
    /// Monotone count of version-payload modifications — the statistics
    /// layer's staleness signal (see `crate::stats`). Atomic because
    /// concurrent appenders bump it under shard (not outer-write) locks.
    mod_count: AtomicU64,
}

impl Default for Table {
    fn default() -> Self {
        Table::new(Schema::default())
    }
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            schema: self.schema.clone(),
            shards: self
                .shards
                .iter()
                .map(|s| Shard {
                    arena: RwLock::new(s.arena.read().clone()),
                    pins: AtomicUsize::new(0),
                })
                .collect(),
            index_meta: self.index_meta.clone(),
            mod_count: AtomicU64::new(self.mod_count.load(Ordering::Relaxed)),
        }
    }
}

impl Table {
    /// Create an empty single-shard table. `Database::create_table` grows
    /// the shard count to the configured value at registration time.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            shards: vec![Shard::default()],
            index_meta: Vec::new(),
            mod_count: AtomicU64::new(0),
        }
    }

    /// Number of version shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Grow the shard count to `n` (never shrinks). Existing rows keep
    /// their rids; new shards start empty, with an empty slice of every
    /// existing index. Must only be called before the table's handle is
    /// shared (registration time): live pins do not extend to shards
    /// that did not exist when they were taken.
    pub(crate) fn set_shard_count(&mut self, n: usize) {
        while self.shards.len() < n {
            let indexes = self
                .index_meta
                .iter()
                .map(|m| SecondaryIndex::new(m.column))
                .collect();
            self.shards.push(Shard {
                arena: RwLock::new(Arena {
                    indexes,
                    ..Arena::default()
                }),
                pins: AtomicUsize::new(0),
            });
        }
    }

    /// The calling thread's home shard — where its appends land.
    fn home_shard(&self) -> usize {
        home_slot() % self.shards.len()
    }

    /// Validate arity and coerce each value to its column type, without
    /// storing anything — the error-before-mutation half of every insert.
    pub(crate) fn coerce_row(&self, row: Row) -> Result<Row> {
        if row.len() != self.schema.len() {
            return Err(SqlError::Constraint(format!(
                "INSERT has {} values but table has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        row.iter()
            .zip(&self.schema.columns)
            .map(|(v, c)| {
                v.coerce_to(c.dtype)
                    .map_err(|e| SqlError::Type(format!("column \"{}\": {e}", c.name)))
            })
            .collect()
    }

    /// Insert a row, coercing each value to its column type. The version
    /// is created visible to every snapshot (begin 0) — the direct table
    /// building path used before a table is registered.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        let coerced = self.coerce_row(row)?;
        self.push_version(0, coerced);
        Ok(())
    }

    /// Exclusive access to the arena holding `rid` (no lock taken).
    fn arena_of(&mut self, rid: Rid) -> &mut Arena {
        self.shards[rid_shard(rid)].arena.get_mut()
    }

    /// Append a version (already coerced) to the calling thread's home
    /// shard and return its rid.
    pub(crate) fn push_version(&mut self, begin: u64, data: Row) -> Rid {
        let s = self.home_shard();
        let pos = self.shards[s].arena.get_mut().push(begin, data);
        *self.mod_count.get_mut() += 1;
        make_rid(s, pos)
    }

    /// Append a version to a specific shard (tests exercising cross-shard
    /// behavior deterministically).
    #[cfg(test)]
    pub(crate) fn push_to_shard(&mut self, shard: usize, begin: u64, data: Row) -> Rid {
        let pos = self.shards[shard].arena.get_mut().push(begin, data);
        *self.mod_count.get_mut() += 1;
        make_rid(shard, pos)
    }

    /// Stamp a version's end (delete/supersede it as of `stamp`). The
    /// index entry stays — probes re-check visibility — but the churn
    /// counts toward statistics staleness.
    pub(crate) fn end_version(&mut self, rid: Rid, stamp: u64) {
        self.arena_of(rid).end(rid_pos(rid), stamp);
        *self.mod_count.get_mut() += 1;
    }

    /// Commit a pending insert: `UNCOMMITTED | txid` → `cts`.
    pub(crate) fn commit_begin(&mut self, rid: Rid, txid: u64, cts: u64) {
        self.arena_of(rid).commit_begin(rid_pos(rid), txid, cts);
    }

    /// Commit a pending delete: `UNCOMMITTED | txid` → `cts`.
    pub(crate) fn commit_end(&mut self, rid: Rid, txid: u64, cts: u64) {
        self.arena_of(rid).commit_end(rid_pos(rid), txid, cts);
    }

    /// Undo a pending delete: the version is current again.
    pub(crate) fn revert_end(&mut self, rid: Rid, txid: u64) {
        self.arena_of(rid).revert_end(rid_pos(rid), txid);
    }

    /// Undo a pending insert: tombstone the version.
    pub(crate) fn revert_insert(&mut self, rid: Rid, txid: u64) {
        self.arena_of(rid).revert_insert(rid_pos(rid), txid);
    }

    /// A version's current end stamp.
    pub(crate) fn version_end(&mut self, rid: Rid) -> u64 {
        self.arena_of(rid).versions[rid_pos(rid)].end
    }

    /// Block compaction of every shard while positions are held across
    /// guard releases. Paired with [`Table::unpin`] (or shard-by-shard
    /// [`Table::unpin_shard`] as a cursor drains).
    pub(crate) fn pin(&self) {
        for s in &self.shards {
            s.pins.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Release a [`Table::pin`] on every shard.
    pub(crate) fn unpin(&self) {
        for s in &self.shards {
            s.pins.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Release one shard of a [`Table::pin`] — a draining cursor frees
    /// each shard for compaction as soon as it has streamed past it.
    pub(crate) fn unpin_shard(&self, shard: usize) {
        self.shards[shard].pins.fetch_sub(1, Ordering::SeqCst);
    }

    /// True when enough garbage has accumulated to be worth a compaction
    /// pass (the caller still checks pins via [`Table::compact`]).
    pub(crate) fn needs_gc(&mut self) -> bool {
        let (mut dead, mut total) = (0usize, 0usize);
        for s in &mut self.shards {
            let a = s.arena.get_mut();
            dead += a.dead;
            total += a.versions.len();
        }
        dead >= GC_MIN_DEAD && dead * 2 >= total
    }

    /// Drop every version no snapshot at or after `watermark` can see,
    /// shard by shard. Returns the number reclaimed; pinned shards are
    /// skipped (compaction renumbers the survivors).
    pub(crate) fn compact(&mut self, watermark: u64) -> usize {
        let mut freed = 0;
        for s in &mut self.shards {
            if s.pins.load(Ordering::SeqCst) > 0 {
                continue;
            }
            freed += s.arena.get_mut().compact(watermark);
        }
        freed
    }

    /// Per-shard compaction under the outer **read** guard (`vacuum()`):
    /// takes each shard's write lock in turn, so readers and writers of
    /// other shards proceed while one shard compacts. The pin check runs
    /// *after* the shard lock is acquired: a cursor pins its shard before
    /// probing it, and its read-guard release happens-before our
    /// write-guard acquisition, so the pin is visible here.
    pub(crate) fn compact_shards(&self, watermark: u64) -> usize {
        let mut freed = 0;
        for s in &self.shards {
            let mut g = s.arena.write();
            if s.pins.load(Ordering::SeqCst) > 0 {
                continue;
            }
            freed += g.compact(watermark);
        }
        freed
    }

    /// Number of current committed rows (pending writes count as still
    /// current to everyone but their owner).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.arena.read().committed_len())
            .sum()
    }

    /// True when the table holds no current committed rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A read view over every shard (guards held in ascending shard
    /// order) — the reader-side window onto the version storage.
    pub(crate) fn view(&self) -> TableView<'_> {
        TableView {
            arenas: self.shards.iter().map(|s| s.arena.read()).collect(),
        }
    }

    /// A read view over a single shard — cursors refill from one shard
    /// at a time so they only contend with writers of that shard.
    pub(crate) fn shard_view(&self, shard: usize) -> ShardView<'_> {
        ShardView {
            arena: self.shards[shard].arena.read(),
        }
    }

    /// Begin a concurrent append to the calling thread's home shard,
    /// taking only that shard's write lock. `waited` reports whether the
    /// lock was contended (the `write_shard_waits` counter's input).
    pub(crate) fn begin_append(&self) -> ShardAppend<'_> {
        let s = self.home_shard();
        let sh = &self.shards[s];
        let (arena, waited) = match sh.arena.try_write() {
            Some(g) => (g, false),
            None => (sh.arena.write(), true),
        };
        ShardAppend {
            mod_count: &self.mod_count,
            shard: s,
            arena,
            waited,
        }
    }

    /// Clone the rows visible to `snap` keeping only the given columns,
    /// in `cols` order — the column-pruned snapshot of a join or of a
    /// FROM that calls a function. Cloning whole rows is the fast
    /// path when every column is read.
    pub(crate) fn project_rows(&self, cols: &[usize], snap: Snapshot) -> Vec<Row> {
        let view = self.view();
        let rows = view.scan(None, snap).map(|(_, v)| &v.data);
        if cols.len() == self.schema.len() && cols.iter().enumerate().all(|(i, &c)| i == c) {
            return rows.cloned().collect();
        }
        rows.map(|r| cols.iter().map(|&i| r[i].clone()).collect())
            .collect()
    }

    // ---- secondary indexes -------------------------------------------------

    /// The table's secondary-index descriptors.
    pub(crate) fn indexes(&self) -> &[IndexMeta] {
        &self.index_meta
    }

    /// Look up an index by (lower-cased) name: its ordinal (the position
    /// of its slice in every arena) and descriptor.
    pub(crate) fn find_index(&self, name: &str) -> Option<(usize, &IndexMeta)> {
        self.index_meta
            .iter()
            .enumerate()
            .find(|(_, m)| m.name == name)
    }

    /// The version-payload churn counter (statistics staleness input).
    pub(crate) fn mod_count(&self) -> u64 {
        self.mod_count.load(Ordering::Relaxed)
    }

    /// True when any unique index exists — DML paths only build check
    /// rows when this holds.
    pub(crate) fn has_unique_index(&self) -> bool {
        self.index_meta.iter().any(|m| m.unique)
    }

    /// Error-before-mutation unique check for a statement's batch of new
    /// rows: rejects a duplicate non-NULL key within the batch or against
    /// any still-conflicting indexed version in any shard. `superseded`
    /// lists the ascending rids the statement will end (its own updates
    /// never conflict with the versions they replace); `txid` is the
    /// owning transaction (0 in auto-commit).
    pub(crate) fn check_unique(
        &mut self,
        new_rows: &[Row],
        superseded: &[Rid],
        txid: u64,
    ) -> Result<()> {
        let uniques: Vec<(usize, usize)> = self
            .index_meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.unique)
            .map(|(o, m)| (o, m.column))
            .collect();
        for (ord, col) in uniques {
            let mut batch = BTreeSet::new();
            for r in new_rows {
                let Some(k) = key_of(&r[col]) else {
                    continue; // NULLs never collide
                };
                if !batch.insert(k.clone()) {
                    return Err(unique_violation(&self.index_meta[ord].name));
                }
                for s in 0..self.shards.len() {
                    let arena = self.shards[s].arena.get_mut();
                    for &p in arena.indexes[ord].positions_of(&k) {
                        if superseded.binary_search(&make_rid(s, p)).is_err()
                            && conflict_live(&arena.versions[p], txid)
                        {
                            return Err(unique_violation(&self.index_meta[ord].name));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Create a secondary index over `column`, building each shard's
    /// slice from that shard's version heap. A unique index validates
    /// existing data first — across *all* shards, since duplicates may
    /// straddle a shard boundary — and leaves the table untouched on
    /// violation.
    pub(crate) fn create_index(&mut self, name: &str, column: &str, unique: bool) -> Result<()> {
        let col = self
            .schema
            .index_of(column)
            .ok_or_else(|| SqlError::UnknownColumn(column.to_string()))?;
        crate::index::check_indexable(self.schema.columns[col].dtype, column)?;
        let mut built = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            let arena = self.shards[s].arena.get_mut();
            let mut ix = SecondaryIndex::new(col);
            ix.rebuild(arena.versions.iter().map(|v| v.data.as_slice()));
            built.push(ix);
        }
        if unique {
            let mut seen = BTreeSet::new();
            for s in 0..self.shards.len() {
                for v in &self.shards[s].arena.get_mut().versions {
                    if conflict_live(v, 0) {
                        if let Some(k) = key_of(&v.data[col]) {
                            if !seen.insert(k) {
                                return Err(unique_violation(name));
                            }
                        }
                    }
                }
            }
        }
        for (s, ix) in built.into_iter().enumerate() {
            self.shards[s].arena.get_mut().indexes.push(ix);
        }
        self.index_meta.push(IndexMeta {
            name: name.to_string(),
            column: col,
            unique,
        });
        Ok(())
    }

    /// Drop an index by name, removing its slice from every arena and
    /// returning its descriptor (the undo log keeps its shape so
    /// ROLLBACK can rebuild it).
    pub(crate) fn drop_index(&mut self, name: &str) -> Option<IndexMeta> {
        let i = self.index_meta.iter().position(|m| m.name == name)?;
        for s in 0..self.shards.len() {
            self.shards[s].arena.get_mut().indexes.remove(i);
        }
        Some(self.index_meta.remove(i))
    }

    /// Clone the current committed rows — a convenience for tests and
    /// direct (non-SQL) inspection.
    #[cfg(test)]
    pub(crate) fn latest_rows(&self) -> Vec<Row> {
        self.view()
            .scan(None, Snapshot::latest())
            .map(|(_, v)| v.data.clone())
            .collect()
    }
}

/// A consistent read window over every shard of one table: all shard
/// read guards, held in ascending shard order. Created under the outer
/// table guard (read or write); while it lives, no commit stamping,
/// concurrent append or compaction can touch the table.
pub(crate) struct TableView<'t> {
    arenas: Vec<RwLockReadGuard<'t, Arena>>,
}

impl TableView<'_> {
    /// The one table scan: `(rid, version)` pairs visible to `snap`, in
    /// ascending rid order. With `cand` — an index probe's ascending
    /// candidate rids — it walks only those; otherwise every version of
    /// every shard. Single-table SELECT, UPDATE and DELETE (borrowed
    /// rows or a copy-out), the snapshot clones and ANALYZE all read
    /// through it.
    pub(crate) fn scan<'a>(
        &'a self,
        cand: Option<&'a [Rid]>,
        snap: Snapshot,
    ) -> impl Iterator<Item = (Rid, &'a VersionedRow)> + 'a {
        match cand {
            Some(rids) => Scan::Probe(rids.iter().filter_map(move |&r| {
                let a = self.arenas.get(rid_shard(r))?;
                let v = a.versions.get(rid_pos(r))?;
                (a.all_visible(snap) || v.visible(snap)).then_some((r, v))
            })),
            None => Scan::Seq(self.arenas.iter().enumerate().flat_map(move |(s, a)| {
                let all = a.all_visible(snap);
                a.versions
                    .iter()
                    .enumerate()
                    .filter(move |(_, v)| all || v.visible(snap))
                    .map(move |(p, v)| (make_rid(s, p), v))
            })),
        }
    }

    /// The version at `rid`, if it exists.
    #[cfg(test)]
    pub(crate) fn version(&self, rid: Rid) -> Option<&VersionedRow> {
        self.arenas.get(rid_shard(rid))?.versions.get(rid_pos(rid))
    }

    /// Candidate rids for a point/range probe of index `ordinal`,
    /// ascending (per-shard results are ascending and shards concatenate
    /// in rid order). `None` when any shard's probe cannot narrow — the
    /// caller falls back to a sequential scan.
    pub(crate) fn probe(
        &self,
        ordinal: usize,
        space: KeySpace,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Option<Vec<Rid>> {
        let mut out = Vec::new();
        for (s, a) in self.arenas.iter().enumerate() {
            let local = a.indexes[ordinal].probe(space, lo, hi)?;
            out.extend(local.into_iter().map(|p| make_rid(s, p)));
        }
        Some(out)
    }
}

/// [`TableView::scan`]'s two walks behind one concrete iterator type, so
/// the dispatch is a match rather than a boxed call — and, through
/// `fold`, once per scan rather than once per row.
enum Scan<P, S> {
    Probe(P),
    Seq(S),
}

impl<T, P: Iterator<Item = T>, S: Iterator<Item = T>> Iterator for Scan<P, S> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Scan::Probe(p) => p.next(),
            Scan::Seq(s) => s.next(),
        }
    }

    fn fold<B, F: FnMut(B, T) -> B>(self, init: B, f: F) -> B {
        match self {
            Scan::Probe(p) => p.fold(init, f),
            Scan::Seq(s) => s.fold(init, f),
        }
    }
}

/// A read view over one shard — what a streaming cursor holds while it
/// drains that shard's batch.
pub(crate) struct ShardView<'t> {
    arena: RwLockReadGuard<'t, Arena>,
}

impl ShardView<'_> {
    /// The shard's versions (local positions).
    pub(crate) fn versions(&self) -> &[VersionedRow] {
        &self.arena.versions
    }

    /// Every version in this shard is visible to `snap`.
    pub(crate) fn all_visible(&self, snap: Snapshot) -> bool {
        self.arena.all_visible(snap)
    }
}

/// An in-progress concurrent append: the writer's home-shard write
/// guard. Writers with different home shards append in parallel; the
/// table's outer guard is only held in read mode.
pub(crate) struct ShardAppend<'t> {
    mod_count: &'t AtomicU64,
    shard: usize,
    arena: RwLockWriteGuard<'t, Arena>,
    waited: bool,
}

impl ShardAppend<'_> {
    /// True when the home-shard lock was contended and the writer had to
    /// block for it.
    pub(crate) fn waited(&self) -> bool {
        self.waited
    }

    /// Append a version (already coerced) and return its rid.
    pub(crate) fn push(&mut self, begin: u64, data: Row) -> Rid {
        let pos = self.arena.push(begin, data);
        self.mod_count.fetch_add(1, Ordering::Relaxed);
        make_rid(self.shard, pos)
    }
}

/// A materialized query result: schema-lite (names only matter for lookup)
/// plus rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Empty result with the given column names.
    pub fn new(columns: Vec<String>) -> Self {
        QueryResult {
            columns,
            rows: Vec::new(),
        }
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| *c == lower)
    }

    /// Extract one column as `f64` (ints/floats/bools), erroring on NULLs.
    pub fn column_f64(&self, name: &str) -> Result<Vec<f64>> {
        let idx = self
            .index_of(name)
            .ok_or_else(|| SqlError::UnknownColumn(name.to_string()))?;
        self.rows.iter().map(|r| r[idx].as_f64()).collect()
    }

    /// Extract one column of timestamps as epoch seconds.
    pub fn column_timestamps(&self, name: &str) -> Result<Vec<i64>> {
        let idx = self
            .index_of(name)
            .ok_or_else(|| SqlError::UnknownColumn(name.to_string()))?;
        self.rows
            .iter()
            .map(|r| match &r[idx] {
                Value::Timestamp(t) => Ok(*t),
                Value::Text(s) => crate::value::parse_timestamp(s),
                other => Err(SqlError::Type(format!(
                    "column \"{name}\": {other} is not a timestamp"
                ))),
            })
            .collect()
    }

    /// Iterate rows as by-name-addressable views (see
    /// [`crate::decode::NamedRow`]).
    pub fn named_rows(&self) -> impl Iterator<Item = crate::decode::NamedRow<'_>> {
        self.rows
            .iter()
            .map(|r| crate::decode::NamedRow::new(&self.columns, r))
    }

    /// First value of the first row — convenient for scalar queries like
    /// `SELECT fmu_create(…)`.
    pub fn scalar(&self) -> Result<&Value> {
        self.rows
            .first()
            .and_then(|r| r.first())
            .ok_or_else(|| SqlError::Execution("query returned no rows".into()))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned ASCII table (for examples and the repro binary).
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!(
                "{:<w$}{}",
                c,
                if i + 1 < self.columns.len() {
                    " | "
                } else {
                    "\n"
                },
                w = widths[i]
            ));
        }
        for (i, w) in widths.iter().enumerate() {
            out.push_str(&"-".repeat(*w));
            out.push_str(if i + 1 < widths.len() { "-+-" } else { "\n" });
        }
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!(
                    "{:<w$}{}",
                    cell,
                    if i + 1 < row.len() { " | " } else { "\n" },
                    w = widths[i]
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("x", DataType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("A", DataType::Int),
        ]);
        assert!(err.is_err());
    }

    #[test]
    fn insert_coerces_and_checks_arity() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(t.latest_rows()[0][1], Value::Float(2.0));
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t
            .insert(vec![Value::Text("x".into()), Value::Float(0.0)])
            .is_err());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn project_rows_prunes_columns() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Int(1), Value::Float(1.5)]).unwrap();
        t.insert(vec![Value::Int(2), Value::Float(2.5)]).unwrap();
        let snap = Snapshot::latest();
        // Subset, preserving row order.
        assert_eq!(
            t.project_rows(&[1], snap),
            vec![vec![Value::Float(1.5)], vec![Value::Float(2.5)]]
        );
        // Identity selection is the whole-row clone fast path.
        assert_eq!(t.project_rows(&[0, 1], snap), t.latest_rows());
        // No used columns: row count preserved, rows empty.
        assert_eq!(t.project_rows(&[], snap), vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn rids_encode_shard_and_position() {
        assert_eq!(make_rid(0, 7), 7, "one shard: rid is the position");
        let r = make_rid(3, 41);
        assert_eq!(rid_shard(r), 3);
        assert_eq!(rid_pos(r), 41);
        // Shard-major ascending: every rid of shard 2 sorts below every
        // rid of shard 3.
        assert!(make_rid(2, usize::from(u16::MAX)) < make_rid(3, 0));
    }

    #[test]
    fn visibility_follows_begin_end_stamps() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        // Committed at ts 5, still live.
        let i = t.push_version(5, vec![Value::Int(2), Value::Float(2.0)]);
        // Pending insert by txn 9.
        let j = t.push_version(UNCOMMITTED | 9, vec![Value::Int(3), Value::Float(3.0)]);
        let old = Snapshot { ts: 4, txid: 0 };
        let new = Snapshot { ts: 5, txid: 0 };
        let own = Snapshot { ts: 4, txid: 9 };
        assert_eq!(t.view().scan(None, old).count(), 1);
        assert_eq!(t.view().scan(None, new).count(), 2);
        assert_eq!(
            t.view().scan(None, own).count(),
            2,
            "own pending insert is visible"
        );
        // Delete version i at ts 7: snapshots at or after 7 lose it.
        t.end_version(i, 7);
        assert_eq!(t.view().scan(None, Snapshot { ts: 6, txid: 0 }).count(), 2);
        assert_eq!(t.view().scan(None, Snapshot { ts: 7, txid: 0 }).count(), 1);
        // Own pending delete hides the row from its owner only.
        t.commit_begin(j, 9, 8);
        t.end_version(j, UNCOMMITTED | 11);
        assert_eq!(t.view().scan(None, Snapshot { ts: 8, txid: 11 }).count(), 1);
        assert_eq!(t.view().scan(None, Snapshot { ts: 8, txid: 0 }).count(), 2);
    }

    #[test]
    fn compaction_respects_watermark_and_pins() {
        let mut t = Table::new(schema());
        for k in 0..4 {
            t.insert(vec![Value::Int(k), Value::Float(0.0)]).unwrap();
        }
        t.end_version(0, 5);
        t.end_version(1, 9);
        t.revert_insert(2, 0); // not a pending insert of txn 0: no-op
        assert_eq!(t.len(), 2);
        // A pin blocks compaction entirely.
        t.pin();
        assert_eq!(t.compact(10), 0);
        t.unpin();
        // Watermark 5 reclaims only the version that died at ts <= 5.
        assert_eq!(t.compact(5), 1);
        assert_eq!(t.compact(9), 1);
        assert_eq!(t.compact(9), 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn sharded_appends_keep_rids_stable_and_rows_complete() {
        let mut t = Table::new(schema());
        t.set_shard_count(4);
        assert_eq!(t.shard_count(), 4);
        let mut rids = Vec::new();
        for s in 0..4 {
            for k in 0..3 {
                rids.push(t.push_to_shard(
                    s,
                    1,
                    vec![Value::Int((s * 3 + k) as i64), Value::Float(0.0)],
                ));
            }
        }
        // Rids address their versions regardless of other shards' growth.
        let view = t.view();
        for (n, &r) in rids.iter().enumerate() {
            assert_eq!(view.version(r).unwrap().data[0], Value::Int(n as i64));
        }
        // Full-table iteration sees every row once, in rid order.
        let snap = Snapshot { ts: 1, txid: 0 };
        let ids: Vec<i64> = view
            .scan(None, snap)
            .map(|(_, v)| match v.data[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
        drop(view);
        assert_eq!(t.len(), 12);
    }

    #[test]
    fn concurrent_appends_from_threads_preserve_the_multiset() {
        let mut t = Table::new(schema());
        t.set_shard_count(4);
        let t = &t;
        std::thread::scope(|scope| {
            for w in 0..4i64 {
                scope.spawn(move || {
                    for k in 0..50 {
                        let mut ap = t.begin_append();
                        ap.push(1, vec![Value::Int(w * 100 + k), Value::Float(0.0)]);
                    }
                });
            }
        });
        let view = t.view();
        let mut ids: Vec<i64> = view
            .scan(None, Snapshot { ts: 1, txid: 0 })
            .map(|(_, v)| match v.data[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        ids.sort_unstable();
        let want: Vec<i64> = (0..4i64)
            .flat_map(|w| (0..50).map(move |k| w * 100 + k))
            .collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn unique_checks_see_across_shards() {
        let mut t = Table::new(schema());
        t.set_shard_count(2);
        t.push_to_shard(0, 1, vec![Value::Int(7), Value::Float(0.0)]);
        t.push_to_shard(1, 1, vec![Value::Int(7), Value::Float(1.0)]);
        // Build-time validation catches the cross-shard duplicate…
        assert!(t.create_index("u_id", "id", true).is_err());
        assert!(!t.has_unique_index(), "failed build leaves no index");
        // …and after deduplication, probes and conflict checks span shards.
        t.end_version(make_rid(1, 0), 2);
        t.create_index("u_id", "id", true).unwrap();
        let err = t.check_unique(&[vec![Value::Int(7), Value::Float(9.0)]], &[], 0);
        assert!(err.is_err(), "conflict with the shard-0 live row");
        t.check_unique(&[vec![Value::Int(8), Value::Float(9.0)]], &[], 0)
            .unwrap();
    }

    #[test]
    fn per_shard_compaction_skips_only_pinned_shards() {
        let mut t = Table::new(schema());
        t.set_shard_count(2);
        let a = t.push_to_shard(0, 1, vec![Value::Int(0), Value::Float(0.0)]);
        let b = t.push_to_shard(1, 1, vec![Value::Int(1), Value::Float(0.0)]);
        t.end_version(a, 3);
        t.end_version(b, 3);
        t.pin();
        t.unpin_shard(0); // cursor drained shard 0, still parked on shard 1
        assert_eq!(t.compact(5), 1, "only the unpinned shard compacts");
        assert_eq!(t.compact_shards(5), 0, "shard 1 still pinned");
        t.unpin_shard(1);
        assert_eq!(t.compact_shards(5), 1);
    }

    #[test]
    fn case_insensitive_lookup() {
        let s = schema();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("X"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn query_result_column_extraction() {
        let mut q = QueryResult::new(vec!["t".into(), "v".into()]);
        q.rows.push(vec![Value::Timestamp(3600), Value::Float(1.5)]);
        q.rows.push(vec![Value::Timestamp(7200), Value::Int(2)]);
        assert_eq!(q.column_f64("v").unwrap(), vec![1.5, 2.0]);
        assert_eq!(q.column_timestamps("t").unwrap(), vec![3600, 7200]);
        assert!(q.column_f64("missing").is_err());
    }

    #[test]
    fn scalar_of_empty_result_errors() {
        let q = QueryResult::new(vec!["v".into()]);
        assert!(q.scalar().is_err());
    }

    #[test]
    fn ascii_rendering_aligns() {
        let mut q = QueryResult::new(vec!["name".into(), "v".into()]);
        q.rows
            .push(vec![Value::Text("alpha".into()), Value::Int(1)]);
        q.rows.push(vec![Value::Text("b".into()), Value::Int(22)]);
        let s = q.to_ascii();
        assert!(s.contains("name  | v"));
        assert!(s.contains("alpha | 1"));
    }
}
