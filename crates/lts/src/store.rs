//! State stores: the dedup structure behind every frontier.
//!
//! Exploration — whether of a lazy product ([`crate::reach`]) or of a
//! process-algebra term graph (`multival-pa`) — spends its memory in one
//! place: the map from *state* to *dense id* that decides whether a
//! successor is new. A per-key allocating `HashMap` keeps every key as an
//! individually allocated value plus ~48 bytes of table overhead, which
//! caps the frontier well short of the million-state spaces the
//! compositional flow targets (this is the role CADP's BCG state tables
//! play; see DESIGN.md §9).
//!
//! A [`StateStore`] abstracts that map over *packed byte keys*: callers
//! serialize each state once (component-id vectors as varints) and the
//! store owns layout. There is one layout, in two residencies:
//!
//! * [`ArenaStore`] — all keys packed end-to-end in one byte arena, with
//!   an open-addressing fingerprint table (`u64` Fx hash + id per slot).
//!   No per-state allocation, ~12 bytes fixed overhead per state.
//! * [`SpillStore`] — the same arena split into 1 MiB segments; when
//!   resident bytes exceed a memory budget, cold (sealed) segments are
//!   written to a temp file and dropped from memory. The fingerprint
//!   table stays resident, so lookups touch disk only to confirm a
//!   fingerprint match against a spilled key — a rare event.
//!
//! [`make_store`] picks the arena, or the spill store exactly when a
//! budget is given. Both assign ids densely in first-insertion order, so
//! a BFS numbers states identically either way — the differential suite
//! in `tests/` holds them to byte-identical LTS output.

use crate::lts::StateId;
use crate::vbyte::write_uv;
use multival_par::fx::hash_bytes;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters reported by every backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// States interned.
    pub states: usize,
    /// Total packed key bytes (resident + spilled).
    pub key_bytes: usize,
    /// Estimated resident bytes (keys, index, bookkeeping).
    pub mem_bytes: usize,
    /// Key bytes currently paged out to the spill file.
    pub spilled_bytes: usize,
    /// Segments paged out over the store's lifetime.
    pub spilled_segments: usize,
}

impl StoreStats {
    /// Accumulates the counters of another store that ran after this one:
    /// counts add up, `mem_bytes` keeps the larger (peak) footprint.
    pub fn add(&mut self, other: &StoreStats) {
        self.states += other.states;
        self.key_bytes += other.key_bytes;
        self.mem_bytes = self.mem_bytes.max(other.mem_bytes);
        self.spilled_bytes += other.spilled_bytes;
        self.spilled_segments += other.spilled_segments;
    }
}

/// A `packed key → dense id` interning map. Ids start at 0 and follow
/// first-insertion order exactly, whatever the backend.
pub trait StateStore: Send {
    /// Returns the id for `key`, interning it if new; the flag is `true`
    /// when this call inserted the key.
    fn get_or_insert(&mut self, key: &[u8]) -> (StateId, bool);

    /// Number of interned states.
    fn len(&self) -> usize;

    /// `true` when nothing has been interned.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated resident memory, in bytes.
    fn mem_bytes(&self) -> usize;

    /// Counter snapshot.
    fn stats(&self) -> StoreStats;
}

/// The store for one exploration: an [`ArenaStore`], or a [`SpillStore`]
/// paging to disk past `mem_budget` bytes when a budget is given.
pub fn make_store(mem_budget: Option<usize>) -> Box<dyn StateStore> {
    match mem_budget {
        None => Box::new(ArenaStore::new()),
        Some(budget) => Box::new(SpillStore::new(budget)),
    }
}

/// A state that can serialize itself into a packed byte key. The encoding
/// must be *injective*: distinct states produce distinct byte strings.
pub trait PackState {
    /// Appends the packed key to `out` (which is cleared by the caller).
    fn pack(&self, out: &mut Vec<u8>);
}

impl PackState for Vec<StateId> {
    fn pack(&self, out: &mut Vec<u8>) {
        // The length prefix keeps the encoding injective even if keys of
        // different arity ever share a store.
        write_uv(out, self.len() as u64);
        for &s in self {
            write_uv(out, u64::from(s));
        }
    }
}

// ---------------------------------------------------------------------------
// Fingerprint table shared by the packed backends

/// Open-addressing `(fingerprint, id)` table with linear probing. Slots
/// store the full 64-bit Fx hash, so growth never re-reads keys, and a
/// probe only compares key bytes when the fingerprint already matches.
struct FingerprintTable {
    hashes: Vec<u64>,
    ids: Vec<StateId>,
    mask: usize,
}

/// Empty-slot sentinel; state counts are capped far below it.
const EMPTY: StateId = StateId::MAX;

/// The home slot of `hash` in a table of `mask + 1` slots. An Fx hash
/// ends in a multiply, whose low bits depend only on the low bits of its
/// input: packed `Vec<StateId>` keys that differ only in a later varint
/// mostly share them, and slotting on them alone clusters such keys into
/// probe runs hundreds of slots long. Folding the high half in spreads
/// them.
fn home_slot(hash: u64, mask: usize) -> usize {
    ((hash >> 32) ^ hash) as usize & mask
}

impl FingerprintTable {
    fn new() -> Self {
        // Small: explorations of single components are often a handful of
        // states, and growth is cheap since slots keep their hashes.
        let cap = 1 << 4;
        FingerprintTable { hashes: vec![0; cap], ids: vec![EMPTY; cap], mask: cap - 1 }
    }

    /// Finds `hash`: returns the id of a slot whose fingerprint matches
    /// and whose key `confirm`s, or the empty-slot index to insert at.
    fn probe(&self, hash: u64, mut confirm: impl FnMut(StateId) -> bool) -> Result<StateId, usize> {
        let mut idx = home_slot(hash, self.mask);
        loop {
            let id = self.ids[idx];
            if id == EMPTY {
                return Err(idx);
            }
            if self.hashes[idx] == hash && confirm(id) {
                return Ok(id);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    fn insert_at(&mut self, slot: usize, hash: u64, id: StateId) {
        self.hashes[slot] = hash;
        self.ids[slot] = id;
    }

    /// Grows ×2 when the load factor passes 3/4.
    fn maybe_grow(&mut self, len: usize) {
        if len * 4 < (self.mask + 1) * 3 {
            return;
        }
        let new_cap = (self.mask + 1) * 2;
        let mut hashes = vec![0u64; new_cap];
        let mut ids = vec![EMPTY; new_cap];
        let new_mask = new_cap - 1;
        for i in 0..=self.mask {
            let id = self.ids[i];
            if id == EMPTY {
                continue;
            }
            let h = self.hashes[i];
            let mut idx = home_slot(h, new_mask);
            while ids[idx] != EMPTY {
                idx = (idx + 1) & new_mask;
            }
            hashes[idx] = h;
            ids[idx] = id;
        }
        self.hashes = hashes;
        self.ids = ids;
        self.mask = new_mask;
    }

    fn mem_bytes(&self) -> usize {
        self.hashes.len() * (8 + 4)
    }
}

// ---------------------------------------------------------------------------
// ArenaStore

/// Packed arena backend: key bytes end-to-end in one buffer, per-key end
/// offsets, and a fingerprint table. No allocation per state.
pub struct ArenaStore {
    data: Vec<u8>,
    /// `ends[i]` — end offset of key `i` in `data` (start is `ends[i-1]`).
    ends: Vec<u64>,
    table: FingerprintTable,
}

impl Default for ArenaStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ArenaStore {
    /// An empty store.
    pub fn new() -> Self {
        ArenaStore { data: Vec::new(), ends: Vec::new(), table: FingerprintTable::new() }
    }

    /// The packed key bytes of an interned state.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not interned in this store.
    pub fn key(&self, id: StateId) -> &[u8] {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.data[start..self.ends[i] as usize]
    }
}

impl StateStore for ArenaStore {
    fn get_or_insert(&mut self, key: &[u8]) -> (StateId, bool) {
        let hash = hash_bytes(key);
        match self.table.probe(hash, |id| self.key(id) == key) {
            Ok(id) => (id, false),
            Err(slot) => {
                let id = self.ends.len() as StateId;
                self.data.extend_from_slice(key);
                self.ends.push(self.data.len() as u64);
                self.table.insert_at(slot, hash, id);
                self.table.maybe_grow(self.ends.len());
                (id, true)
            }
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn mem_bytes(&self) -> usize {
        self.data.capacity() + self.ends.capacity() * 8 + self.table.mem_bytes()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            states: self.ends.len(),
            key_bytes: self.data.len(),
            mem_bytes: self.mem_bytes(),
            spilled_bytes: 0,
            spilled_segments: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// SpillStore

/// A segment of the spillable arena.
enum Segment {
    /// In memory.
    Resident(Vec<u8>),
    /// Paged out: starts at this offset in the spill file.
    Spilled { offset: u64 },
}

/// Arena backend that pages sealed segments to a temp file once resident
/// bytes exceed the budget. See the module docs for the policy.
pub struct SpillStore {
    segments: Vec<Segment>,
    /// Per key: `(segment, offset in segment, len)`.
    locs: Vec<(u32, u32, u32)>,
    table: FingerprintTable,
    budget: usize,
    resident_key_bytes: usize,
    key_bytes: usize,
    spilled_bytes: usize,
    spilled_segments: usize,
    file: Option<File>,
    path: Option<PathBuf>,
    file_len: u64,
    /// Segment granularity: [`SEGMENT_BYTES`] normally, smaller when the
    /// budget itself is smaller (so tight budgets can still seal + spill).
    segment_bytes: usize,
}

/// Sealed-segment size: big enough that a spill write is one cheap
/// sequential I/O, small enough that the budget is tracked at fine grain.
const SEGMENT_BYTES: usize = 1 << 20;

/// Floor on the adaptive segment size.
const MIN_SEGMENT_BYTES: usize = 4 << 10;

/// Distinguishes spill files of concurrent stores in one process.
static SPILL_SERIAL: AtomicU64 = AtomicU64::new(0);

impl SpillStore {
    /// An empty store with the given resident budget in bytes.
    pub fn new(budget: usize) -> Self {
        let segment_bytes = budget.clamp(MIN_SEGMENT_BYTES, SEGMENT_BYTES);
        SpillStore {
            segments: vec![Segment::Resident(Vec::with_capacity(segment_bytes))],
            locs: Vec::new(),
            table: FingerprintTable::new(),
            budget,
            resident_key_bytes: 0,
            key_bytes: 0,
            spilled_bytes: 0,
            spilled_segments: 0,
            file: None,
            path: None,
            file_len: 0,
            segment_bytes,
        }
    }

    /// Pages sealed resident segments out, oldest first, until resident
    /// memory fits the budget (the active segment always stays resident).
    fn enforce_budget(&mut self) {
        let active = self.segments.len() - 1;
        let mut seg = 0;
        while self.mem_bytes() > self.budget && seg < active {
            if let Segment::Resident(bytes) = &self.segments[seg] {
                let len = bytes.len();
                if len > 0 {
                    if self.file.is_none() {
                        let serial = SPILL_SERIAL.fetch_add(1, Ordering::Relaxed);
                        let path = std::env::temp_dir()
                            .join(format!("multival-spill-{}-{serial}.bin", std::process::id()));
                        let f = OpenOptions::new()
                            .create(true)
                            .truncate(true)
                            .read(true)
                            .write(true)
                            .open(&path)
                            .expect("create spill file");
                        self.path = Some(path);
                        self.file = Some(f);
                    }
                    let file = self.file.as_mut().expect("just created");
                    let Segment::Resident(bytes) = &self.segments[seg] else { unreachable!() };
                    file.seek(SeekFrom::Start(self.file_len))
                        .and_then(|_| file.write_all(bytes))
                        .expect("spill file write");
                    let offset = self.file_len;
                    self.file_len += len as u64;
                    self.resident_key_bytes -= len;
                    self.spilled_bytes += len;
                    self.spilled_segments += 1;
                    self.segments[seg] = Segment::Spilled { offset };
                }
            }
            seg += 1;
        }
    }
}

/// Whether interned key `id` equals `key`; a key in a paged-out segment
/// is read back from the spill file into `buf`.
fn key_equals(
    segments: &[Segment],
    locs: &[(u32, u32, u32)],
    file: &mut Option<File>,
    id: StateId,
    key: &[u8],
    buf: &mut Vec<u8>,
) -> bool {
    let (seg, off, len) = locs[id as usize];
    if len as usize != key.len() {
        return false;
    }
    match &segments[seg as usize] {
        Segment::Resident(bytes) => &bytes[off as usize..(off + len) as usize] == key,
        Segment::Spilled { offset } => {
            let file = file.as_mut().expect("spilled segment implies a spill file");
            buf.resize(key.len(), 0);
            file.seek(SeekFrom::Start(offset + u64::from(off)))
                .and_then(|_| file.read_exact(buf))
                .expect("spill file read");
            buf == key
        }
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        self.file = None;
        if let Some(path) = self.path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl StateStore for SpillStore {
    fn get_or_insert(&mut self, key: &[u8]) -> (StateId, bool) {
        let hash = hash_bytes(key);
        let (segments, locs, file) = (&self.segments, &self.locs, &mut self.file);
        let mut buf = Vec::new();
        let slot = match self
            .table
            .probe(hash, |id| key_equals(segments, locs, file, id, key, &mut buf))
        {
            Ok(id) => return (id, false),
            Err(slot) => slot,
        };

        let id = self.locs.len() as StateId;
        let active = self.segments.len() - 1;
        let seal = match &self.segments[active] {
            Segment::Resident(bytes) => {
                !bytes.is_empty() && bytes.len() + key.len() > self.segment_bytes
            }
            Segment::Spilled { .. } => unreachable!("active segment is always resident"),
        };
        let active = if seal {
            self.segments.push(Segment::Resident(Vec::with_capacity(self.segment_bytes)));
            active + 1
        } else {
            active
        };
        let Segment::Resident(bytes) = &mut self.segments[active] else {
            unreachable!("active segment is always resident")
        };
        let off = bytes.len() as u32;
        bytes.extend_from_slice(key);
        self.locs.push((active as u32, off, key.len() as u32));
        self.resident_key_bytes += key.len();
        self.key_bytes += key.len();
        self.table.insert_at(slot, hash, id);
        self.table.maybe_grow(self.locs.len());
        self.enforce_budget();
        (id, true)
    }

    fn len(&self) -> usize {
        self.locs.len()
    }

    fn mem_bytes(&self) -> usize {
        self.resident_key_bytes + self.locs.capacity() * 12 + self.table.mem_bytes()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            states: self.locs.len(),
            key_bytes: self.key_bytes,
            mem_bytes: self.mem_bytes(),
            spilled_bytes: self.spilled_bytes,
            spilled_segments: self.spilled_segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random key stream with repeats.
    fn keys(n: usize) -> Vec<Vec<u8>> {
        let mut x: u64 = 0x9e3779b97f4a7c15;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let len = 1 + (x % 23) as usize;
                let modulus = 1 + (n as u64 / 2); // force repeats
                let v = x % modulus;
                let mut k = Vec::with_capacity(len);
                for i in 0..len {
                    k.push((v >> (8 * (i % 8))) as u8);
                }
                k
            })
            .collect()
    }

    fn drive(store: &mut dyn StateStore, keys: &[Vec<u8>]) -> Vec<(StateId, bool)> {
        keys.iter().map(|k| store.get_or_insert(k)).collect()
    }

    #[test]
    fn backends_agree_on_ids_and_novelty() {
        let ks = keys(5_000);
        let mut arena = ArenaStore::new();
        let mut spill = SpillStore::new(1); // pathological budget: spill everything
        let a = drive(&mut arena, &ks);
        let b = drive(&mut spill, &ks);
        assert_eq!(a, b);
        assert_eq!(arena.len(), spill.len());
        assert!(spill.stats().spilled_segments > 0 || spill.stats().key_bytes < SEGMENT_BYTES);
        // Without a budget the store is the arena; with one it spills.
        let mut store = make_store(None);
        assert_eq!(drive(store.as_mut(), &ks), a);
        let mut store = make_store(Some(1));
        assert_eq!(drive(store.as_mut(), &ks), a);
        assert!(store.stats().spilled_segments > 0);
    }

    /// Mean linear-probe length over a walk of every occupied slot: the
    /// number of slots a lookup of that slot's key inspects.
    fn mean_probe_len(table: &FingerprintTable) -> f64 {
        let (mut total, mut occupied) = (0usize, 0usize);
        for (i, &id) in table.ids.iter().enumerate() {
            if id != EMPTY {
                let home = home_slot(table.hashes[i], table.mask);
                total += (i.wrapping_sub(home) & table.mask) + 1;
                occupied += 1;
            }
        }
        total as f64 / occupied as f64
    }

    #[test]
    fn packed_pair_keys_do_not_cluster() {
        // Product states of two components, packed as the explorers pack
        // them: these keys differ mostly in their high bytes.
        let mut store = ArenaStore::new();
        let mut key = Vec::new();
        for a in 0..256u32 {
            for b in 0..128u32 {
                key.clear();
                vec![a, b].pack(&mut key);
                assert!(store.get_or_insert(&key).1);
            }
        }
        assert_eq!(store.len(), 1 << 15);
        let mean = mean_probe_len(&store.table);
        assert!(mean < 4.0, "mean probe length {mean:.1} slots");
    }

    #[test]
    fn ids_are_dense_insertion_order() {
        let mut store = ArenaStore::new();
        assert_eq!(store.get_or_insert(b"a"), (0, true));
        assert_eq!(store.get_or_insert(b"bb"), (1, true));
        assert_eq!(store.get_or_insert(b"a"), (0, false));
        assert_eq!(store.get_or_insert(b""), (2, true));
        assert_eq!(store.get_or_insert(b"bb"), (1, false));
        assert_eq!(store.len(), 3);
        assert_eq!(store.key(2), b"");
    }

    #[test]
    fn spill_store_respects_budget_and_still_answers() {
        let mut store = SpillStore::new(64 << 10);
        let ks = keys(20_000);
        let first = drive(&mut store, &ks);
        // Every repeat probe must hit the same id, even for spilled keys.
        let again = drive(&mut store, &ks);
        for (i, ((id1, _), (id2, new2))) in first.iter().zip(&again).enumerate() {
            assert_eq!(id1, id2, "key {i} changed id");
            assert!(!new2, "key {i} reinserted");
        }
        let stats = store.stats();
        assert!(stats.spilled_segments > 0, "budget should have forced a spill");
        assert!(stats.spilled_bytes > 0);
        // Resident memory stays near the budget: the table itself is
        // allowed to exceed it, but key bytes must have been paged out.
        assert!(store.resident_key_bytes < stats.key_bytes);
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let path;
        {
            let mut store = SpillStore::new(1);
            let ks = keys(4_000);
            drive(&mut store, &ks);
            path = store.path.clone();
            assert!(path.as_ref().is_some_and(|p| p.exists()));
        }
        assert!(!path.expect("spill happened").exists());
    }

    #[test]
    fn pack_state_is_injective_on_vectors() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        vec![1u32, 2].pack(&mut a);
        vec![1u32, 2, 0].pack(&mut b);
        assert_ne!(a, b);
    }
}
