//! Generational arenas for ledger objects.
//!
//! The ticket/currency graph of Section 3.3 is an arbitrary acyclic graph
//! with shared ownership in both directions (currencies list their issued
//! and backing tickets; tickets name their denomination and funding target).
//! Rather than `Rc<RefCell<..>>` webs, the ledger stores every object in a
//! typed [`Arena`] and links objects with copyable generational handles.
//! A destroyed slot's generation is bumped, so dangling handles are detected
//! rather than silently resolving to a recycled object.

use core::fmt;
use core::marker::PhantomData;

/// Untyped (index, generation) pair underlying every handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RawHandle {
    index: u32,
    generation: u32,
}

impl RawHandle {
    /// Builds a raw handle from parts (used in tests and diagnostics).
    pub fn new(index: u32, generation: u32) -> Self {
        Self { index, generation }
    }

    /// The slot index.
    pub fn index(self) -> u32 {
        self.index
    }

    /// The slot generation this handle expects.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// Typed handle to a `T` stored in an [`Arena<T>`].
pub struct Handle<T> {
    raw: RawHandle,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Handle<T> {
    fn new(raw: RawHandle) -> Self {
        Self {
            raw,
            _marker: PhantomData,
        }
    }

    /// The untyped handle, for diagnostics.
    pub fn raw(self) -> RawHandle {
        self.raw
    }

    /// The slot index; stable for the lifetime of the object.
    pub fn index(self) -> u32 {
        self.raw.index
    }
}

// Manual impls: `derive` would bound them on `T`, but handles are plain ids.
impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}
impl<T> PartialEq for Handle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for Handle<T> {}
impl<T> core::hash::Hash for Handle<T> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}
impl<T> PartialOrd for Handle<T> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Handle<T> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.raw.cmp(&other.raw)
    }
}
impl<T> fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}v{}", self.raw.index, self.raw.generation)
    }
}

/// A table of `V` beside an [`Arena<K>`], keyed by its handles: a `Vec`
/// indexed by [`Handle::index`], so a lookup hashes nothing and iteration
/// is in ascending slot order, the same on every run.
///
/// A slot remembers the generation of the handle that filled it: a stale
/// handle to a recycled slot reads as vacant, never as its successor's.
pub(crate) struct SideTable<K, V> {
    slots: Vec<Option<(u32, V)>>,
    _key: PhantomData<fn() -> K>,
}

impl<K, V> Default for SideTable<K, V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            _key: PhantomData,
        }
    }
}

impl<K, V> SideTable<K, V> {
    /// Number of occupied slots, counted: only tests and instrumentation
    /// ask, so no write keeps a count.
    pub(crate) fn len(&self) -> usize {
        self.iter().count()
    }

    pub(crate) fn get(&self, key: Handle<K>) -> Option<&V> {
        match self.slots.get(key.raw.index as usize) {
            Some(Some((generation, v))) if *generation == key.raw.generation => Some(v),
            _ => None,
        }
    }

    pub(crate) fn get_mut(&mut self, key: Handle<K>) -> Option<&mut V> {
        match self.slots.get_mut(key.raw.index as usize) {
            Some(Some((generation, v))) if *generation == key.raw.generation => Some(v),
            _ => None,
        }
    }

    /// Fills `key`'s slot, replacing whatever it held — `key`'s own value
    /// or one a stale handle left behind.
    pub(crate) fn insert(&mut self, key: Handle<K>, value: V) {
        let slot = key.raw.index as usize;
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot] = Some((key.raw.generation, value));
    }

    pub(crate) fn remove(&mut self, key: Handle<K>) -> Option<V> {
        self.get(key)?;
        self.slots[key.raw.index as usize].take().map(|(_, v)| v)
    }

    /// Values in ascending slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten().map(|(_, v)| v)
    }
}

impl<K, V: fmt::Debug> fmt::Debug for SideTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A generational arena: O(1) insert, remove, and lookup with ABA-safe
/// handles.
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena with room for `capacity` objects, so bulk
    /// population (e.g. a million scheduler clients) does not reallocate
    /// slot storage along the way.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Reserves room for at least `additional` more objects beyond the
    /// currently available free slots.
    pub fn reserve(&mut self, additional: usize) {
        let fresh = additional.saturating_sub(self.free.len());
        self.slots.reserve(fresh);
    }

    /// Creates an empty arena.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots, live or free: every handle's index is below it.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Inserts `value`, returning its handle.
    pub fn insert(&mut self, value: T) -> Handle<T> {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            return Handle::new(RawHandle::new(index, slot.generation));
        }
        let index = u32::try_from(self.slots.len()).expect("arena exceeded u32 slots");
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        Handle::new(RawHandle::new(index, 0))
    }

    /// Removes the object named by `handle`, returning it if it was live.
    pub fn remove(&mut self, handle: Handle<T>) -> Option<T> {
        let slot = self.slots.get_mut(handle.raw.index as usize)?;
        if slot.generation != handle.raw.generation || slot.value.is_none() {
            return None;
        }
        slot.generation = slot.generation.wrapping_add(1);
        self.len -= 1;
        self.free.push(handle.raw.index);
        slot.value.take()
    }

    /// Shared access to the object named by `handle`.
    pub fn get(&self, handle: Handle<T>) -> Option<&T> {
        let slot = self.slots.get(handle.raw.index as usize)?;
        if slot.generation != handle.raw.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Exclusive access to the object named by `handle`.
    pub fn get_mut(&mut self, handle: Handle<T>) -> Option<&mut T> {
        let slot = self.slots.get_mut(handle.raw.index as usize)?;
        if slot.generation != handle.raw.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// Whether `handle` names a live object.
    pub fn contains(&self, handle: Handle<T>) -> bool {
        self.get(handle).is_some()
    }

    /// Iterates over live `(handle, &object)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Handle<T>, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.value
                .as_ref()
                .map(|v| (Handle::new(RawHandle::new(i as u32, slot.generation)), v))
        })
    }

    /// Iterates over live handles in index order.
    pub fn handles(&self) -> impl Iterator<Item = Handle<T>> + '_ {
        self.iter().map(|(h, _)| h)
    }
}

impl<T: fmt::Debug> fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut arena = Arena::new();
        let a = arena.insert("alpha");
        let b = arena.insert("beta");
        assert_eq!(arena.get(a), Some(&"alpha"));
        assert_eq!(arena.get(b), Some(&"beta"));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn remove_invalidates_handle() {
        let mut arena = Arena::new();
        let a = arena.insert(1);
        assert_eq!(arena.remove(a), Some(1));
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.remove(a), None);
        assert!(arena.is_empty());
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut arena = Arena::new();
        let a = arena.insert(1);
        arena.remove(a);
        let b = arena.insert(2);
        // Same slot, different generation: the old handle must not resolve.
        assert_eq!(a.index(), b.index());
        assert_ne!(a, b);
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.get(b), Some(&2));
    }

    #[test]
    fn get_mut_mutates() {
        let mut arena = Arena::new();
        let a = arena.insert(10);
        *arena.get_mut(a).unwrap() += 5;
        assert_eq!(arena.get(a), Some(&15));
    }

    #[test]
    fn iter_skips_dead_slots() {
        let mut arena = Arena::new();
        let a = arena.insert('a');
        let b = arena.insert('b');
        let c = arena.insert('c');
        arena.remove(b);
        let live: Vec<_> = arena.iter().map(|(h, v)| (h, *v)).collect();
        assert_eq!(live, vec![(a, 'a'), (c, 'c')]);
    }

    #[test]
    fn handles_are_copy_and_hashable() {
        use std::collections::HashSet;
        let mut arena = Arena::new();
        let a = arena.insert(());
        let copy = a;
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&copy));
    }

    #[test]
    fn side_table_follows_its_arena_through_slot_reuse() {
        let mut arena = Arena::new();
        let (a, b, c) = (arena.insert('a'), arena.insert('b'), arena.insert('c'));
        let mut table = SideTable::default();
        let values = |t: &SideTable<char, f64>| t.iter().copied().collect::<Vec<_>>();
        table.insert(c, 3.0);
        table.insert(a, 1.0);
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(b), None);

        // Overwriting an occupied slot keeps the count.
        table.insert(a, 1.5);
        assert_eq!((table.len(), table.get(a)), (2, Some(&1.5)));
        *table.get_mut(c).unwrap() += 0.5;
        assert_eq!(values(&table), vec![1.5, 3.5]);

        // A refilled slot: the stale handle reads vacant, before and after
        // the newcomer has an entry of its own.
        arena.remove(a);
        let a2 = arena.insert('A');
        assert_eq!(a2.index(), a.index());
        assert_eq!(table.get(a2), None);
        table.insert(a2, 10.0);
        assert_eq!(table.len(), 2, "the stale entry was replaced, not added to");
        assert_eq!(table.get(a), None);
        assert_eq!(table.get_mut(a), None);
        assert_eq!(table.remove(a), None);
        assert_eq!(table.get(a2), Some(&10.0));

        table.insert(b, 2.0);
        assert_eq!(values(&table), vec![10.0, 2.0, 3.5]);
        assert_eq!(table.remove(b), Some(2.0));
        assert_eq!(table.remove(b), None);
        assert_eq!(table.len(), 2);
        assert_eq!(values(&table), vec![10.0, 3.5]);
    }

    #[test]
    fn debug_formats() {
        let mut arena = Arena::new();
        let h = arena.insert(7);
        let s = format!("{h:?}");
        assert!(s.starts_with('#'), "{s}");
        let s = format!("{arena:?}");
        assert!(s.contains('7'), "{s}");
    }
}
