//! A generational slab of reusable slots, laid out struct-of-arrays.
//!
//! The request hot path used to key in-flight I/O state by command id
//! in a `BTreeMap`, paying an allocation plus a tree walk per I/O.
//! [`Slab`] replaces that with an O(1) vector slot reused across
//! requests: [`insert`](Slab::insert) hands back a [`SlotId`] that
//! encodes both the slot index and a generation counter, so a stale id
//! (kept across a remove/reuse) can never alias a newer occupant.
//!
//! # Layout: struct-of-arrays
//!
//! The slab stores its hot metadata — the per-slot generation counter
//! every liveness check reads — in a dense `Vec<u32>` lane separate
//! from the payload lane (`Vec<Option<T>>`). Sixteen generations share
//! a cache line, so validating a burst of completion ids touches a
//! handful of lines regardless of how large the payload type is; the
//! payload line is only pulled once the check passes. The previous
//! array-of-structs layout interleaved a 4-byte generation with each
//! payload, striding the checks across the whole arena.
//!
//! Determinism note: slot indices are allocated from a LIFO free list,
//! which makes ids a pure function of the insert/remove sequence —
//! the same schedule always yields the same ids. Nothing in the slab
//! depends on addresses, hashing or wall time.

/// Handle to an occupied [`Slab`] slot: slot index in the low 32 bits,
/// generation in the high 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(u64);

impl SlotId {
    #[inline]
    fn new(index: u32, generation: u32) -> Self {
        SlotId(u64::from(generation) << 32 | u64::from(index))
    }

    /// The slot index this id refers to.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A generational arena of reusable slots.
///
/// # Examples
///
/// ```
/// use ull_simkit::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.get(a), Some(&"alpha"));
/// assert_eq!(slab.remove(a), Some("alpha"));
/// // The freed slot is reused, but under a new generation: the old id
/// // can no longer see the new occupant.
/// let c = slab.insert("gamma");
/// assert_eq!(c.index(), a.index());
/// assert_eq!(slab.get(a), None);
/// assert_eq!(slab.get(c), Some(&"gamma"));
/// assert_eq!(slab.get(b), Some(&"beta"));
/// ```
pub struct Slab<T> {
    /// Hot lane: per-slot generation counters, dense. Parallel to
    /// `values`; grown in lockstep.
    generations: Vec<u32>,
    /// Cold lane: the payloads. `Some` iff the slot is occupied.
    values: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            generations: Vec::new(),
            values: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty slab with room for `cap` values before any
    /// backing reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            generations: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Stores `value`, reusing a freed slot when one is available, and
    /// returns its id.
    #[inline]
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            self.values[index as usize] = Some(value);
            SlotId::new(index, self.generations[index as usize])
        } else {
            let index = self.generations.len() as u32;
            self.generations.push(0);
            self.values.push(Some(value));
            SlotId::new(index, 0)
        }
    }

    /// Removes and returns the value at `id`, or `None` if the id is
    /// stale or the slot is vacant. The slot becomes reusable under the
    /// next generation.
    #[inline]
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let generation = self.generations.get_mut(id.index())?;
        if *generation != id.generation() {
            return None;
        }
        let value = self.values[id.index()].take()?;
        *generation = generation.wrapping_add(1);
        self.free.push(id.index() as u32);
        self.len -= 1;
        Some(value)
    }

    /// Borrows the value at `id`, or `None` if the id is stale or the
    /// slot is vacant.
    #[inline]
    pub fn get(&self, id: SlotId) -> Option<&T> {
        if *self.generations.get(id.index())? != id.generation() {
            return None;
        }
        self.values[id.index()].as_ref()
    }

    /// Mutably borrows the value at `id`, or `None` if the id is stale
    /// or the slot is vacant.
    #[inline]
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        if *self.generations.get(id.index())? != id.generation() {
            return None;
        }
        self.values[id.index()].as_mut()
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no slots are occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> std::fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slab")
            .field("len", &self.len)
            .field("capacity", &self.generations.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let ids: Vec<_> = (0..10).map(|i| s.insert(i * i)).collect();
        assert_eq!(s.len(), 10);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.get(id), Some(&(i * i)));
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.remove(id), Some(i * i));
            assert_eq!(s.remove(id), None, "double-remove must miss");
        }
        assert!(s.is_empty());
    }

    #[test]
    fn stale_ids_never_alias_new_occupants() {
        let mut s = Slab::new();
        let a = s.insert("old");
        s.remove(a);
        let b = s.insert("new");
        assert_eq!(b.index(), a.index(), "slot is reused");
        assert_ne!(a, b);
        assert_eq!(s.get(a), None);
        assert_eq!(s.get_mut(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&"new"));
    }

    #[test]
    fn free_list_is_lifo_and_deterministic() {
        let mut s = Slab::with_capacity(4);
        let a = s.insert(1);
        let b = s.insert(2);
        s.remove(a);
        s.remove(b);
        // LIFO: b's slot comes back first, then a's.
        assert_eq!(s.insert(3).index(), b.index());
        assert_eq!(s.insert(4).index(), a.index());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s = Slab::new();
        let id = s.insert(41);
        if let Some(v) = s.get_mut(id) {
            *v += 1;
        }
        assert_eq!(s.remove(id), Some(42));
    }
}
