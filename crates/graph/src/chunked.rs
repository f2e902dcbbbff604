//! Copy-on-write chunked storage for the per-user table.
//!
//! A [`Chunked`] sequence keeps its elements in fixed-size chunks behind
//! `Arc`s. Cloning it copies one pointer per chunk; writing through
//! [`Chunked::get_mut`] or [`Chunked::push`] copies only the chunk it
//! lands in, and only when that chunk is still shared. This is what
//! makes a live-world generation (`Network::clone` plus a handful of
//! events) cost O(events applied) rather than O(users).

use std::sync::Arc;

/// Elements per chunk. A chunk of `User`s copies in tens of
/// microseconds, and a 1.15M-user city needs under 5k chunk pointers.
pub(crate) const CHUNK: usize = 256;

/// An append-only, index-addressed sequence of copy-on-write chunks.
/// Every chunk but the last holds exactly [`CHUNK`] elements.
#[derive(Clone, Debug)]
pub(crate) struct Chunked<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked { chunks: Vec::new(), len: 0 }
    }
}

impl<T: Clone> Chunked<T> {
    /// Reserve chunk slots for `additional` more elements.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let want = (self.len + additional).div_ceil(CHUNK);
        self.chunks.reserve(want.saturating_sub(self.chunks.len()));
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / CHUNK).and_then(|c| c.get(i % CHUNK))
    }

    /// Mutable access to element `i`, copying its chunk first if
    /// another clone still shares it. Panics when out of range.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }

    /// Append `v`, opening a new chunk at every [`CHUNK`] boundary.
    pub(crate) fn push(&mut self, v: T) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let last = self.chunks.last_mut().expect("a chunk was just ensured");
        Arc::make_mut(last).push(v);
        self.len += 1;
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// The chunk table, for sharing checks.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> &[Arc<Vec<T>>] {
        &self.chunks
    }
}

impl<T: Clone> std::ops::Index<usize> for Chunked<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T: Clone> FromIterator<T> for Chunked<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut c = Chunked::default();
        for v in items {
            c.push(v);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_across_chunk_boundaries() {
        let c: Chunked<usize> = (0..CHUNK * 2 + 3).collect();
        assert_eq!(c.len(), CHUNK * 2 + 3);
        assert_eq!(c.chunks().len(), 3);
        for i in 0..c.len() {
            assert_eq!(c[i], i);
            assert_eq!(c.get(i), Some(&i));
        }
        assert_eq!(c.get(c.len()), None);
        assert!(c.iter().copied().eq(0..c.len()));
    }

    #[test]
    fn writes_copy_only_the_touched_chunk() {
        let a: Chunked<usize> = (0..CHUNK * 3).collect();
        let mut b = a.clone();
        *b.get_mut(CHUNK + 1) = 7;
        b.push(9);
        assert_eq!(a[CHUNK + 1], CHUNK + 1, "the original never sees the write");
        assert_eq!(a.len(), CHUNK * 3);
        assert_eq!((b[CHUNK + 1], b[CHUNK * 3]), (7, 9));
        let shared: Vec<bool> =
            a.chunks().iter().zip(b.chunks()).map(|(x, y)| Arc::ptr_eq(x, y)).collect();
        assert_eq!(shared, [true, false, true]);
    }
}
