//! Bump-arena storage for the engine's grow-only run state.
//!
//! The engine accumulates several append-only ledgers over a run — height
//! deltas for the peak-memory audit, per-processor timelines, trace events
//! in recording sinks. Backing them with one `Vec` works until the run gets
//! long: every doubling reallocates and *copies the entire history*, so a
//! 10^7-event ledger pays tens of full-ledger memcpys, and the peak
//! footprint during a doubling is 1.5× the ledger (old + new buffer live at
//! once).
//!
//! [`ChunkVec`] is the arena alternative: storage is a list of fixed-size
//! chunks, `push` bump-allocates into the current chunk and starts a new
//! one when full. Properties the engine relies on:
//!
//! * **No copies, ever.** A full chunk is never moved; growth allocates one
//!   new chunk and touches nothing else. Push is O(1) worst-case, not just
//!   amortized.
//! * **Wholesale reclamation.** [`ChunkVec::clear`] retires the whole run's
//!   ledger at once, *retaining* the allocated chunks, so a reused engine
//!   (bench loops, supervisors restarting epochs) allocates only on its
//!   first run.
//!
//! The element type is `Copy` (ledger entries are small PODs), which keeps
//! `clear` trivially correct — nothing to drop.

/// Elements per chunk. 4096 × 16-byte entries = 64 KiB chunks: big enough
/// to amortize the per-chunk allocation to noise, small enough that the
/// tail chunk's slack is irrelevant.
const CHUNK: usize = 4096;

/// An append-only bump-allocated vector: chunked storage, O(1) worst-case
/// push, no reallocation-copies, wholesale clear.
#[derive(Clone, Debug)]
pub struct ChunkVec<T: Copy> {
    chunks: Vec<Vec<T>>,
    /// Total elements (cached; also derivable from the chunk list).
    len: usize,
}

impl<T: Copy> Default for ChunkVec<T> {
    fn default() -> Self {
        ChunkVec::new()
    }
}

impl<T: Copy> ChunkVec<T> {
    /// An empty arena (no chunks allocated until the first push).
    pub fn new() -> Self {
        ChunkVec {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `value`; never moves previously pushed elements.
    ///
    /// Invariant: chunk `len / CHUNK` is the active one — every chunk
    /// before it is full, every chunk after it (retained by `clear`) is
    /// empty.
    #[inline]
    pub fn push(&mut self, value: T) {
        let idx = self.len / CHUNK;
        if idx == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks[idx].push(value);
        self.len += 1;
    }

    /// Drops every element while *retaining* chunk allocations for reuse.
    pub fn clear(&mut self) {
        for chunk in &mut self.chunks {
            chunk.clear();
        }
        self.len = 0;
    }

    /// Iterates every element in push order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Copies the whole arena into one contiguous `Vec` (checkpoint
    /// encoding and final-result sorting want a flat buffer).
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter().copied());
        out
    }

    /// Replaces the contents with `items` (snapshot restore).
    pub fn assign(&mut self, items: &[T]) {
        self.clear();
        for &it in items {
            self.push(it);
        }
    }
}

impl<T: Copy> Extend<T> for ChunkVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for it in iter {
            self.push(it);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate_across_chunk_boundaries() {
        let mut v = ChunkVec::new();
        let n = CHUNK * 2 + 37;
        for i in 0..n {
            v.push(i);
        }
        assert_eq!(v.len(), n);
        assert!(!v.is_empty());
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected, (0..n).collect::<Vec<_>>());
        assert_eq!(v.to_vec(), collected);
    }

    #[test]
    fn clear_retains_chunks_and_reuses_them() {
        let mut v = ChunkVec::new();
        for i in 0..CHUNK + 5 {
            v.push(i);
        }
        let chunks_before = v.chunks.len();
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.chunks.len(), chunks_before, "chunks retained");
        for i in 0..CHUNK + 5 {
            v.push(i * 2);
        }
        assert_eq!(v.chunks.len(), chunks_before, "no new allocation");
        assert_eq!(v.len(), CHUNK + 5);
        assert_eq!(v.iter().copied().nth(CHUNK + 4), Some((CHUNK + 4) * 2));
    }

    #[test]
    fn assign_round_trips() {
        let mut v = ChunkVec::new();
        v.push(1u32);
        v.assign(&[7, 8, 9]);
        assert_eq!(v.to_vec(), vec![7, 8, 9]);
        v.assign(&[]);
        assert!(v.is_empty());
    }

    #[test]
    fn extend_appends() {
        let mut v = ChunkVec::new();
        v.extend([1i64, 2, 3]);
        v.extend([4, 5]);
        assert_eq!(v.to_vec(), vec![1, 2, 3, 4, 5]);
    }
}
