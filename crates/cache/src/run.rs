//! Request sequences in the form the wire carries them.
//!
//! A [`PageRun`] is one processor's request sequence as a *page run*: a
//! `u64` base and one 1-, 2-, 4- or 8-byte offset per page, the form
//! [`crate::SnapWriter::put_page_run`] writes and
//! [`crate::SnapReader::get_run`] reads. A box serves a sequence forward
//! from its cursor, one page at a time, so nothing needs the pages as
//! 8-byte ids: [`crate::run_window`] reads a run through its offsets, one
//! body monomorphised per offset width.
//!
//! [`Sequences`] is what the engine holds of a batch: either expanded pages
//! or runs, chosen once per batch by the [`Sequence`] element type.

use std::ops::Range;

use crate::checkpoint::WordDigest;
use crate::policy::Cache;
use crate::types::{PageId, Time};
use crate::window::{run_window, Pages, WindowOutcome};

/// A page run's offset type: `u8`, `u16`, `u32` or `u64` for widths 1,
/// 2, 4 and 8.
pub(crate) trait Offset: Copy + Ord + Default + Into<u64> + 'static {
    const MAX: Self;
    /// Reads one little-endian offset from exactly its width in bytes.
    fn read(le: &[u8]) -> Self;
}

macro_rules! offset {
    ($($t:ty),*) => {$(
        impl Offset for $t {
            const MAX: Self = <$t>::MAX;
            fn read(le: &[u8]) -> Self {
                <$t>::from_le_bytes(le.try_into().expect("one offset's bytes"))
            }
        }
    )*};
}
offset!(u8, u16, u32, u64);

/// The little-endian `O` offsets in `raw`, whose length is a multiple of
/// their width.
pub(crate) fn read_le<O: Offset>(raw: &[u8]) -> impl Iterator<Item = O> + '_ {
    raw.chunks_exact(std::mem::size_of::<O>()).map(O::read)
}

/// Page `base + offset`: the one expansion of a run, for offsets it holds
/// or their wire bytes. A run never holds a page past `u64::MAX` (checked
/// where it is built), so the sum cannot wrap.
#[inline]
fn at<O: Offset>(base: u64, offset: O) -> PageId {
    PageId(base + offset.into())
}

/// The narrowest width in {1, 2, 4, 8} bytes that holds `offset`.
pub(crate) fn offset_width(offset: u64) -> usize {
    match offset {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

/// A run's offsets, in their own width.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Offsets {
    W1(Box<[u8]>),
    W2(Box<[u16]>),
    W4(Box<[u32]>),
    W8(Box<[u64]>),
}

/// Calls `$f` with the run's offsets as a slice of their own type.
macro_rules! with_offsets {
    ($offsets:expr, $o:ident => $f:expr) => {
        match $offsets {
            Offsets::W1($o) => $f,
            Offsets::W2($o) => $f,
            Offsets::W4($o) => $f,
            Offsets::W8($o) => $f,
        }
    };
}

/// One request sequence as a page run: page `i` is `base + offsets[i]`.
///
/// It holds 1, 2, 4 or 8 bytes per page, the width its wire form had, and
/// is read in place: [`Sequences::window`] serves it through a cache and
/// [`PageRun::to_pages`] expands it. Equal runs hold equal pages; a run
/// built by [`PageRun::from_pages`] or decoded from the wire is in its
/// canonical form (the smallest page as base, the narrowest width).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageRun {
    base: u64,
    offsets: Offsets,
}

impl Default for PageRun {
    /// The empty run.
    fn default() -> Self {
        PageRun {
            base: 0,
            offsets: Offsets::W1(Box::default()),
        }
    }
}

/// A run's pages as [`Pages`]: `base` plus each offset.
struct Based<'a, O> {
    base: u64,
    offsets: &'a [O],
}

impl<O: Offset> Pages for Based<'_, O> {
    #[inline]
    fn len(&self) -> usize {
        self.offsets.len()
    }

    #[inline]
    fn pages_from(&self, start: usize) -> impl Iterator<Item = PageId> + '_ {
        let base = self.base;
        let rest = self.offsets.get(start..).unwrap_or_default();
        rest.iter().map(move |&o| at(base, o))
    }
}

impl PageRun {
    /// The canonical run of `pages`: the smallest page as base, offsets in
    /// the narrowest width that holds the largest.
    pub fn from_pages(pages: &[PageId]) -> PageRun {
        let Some((base, width)) = run_shape(pages) else {
            return PageRun::default();
        };
        fn offsets<O: TryFrom<u64>>(pages: &[PageId], base: u64) -> Box<[O]> {
            let narrow = |pg: &PageId| O::try_from(pg.0 - base).ok().expect("width fits");
            pages.iter().map(narrow).collect()
        }
        let offsets = match width {
            1 => Offsets::W1(offsets(pages, base)),
            2 => Offsets::W2(offsets(pages, base)),
            4 => Offsets::W4(offsets(pages, base)),
            _ => Offsets::W8(offsets(pages, base)),
        };
        PageRun { base, offsets }
    }

    /// The run of the little-endian `width`-byte offsets in `raw` from
    /// `base`, which the caller has validated.
    pub(crate) fn from_le(base: u64, width: usize, raw: &[u8]) -> PageRun {
        let offsets = match width {
            1 => Offsets::W1(read_le(raw).collect()),
            2 => Offsets::W2(read_le(raw).collect()),
            4 => Offsets::W4(read_le(raw).collect()),
            _ => Offsets::W8(read_le(raw).collect()),
        };
        PageRun { base, offsets }
    }

    /// The pages of the run [`PageRun::from_le`] would build, expanded
    /// straight from `raw` without building it.
    pub(crate) fn pages_from_le(base: u64, width: usize, raw: &[u8]) -> Vec<PageId> {
        match width {
            1 => read_le::<u8>(raw).map(|o| at(base, o)).collect(),
            2 => read_le::<u16>(raw).map(|o| at(base, o)).collect(),
            4 => read_le::<u32>(raw).map(|o| at(base, o)).collect(),
            _ => read_le::<u64>(raw).map(|o| at(base, o)).collect(),
        }
    }

    /// Requests in the run.
    pub fn len(&self) -> usize {
        with_offsets!(&self.offsets, o => o.len())
    }

    /// `true` for the empty run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per offset: 1, 2, 4 or 8.
    pub fn width(&self) -> usize {
        match self.offsets {
            Offsets::W1(_) => 1,
            Offsets::W2(_) => 2,
            Offsets::W4(_) => 4,
            Offsets::W8(_) => 8,
        }
    }

    /// The run's pages, expanded.
    pub fn to_pages(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.len());
        self.extend_pages(0..self.len(), &mut out);
        out
    }

    /// Appends pages `range` of the run to `out`.
    pub(crate) fn extend_pages(&self, range: Range<usize>, out: &mut Vec<PageId>) {
        fn extend<O: Offset>(base: u64, offsets: &[O], out: &mut Vec<PageId>) {
            out.extend(offsets.iter().map(|&o| at(base, o)));
        }
        with_offsets!(&self.offsets, o => extend(self.base, &o[range], out))
    }

    /// [`run_window`] over the run's pages: serves `start..` through
    /// `cache` for at most `budget` steps.
    pub(crate) fn window<C: Cache>(
        &self,
        start: usize,
        cache: &mut C,
        budget: Time,
        miss_penalty: u64,
    ) -> WindowOutcome {
        with_offsets!(&self.offsets, o => {
            let pages = Based { base: self.base, offsets: &o[..] };
            run_window(&pages, start, cache, budget, miss_penalty)
        })
    }

    /// Writes the run's pages into `d`, exactly as
    /// [`WordDigest::write_pages`] of [`PageRun::to_pages`] would.
    pub(crate) fn digest_into(&self, d: &mut WordDigest) {
        let base = self.base;
        with_offsets!(&self.offsets, o => d.write_mapped(o, |o| at(base, o).0))
    }
}

/// A non-empty run's base (its smallest page) and offset width.
pub(crate) fn run_shape(pages: &[PageId]) -> Option<(u64, usize)> {
    if pages.is_empty() {
        return None;
    }
    // Eight running minima and maxima, so the comparisons do not wait on
    // one another.
    let (mut lo, mut hi) = ([u64::MAX; 8], [0u64; 8]);
    let chunks = pages.chunks_exact(8);
    for pg in chunks.remainder() {
        (lo[0], hi[0]) = (lo[0].min(pg.0), hi[0].max(pg.0));
    }
    for chunk in chunks {
        for (i, pg) in chunk.iter().enumerate() {
            (lo[i], hi[i]) = (lo[i].min(pg.0), hi[i].max(pg.0));
        }
    }
    let (min, max) = (
        lo.into_iter().fold(u64::MAX, u64::min),
        hi.into_iter().fold(0, u64::max),
    );
    Some((min, offset_width(max - min)))
}

/// A batch's request sequences as the engine reads them: borrowed expanded
/// pages, or borrowed page runs. Either way processor `x`'s sequence is
/// served forward from a cursor through [`Sequences::window`].
#[derive(Clone, Copy, Debug)]
pub enum Sequences<'a> {
    /// One `Vec<PageId>` per processor.
    Pages(&'a [Vec<PageId>]),
    /// One [`PageRun`] per processor.
    Runs(&'a [PageRun]),
}

impl<'a> Sequences<'a> {
    /// Number of sequences (processors).
    pub fn len(&self) -> usize {
        match self {
            Sequences::Pages(s) => s.len(),
            Sequences::Runs(s) => s.len(),
        }
    }

    /// `true` when there are no sequences.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests in sequence `x`.
    pub fn seq_len(&self, x: usize) -> usize {
        match self {
            Sequences::Pages(s) => s[x].len(),
            Sequences::Runs(s) => s[x].len(),
        }
    }

    /// Requests over all sequences.
    pub fn total_len(&self) -> usize {
        (0..self.len()).map(|x| self.seq_len(x)).sum()
    }

    /// [`run_window`] over sequence `x` from `start`.
    pub fn window<C: Cache>(
        &self,
        x: usize,
        start: usize,
        cache: &mut C,
        budget: Time,
        miss_penalty: u64,
    ) -> WindowOutcome {
        match self {
            Sequences::Pages(s) => run_window(&s[x][..], start, cache, budget, miss_penalty),
            Sequences::Runs(s) => s[x].window(start, cache, budget, miss_penalty),
        }
    }

    /// Pages `range` of sequence `x` as a slice: borrowed from expanded
    /// pages, or expanded from a run into `scratch`.
    pub fn served<'s>(
        &self,
        x: usize,
        range: Range<usize>,
        scratch: &'s mut Vec<PageId>,
    ) -> &'s [PageId]
    where
        'a: 's,
    {
        match self {
            Sequences::Pages(s) => &s[x][range],
            Sequences::Runs(s) => {
                scratch.clear();
                s[x].extend_pages(range, scratch);
                scratch
            }
        }
    }

    /// Writes sequence `x`'s pages into `d` (see [`WordDigest::write_pages`]).
    pub fn digest_into(&self, x: usize, d: &mut WordDigest) {
        match self {
            Sequences::Pages(s) => d.write_pages(&s[x]),
            Sequences::Runs(s) => s[x].digest_into(d),
        }
    }
}

/// Pages `range` of one sequence, as a window served them: borrowed from
/// expanded pages, or read from a run only when a policy asks for them.
#[derive(Debug)]
pub struct Served<'s> {
    seqs: Sequences<'s>,
    x: usize,
    range: Range<usize>,
    scratch: &'s mut Vec<PageId>,
}

impl<'s> Served<'s> {
    /// Pages `range` of sequence `x` of `seqs`; `scratch` holds a run's
    /// pages if [`Served::pages`] needs them as a slice.
    pub fn new(
        seqs: Sequences<'s>,
        x: usize,
        range: Range<usize>,
        scratch: &'s mut Vec<PageId>,
    ) -> Self {
        Served {
            seqs,
            x,
            range,
            scratch,
        }
    }

    /// The pages as a slice: borrowed, or expanded from a run into the
    /// scratch buffer.
    pub fn pages(self) -> &'s [PageId] {
        self.seqs.served(self.x, self.range, self.scratch)
    }

    /// Appends the pages to `out`, copying each once whatever the form.
    pub fn append_to(self, out: &mut Vec<PageId>) {
        match self.seqs {
            Sequences::Pages(s) => out.extend_from_slice(&s[self.x][self.range]),
            Sequences::Runs(s) => s[self.x].extend_pages(self.range, out),
        }
    }
}

/// An element type the engine serves a batch from: `Vec<PageId>` or
/// [`PageRun`]. Entry points take `&[S]` for any `S: Sequence`, so a
/// slice, a `&Vec` or an array of either form is accepted as is.
pub trait Sequence: Sized {
    /// The batch `all` as [`Sequences`].
    fn sequences(all: &[Self]) -> Sequences<'_>;
}

impl Sequence for Vec<PageId> {
    fn sequences(all: &[Self]) -> Sequences<'_> {
        Sequences::Pages(all)
    }
}

impl Sequence for PageRun {
    fn sequences(all: &[Self]) -> Sequences<'_> {
        Sequences::Runs(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(vals: &[u64]) -> Vec<PageId> {
        vals.iter().map(|&v| PageId(v)).collect()
    }

    #[test]
    fn from_pages_picks_the_smallest_base_and_narrowest_width() {
        let cases: [(&[u64], u64, usize); 5] = [
            (&[7], 7, 1),
            (&[0x1_0005, 0x1_0002, 0x1_0102], 0x1_0002, 2),
            (&[5, 5 + 0x1_0000], 5, 4),
            (&[u64::MAX, 0], 0, 8),
            (&[300, 300 + 255], 300, 1),
        ];
        for (vals, base, width) in cases {
            let run = PageRun::from_pages(&pages(vals));
            assert_eq!((run.base, run.width()), (base, width), "{vals:?}");
            assert_eq!(run.to_pages(), pages(vals));
            assert_eq!(run.len(), vals.len());
        }
        assert!(PageRun::from_pages(&[]).is_empty());
        assert_eq!(PageRun::from_pages(&[]), PageRun::default());
    }
}
