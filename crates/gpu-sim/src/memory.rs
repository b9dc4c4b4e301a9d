//! Device memory: atomic-backed buffers with traffic metering hooks.
//!
//! CUDA kernels freely race on global memory (disjoint writes, atomics,
//! last-write-wins). To model that soundly in Rust while still running
//! thread blocks in parallel on host threads, every [`DeviceBuffer`]
//! element is stored in an atomic cell (`AtomicU32`/`AtomicU64`) and
//! accessed with `Relaxed` ordering — which on x86 compiles to plain
//! loads and stores, so the functional simulation stays fast.
//!
//! Buffers are cheaply clonable handles (`Arc` internally), mirroring
//! how device pointers are copied into kernel parameters.
//!
//! Host staging is one pass: a buffer built from a host slice
//! ([`DeviceBuffer::from_slice`], the metered [`Gpu::htod`](crate::Gpu::htod))
//! constructs its cells straight from the slice and marks its
//! sanitizer shadow valid once, and readbacks ([`DeviceBuffer::to_vec`],
//! [`DeviceBuffer::copy_range`], [`Gpu::dtoh_range`](crate::Gpu::dtoh_range)) check their
//! bounds once up front and then copy the cells in order.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::sanitizer::{BufferShadow, ShadowToken};
use crate::SimError;

/// An atomic storage cell for one device word.
///
/// Implemented by [`AtomicU32`] and [`AtomicU64`]; `Raw` is the plain
/// integer the cell holds. All operations use `Relaxed` ordering except
/// [`AtomicCell::fetch_add_sync`], which is `AcqRel` and used by the
/// "last block" pattern (see [`crate::exec::BlockCtx::mark_block_done`]).
pub trait AtomicCell: Default + Send + Sync + 'static {
    /// The plain integer type held by the cell.
    type Raw: Copy + Eq + Send + Sync + std::fmt::Debug + 'static;

    /// A cell holding `v`.
    fn new(v: Self::Raw) -> Self;
    /// Relaxed load.
    fn load(&self) -> Self::Raw;
    /// Relaxed store.
    fn store(&self, v: Self::Raw);
    /// Relaxed wrapping fetch-add; returns the previous value.
    fn fetch_add(&self, v: Self::Raw) -> Self::Raw;
    /// Acquire-release fetch-add for cross-block synchronisation.
    fn fetch_add_sync(&self, v: Self::Raw) -> Self::Raw;
    /// Relaxed fetch-min (unsigned comparison); returns previous value.
    fn fetch_min(&self, v: Self::Raw) -> Self::Raw;
    /// Relaxed fetch-max (unsigned comparison); returns previous value.
    fn fetch_max(&self, v: Self::Raw) -> Self::Raw;
    /// Relaxed compare-exchange; returns `Ok(previous)` on success.
    fn compare_exchange(&self, current: Self::Raw, new: Self::Raw) -> Result<Self::Raw, Self::Raw>;
}

macro_rules! impl_atomic_cell {
    ($atomic:ty, $raw:ty) => {
        impl AtomicCell for $atomic {
            type Raw = $raw;

            #[inline(always)]
            fn new(v: $raw) -> Self {
                <$atomic>::new(v)
            }
            #[inline(always)]
            fn load(&self) -> $raw {
                self.load(Ordering::Relaxed)
            }
            #[inline(always)]
            fn store(&self, v: $raw) {
                self.store(v, Ordering::Relaxed)
            }
            #[inline(always)]
            fn fetch_add(&self, v: $raw) -> $raw {
                self.fetch_add(v, Ordering::Relaxed)
            }
            #[inline(always)]
            fn fetch_add_sync(&self, v: $raw) -> $raw {
                self.fetch_add(v, Ordering::AcqRel)
            }
            #[inline(always)]
            fn fetch_min(&self, v: $raw) -> $raw {
                self.fetch_min(v, Ordering::Relaxed)
            }
            #[inline(always)]
            fn fetch_max(&self, v: $raw) -> $raw {
                self.fetch_max(v, Ordering::Relaxed)
            }
            #[inline(always)]
            fn compare_exchange(&self, current: $raw, new: $raw) -> Result<$raw, $raw> {
                self.compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
            }
        }
    };
}

impl_atomic_cell!(AtomicU32, u32);
impl_atomic_cell!(AtomicU64, u64);

/// A plain-old-data scalar that can live in simulated device memory.
///
/// Maps a value type (e.g. `f32`) to its atomic backing store and raw
/// bit representation. `BYTES` is the *logical* element size used for
/// traffic metering.
pub trait DeviceScalar: Copy + Send + Sync + std::fmt::Debug + 'static {
    /// Backing atomic cell type.
    type Atom: AtomicCell;
    /// Logical size in bytes (what a real GPU would move).
    const BYTES: usize;
    /// Convert to the raw bit representation.
    fn to_raw(self) -> <Self::Atom as AtomicCell>::Raw;
    /// Convert back from the raw bit representation.
    fn from_raw(raw: <Self::Atom as AtomicCell>::Raw) -> Self;
}

impl DeviceScalar for u32 {
    type Atom = AtomicU32;
    const BYTES: usize = 4;
    #[inline(always)]
    fn to_raw(self) -> u32 {
        self
    }
    #[inline(always)]
    fn from_raw(raw: u32) -> Self {
        raw
    }
}

impl DeviceScalar for i32 {
    type Atom = AtomicU32;
    const BYTES: usize = 4;
    #[inline(always)]
    fn to_raw(self) -> u32 {
        self as u32
    }
    #[inline(always)]
    fn from_raw(raw: u32) -> Self {
        raw as i32
    }
}

impl DeviceScalar for f32 {
    type Atom = AtomicU32;
    const BYTES: usize = 4;
    #[inline(always)]
    fn to_raw(self) -> u32 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_raw(raw: u32) -> Self {
        f32::from_bits(raw)
    }
}

impl DeviceScalar for u64 {
    type Atom = AtomicU64;
    const BYTES: usize = 8;
    #[inline(always)]
    fn to_raw(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_raw(raw: u64) -> Self {
        raw
    }
}

impl DeviceScalar for i64 {
    type Atom = AtomicU64;
    const BYTES: usize = 8;
    #[inline(always)]
    fn to_raw(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_raw(raw: u64) -> Self {
        raw as i64
    }
}

impl DeviceScalar for f64 {
    type Atom = AtomicU64;
    const BYTES: usize = 8;
    #[inline(always)]
    fn to_raw(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_raw(raw: u64) -> Self {
        f64::from_bits(raw)
    }
}

struct BufferInner<T: DeviceScalar> {
    cells: Box<[T::Atom]>,
    label: String,
    /// Sanitizer shadow state; present only when the buffer was
    /// allocated through a [`crate::Gpu`] with an armed sanitizer.
    shadow: Option<Arc<BufferShadow>>,
}

/// A buffer in simulated device memory.
///
/// Clonable handle (like a device pointer). Direct `get`/`set` methods
/// exist for host-side test convenience and are *not* metered; kernels
/// must go through [`crate::exec::BlockCtx`] accessors so traffic is
/// counted.
pub struct DeviceBuffer<T: DeviceScalar> {
    inner: Arc<BufferInner<T>>,
}

impl<T: DeviceScalar> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        DeviceBuffer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: DeviceScalar> DeviceBuffer<T> {
    /// Allocate a zero-initialised buffer. Prefer [`crate::Gpu::alloc`],
    /// which also charges the allocation against device memory.
    pub fn zeroed(label: &str, len: usize) -> Self {
        Self::from_cells(label, (0..len).map(|_| T::Atom::default()).collect(), None)
    }

    /// Allocate with sanitizer shadow state attached (the path
    /// [`crate::Gpu::alloc`] takes when a sanitizer is armed).
    pub(crate) fn zeroed_with_shadow(label: &str, len: usize, shadow: BufferShadow) -> Self {
        Self::from_cells(
            label,
            (0..len).map(|_| T::Atom::default()).collect(),
            Some(shadow),
        )
    }

    /// Build a buffer straight from host rows laid end to end, in one
    /// pass and without an intermediate host copy, attaching `shadow`
    /// (when a sanitizer is armed) with every word marked initialised.
    /// The staging step of [`Gpu::try_htod_rows`](crate::Gpu::try_htod_rows).
    pub(crate) fn staged(label: &str, rows: &[&[T]], shadow: Option<BufferShadow>) -> Self {
        if let Some(sh) = &shadow {
            sh.mark_valid_all();
        }
        let mut cells = Vec::with_capacity(rows.iter().map(|r| r.len()).sum());
        for row in rows {
            cells.extend(row.iter().map(|&v| T::Atom::new(v.to_raw())));
        }
        Self::from_cells(label, cells.into_boxed_slice(), shadow)
    }

    fn from_cells(label: &str, cells: Box<[T::Atom]>, shadow: Option<BufferShadow>) -> Self {
        DeviceBuffer {
            inner: Arc::new(BufferInner {
                cells,
                label: label.to_string(),
                shadow: shadow.map(Arc::new),
            }),
        }
    }

    /// The attached sanitizer shadow, if any.
    #[inline(always)]
    pub(crate) fn shadow(&self) -> Option<&BufferShadow> {
        self.inner.shadow.as_deref()
    }

    /// A clonable handle onto this buffer's sanitizer shadow, or `None`
    /// when no sanitizer was armed at allocation. Lets owners of
    /// recycled memory (e.g. a scratch pool) mark the buffer freed for
    /// use-after-free detection after the typed handle is gone.
    pub fn sanitizer_token(&self) -> Option<ShadowToken> {
        self.inner
            .shadow
            .clone()
            .map(|shadow| ShadowToken { shadow })
    }

    /// Allocate and fill from a host slice (unmetered; see
    /// [`crate::Gpu::htod`] for the metered path).
    pub fn from_slice(label: &str, data: &[T]) -> Self {
        Self::staged(label, &[data], None)
    }

    /// A fresh, unshadowed buffer holding a copy of `len` elements
    /// starting at `offset`: the unmetered host-side equivalent of
    /// taking a device-pointer offset view. Panics with a labeled
    /// [`SimError::OutOfBounds`] description when the range overruns.
    pub fn copy_range(&self, label: &str, offset: usize, len: usize) -> Self {
        let cells = self
            .range_cells(offset, len)
            .iter()
            .map(|c| T::Atom::new(c.load()))
            .collect();
        Self::from_cells(label, cells, None)
    }

    /// Number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.inner.cells.len()
    }

    /// True if the buffer holds no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.inner.cells.is_empty()
    }

    /// Logical size in bytes.
    #[inline(always)]
    pub fn size_bytes(&self) -> usize {
        self.len() * T::BYTES
    }

    /// Debug label given at allocation.
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// Unmetered element read (host-side/testing). Panics with a
    /// labeled [`SimError::OutOfBounds`] description when `idx` is out
    /// of range; use [`DeviceBuffer::try_get`] to handle that case.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> T {
        match self.try_get(idx) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible unmetered element read.
    #[inline(always)]
    pub fn try_get(&self, idx: usize) -> Result<T, SimError> {
        match self.inner.cells.get(idx) {
            Some(cell) => Ok(T::from_raw(cell.load())),
            None => Err(self.oob(idx)),
        }
    }

    /// Unmetered element write (host-side/testing). Panics with a
    /// labeled [`SimError::OutOfBounds`] description when `idx` is out
    /// of range; use [`DeviceBuffer::try_set`] to handle that case.
    #[inline(always)]
    pub fn set(&self, idx: usize, v: T) {
        if let Err(e) = self.try_set(idx, v) {
            panic!("{e}");
        }
    }

    /// Fallible unmetered element write.
    #[inline(always)]
    pub fn try_set(&self, idx: usize, v: T) -> Result<(), SimError> {
        match self.inner.cells.get(idx) {
            Some(cell) => {
                cell.store(v.to_raw());
                if let Some(sh) = self.shadow() {
                    sh.mark_valid(idx);
                }
                Ok(())
            }
            None => Err(self.oob(idx)),
        }
    }

    #[cold]
    fn oob(&self, idx: usize) -> SimError {
        SimError::OutOfBounds {
            buffer: self.inner.label.clone(),
            idx,
            len: self.len(),
        }
    }

    /// The cells of a range, bounds-checked once. An overrun panics
    /// with a labeled [`SimError::OutOfBounds`] description naming the
    /// first out-of-range index, as an element-wise read would; an
    /// empty range is always in bounds.
    fn range_cells(&self, offset: usize, len: usize) -> &[T::Atom] {
        if len == 0 {
            return &[];
        }
        match offset.checked_add(len) {
            Some(end) if end <= self.len() => &self.inner.cells[offset..end],
            _ => panic!("{}", self.oob(offset.max(self.len()))),
        }
    }

    /// Unmetered copy of `len` elements starting at `offset` to a host
    /// `Vec`. Panics with a labeled [`SimError::OutOfBounds`]
    /// description when the range overruns the buffer.
    pub(crate) fn read_range(&self, offset: usize, len: usize) -> Vec<T> {
        self.range_cells(offset, len)
            .iter()
            .map(|c| T::from_raw(c.load()))
            .collect()
    }

    /// Unmetered write of `data` into the buffer's first `data.len()`
    /// elements, marking exactly that prefix initialised for the
    /// sanitizer. Panics when `data` is longer than the buffer.
    pub(crate) fn write_prefix(&self, data: &[T]) {
        assert!(data.len() <= self.len(), "htod_into overflows buffer");
        for (c, &v) in self.inner.cells.iter().zip(data) {
            c.store(v.to_raw());
        }
        if let Some(sh) = self.shadow() {
            sh.mark_valid_prefix(data.len());
        }
    }

    /// Direct access to the backing atomic cell (used by `BlockCtx`).
    #[inline(always)]
    pub(crate) fn cell(&self, idx: usize) -> &T::Atom {
        &self.inner.cells[idx]
    }

    /// All backing cells (lent out by `BlockCtx::ld_tile`).
    #[inline(always)]
    pub(crate) fn cells(&self) -> &[T::Atom] {
        &self.inner.cells
    }

    /// Copy the whole buffer out to a host `Vec` (unmetered).
    pub fn to_vec(&self) -> Vec<T> {
        self.read_range(0, self.len())
    }

    /// Fill every element with `v` (unmetered host-side helper; the
    /// simulator's `cudaMemset`). Marks the whole buffer initialised
    /// for the sanitizer's initcheck analysis.
    pub fn fill(&self, v: T) {
        for c in self.inner.cells.iter() {
            c.store(v.to_raw());
        }
        if let Some(sh) = self.shadow() {
            sh.mark_valid_all();
        }
    }
}

impl<T: DeviceScalar> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DeviceBuffer<{}>(label={:?}, len={})",
            std::any::type_name::<T>(),
            self.inner.label,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_scalars() {
        fn check<T: DeviceScalar + PartialEq>(v: T) {
            assert_eq!(T::from_raw(v.to_raw()), v);
        }
        check(0u32);
        check(u32::MAX);
        check(-5i32);
        check(1.5f32);
        check(-0.0f32);
        check(f32::INFINITY);
        check(u64::MAX);
        check(-7i64);
        check(2.25f64);
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let nan = f32::from_bits(0x7fc0_1234);
        assert_eq!(f32::from_raw(nan.to_raw()).to_bits(), nan.to_bits());
    }

    #[test]
    fn buffer_basics_set_get() {
        let b = DeviceBuffer::<f32>::zeroed("t", 8);
        assert_eq!(b.len(), 8);
        assert_eq!(b.size_bytes(), 32);
        assert_eq!(b.get(3), 0.0);
        b.set(3, 42.5);
        assert_eq!(b.get(3), 42.5);
        b.fill(-1.0);
        assert!(b.to_vec().iter().all(|&x| x == -1.0));
    }

    #[test]
    fn buffer_from_slice_and_clone_shares_storage() {
        let b = DeviceBuffer::from_slice("s", &[1u32, 2, 3]);
        let c = b.clone();
        c.set(0, 99);
        assert_eq!(b.get(0), 99, "clone must alias the same device memory");
        assert_eq!(b.label(), "s");
    }

    #[test]
    fn copy_range_is_an_independent_copy() {
        let b = DeviceBuffer::from_slice("src", &[1u32, 2, 3, 4, 5]);
        let c = b.copy_range("dst", 1, 3);
        assert_eq!((c.label(), c.to_vec()), ("dst", vec![2, 3, 4]));
        c.set(0, 99);
        assert_eq!(b.get(1), 2, "a copy, not an alias");
        assert!(b.copy_range("empty", 5, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer \"src\": index 5 >= len 5")]
    fn copy_range_past_the_end_is_a_labeled_panic() {
        let b = DeviceBuffer::from_slice("src", &[1u32, 2, 3, 4, 5]);
        let _ = b.copy_range("dst", 3, 3);
    }

    #[test]
    fn atomic_min_max_cells() {
        // Call through the trait: the inherent `AtomicU32` methods take
        // an Ordering argument and would otherwise shadow these.
        let b = DeviceBuffer::<u32>::zeroed("m", 1);
        AtomicCell::store(b.cell(0), 10);
        assert_eq!(AtomicCell::fetch_min(b.cell(0), 3), 10);
        assert_eq!(AtomicCell::load(b.cell(0)), 3);
        assert_eq!(AtomicCell::fetch_max(b.cell(0), 7), 3);
        assert_eq!(AtomicCell::load(b.cell(0)), 7);
    }

    #[test]
    fn empty_buffer() {
        let b = DeviceBuffer::<u32>::zeroed("e", 0);
        assert!(b.is_empty());
        assert_eq!(b.to_vec(), Vec::<u32>::new());
    }
}
