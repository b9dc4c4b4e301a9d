//! Row-major device matrices — the batched-selection interface RAFT
//! exposes (`raft::matrix::select_k` operates on a `batch × len`
//! matrix; the paper's open-sourced artifact lives in
//! `matrix/detail/select_radix.cuh`).
//!
//! A [`DeviceMatrix`] is one contiguous device buffer plus a shape, so
//! a batched selection reads rows with zero per-row allocations and
//! writes its `rows × k` outputs packed — how the real library works,
//! as opposed to the `&[DeviceBuffer]` convenience API.
//!
//! The batched kernels read either shape through `Rows`, which hands
//! out each block's contiguous share of a row as one coalesced
//! [`Tile`].

use crate::traits::TypedOutput;
use gpu_sim::{
    BlockCtx, DeviceBuffer, DeviceScalar, Footprint, Gpu, KernelContract, Tile, TileIter,
};
use std::iter::Zip;
use std::ops::RangeFrom;

/// How a batched kernel reads its per-problem inputs: either a slice
/// of separate row buffers (the convenience API) or one contiguous
/// row-major matrix (RAFT's `matrix::select_k` shape, zero copies).
/// Shared by the batched kernels in this crate (AIR, RadiK, RowWise,
/// TwoStage, Bucketed, GridSelect).
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a, T: DeviceScalar> {
    Slices(&'a [DeviceBuffer<T>]),
    Matrix(&'a DeviceMatrix<T>),
}

impl<'a, T: DeviceScalar> Rows<'a, T> {
    /// Elements `start..end` of row `prob` as one coalesced tile (see
    /// [`BlockCtx::ld_tile`]; an empty range is an empty tile).
    #[inline]
    pub(crate) fn tile(
        self,
        ctx: &mut BlockCtx<'_>,
        prob: usize,
        start: usize,
        end: usize,
    ) -> Tile<'a, T> {
        match self {
            Rows::Slices(v) => ctx.ld_tile(&v[prob], start, end),
            Rows::Matrix(m) => {
                let base = prob * m.cols();
                ctx.ld_tile(m.buffer(), base + start, base + end)
            }
        }
    }

    /// One block's share `start..end` of a radix pass's source as
    /// `(value, index)` pairs: the previous pass's candidate buffers
    /// (values, indices, and the problem's base offset in them) when
    /// `buffered` is given, otherwise row `prob` of the input, whose
    /// indices are the element positions.
    #[inline]
    pub(crate) fn source<'b>(
        self,
        ctx: &mut BlockCtx<'_>,
        prob: usize,
        start: usize,
        end: usize,
        buffered: Option<(&'b DeviceBuffer<T>, &'b DeviceBuffer<u32>, usize)>,
    ) -> Candidates<'b, T>
    where
        'a: 'b,
    {
        match buffered {
            Some((val, idx, base)) => {
                let vals = ctx.ld_tile(val, base + start, base + end);
                let idxs = ctx.ld_tile(idx, base + start, base + end);
                Candidates::Buffered(vals.iter().zip(idxs.iter()))
            }
            None => Candidates::Input(self.tile(ctx, prob, start, end).iter().zip(start as u32..)),
        }
    }

    pub(crate) fn batch(&self) -> usize {
        match self {
            Rows::Slices(v) => v.len(),
            Rows::Matrix(m) => m.rows(),
        }
    }

    pub(crate) fn n(&self) -> usize {
        match self {
            Rows::Slices(v) => v.first().map_or(0, |b| b.len()),
            Rows::Matrix(m) => m.cols(),
        }
    }

    /// Declare every backing buffer of this row set as a read in `c`.
    /// Which row a block loads is launch-geometry-dependent, so the
    /// honest static footprint is `all`.
    pub(crate) fn declare_reads(&self, c: KernelContract) -> KernelContract {
        match self {
            Rows::Slices(v) => v.iter().fold(c, |c, b| c.reads(b, Footprint::all())),
            Rows::Matrix(m) => c.reads(m.buffer(), Footprint::all()),
        }
    }
}

/// Split packed `rows × width` outputs into one `(values, indices)`
/// pair per row with [`Gpu::split`]: a host-side reshape (an offset
/// view in CUDA) whose pieces, labelled `labels`, take over the packed
/// buffers' bytes, so freeing every row frees them. A single row is
/// handed back as is.
pub(crate) fn split_rows<T: DeviceScalar>(
    gpu: &mut Gpu,
    (values, indices): TypedOutput<T>,
    rows: usize,
    labels: (&str, &str),
) -> Vec<TypedOutput<T>> {
    if rows == 1 {
        return vec![(values, indices)];
    }
    let values = gpu.split(values, rows, labels.0);
    let indices = gpu.split(indices, rows, labels.1);
    values.into_iter().zip(indices).collect()
}

/// `(value, index)` pairs of a pass source, from [`Rows::source`].
/// Hot sweeps match on the variant once and run monomorphic.
pub(crate) enum Candidates<'a, T: DeviceScalar> {
    /// The candidate buffers written by the previous pass.
    Buffered(Zip<TileIter<'a, T>, TileIter<'a, u32>>),
    /// An input row with positional indices.
    Input(Zip<TileIter<'a, T>, RangeFrom<u32>>),
}

impl<T: DeviceScalar> Iterator for Candidates<'_, T> {
    type Item = (T, u32);

    #[inline(always)]
    fn next(&mut self) -> Option<(T, u32)> {
        match self {
            Candidates::Buffered(it) => it.next(),
            Candidates::Input(it) => it.next(),
        }
    }
}

/// A row-major `rows × cols` matrix in device memory.
#[derive(Debug, Clone)]
pub struct DeviceMatrix<T: DeviceScalar> {
    buf: DeviceBuffer<T>,
    rows: usize,
    cols: usize,
}

impl<T: DeviceScalar> DeviceMatrix<T> {
    /// Wrap an existing buffer (must hold exactly `rows × cols`
    /// elements).
    pub fn from_buffer(buf: DeviceBuffer<T>, rows: usize, cols: usize) -> Self {
        assert_eq!(
            buf.len(),
            rows * cols,
            "buffer holds {} elements, shape wants {}",
            buf.len(),
            rows * cols
        );
        DeviceMatrix { buf, rows, cols }
    }

    /// Allocate a zeroed matrix on the device.
    pub fn zeroed(gpu: &mut Gpu, label: &str, rows: usize, cols: usize) -> Self {
        DeviceMatrix {
            buf: gpu.alloc::<T>(label, rows * cols),
            rows,
            cols,
        }
    }

    /// Upload host data (`rows × cols`, row-major) to a new matrix.
    pub fn htod(gpu: &mut Gpu, label: &str, data: &[T], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols);
        DeviceMatrix {
            buf: gpu.htod(label, data),
            rows,
            cols,
        }
    }

    /// Number of rows (problems).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (elements per problem).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing buffer (row-major).
    pub fn buffer(&self) -> &DeviceBuffer<T> {
        &self.buf
    }

    /// Copy one row to the host (unmetered; testing convenience).
    pub fn row_to_vec(&self, row: usize) -> Vec<T> {
        assert!(row < self.rows);
        (0..self.cols)
            .map(|c| self.buf.get(row * self.cols + c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, Gpu};

    #[test]
    fn shape_and_rows() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let m = DeviceMatrix::htod(&mut gpu, "m", &data, 3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.row_to_vec(1), vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "shape wants")]
    fn mismatched_shape_rejected() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let buf = gpu.alloc::<f32>("b", 10);
        DeviceMatrix::from_buffer(buf, 3, 4);
    }

    #[test]
    fn air_matrix_selection_matches_slices() {
        use crate::air::AirTopK;
        use crate::verify::verify_topk;
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let rows = 5;
        let cols = 20_000; // above the one-block threshold
        let k = 64;
        let datas: Vec<Vec<f32>> = (0..rows)
            .map(|r| datagen::generate(datagen::Distribution::Normal, cols, r as u64))
            .collect();
        let flat: Vec<f32> = datas.iter().flatten().copied().collect();
        let m = DeviceMatrix::htod(&mut gpu, "m", &flat, rows, cols);

        gpu.reset_profile();
        let (vals, idxs) = AirTopK::default()
            .run_matrix_typed(&mut gpu, &m, k)
            .unwrap();
        assert_eq!(vals.rows(), rows);
        assert_eq!(vals.cols(), k);
        // One launch set for the whole matrix, no per-row loops.
        assert_eq!(gpu.timeline().kernel_count(), 4);
        for (r, d) in datas.iter().enumerate() {
            verify_topk(d, k, &vals.row_to_vec(r), &idxs.row_to_vec(r))
                .unwrap_or_else(|e| panic!("row {r}: {e}"));
        }
    }

    #[test]
    fn air_matrix_small_rows_take_one_block_path() {
        use crate::air::AirTopK;
        use crate::verify::verify_topk;
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let (rows, cols, k) = (7, 4096, 10);
        let datas: Vec<Vec<f32>> = (0..rows)
            .map(|r| datagen::generate(datagen::Distribution::Uniform, cols, 50 + r as u64))
            .collect();
        let flat: Vec<f32> = datas.iter().flatten().copied().collect();
        let m = DeviceMatrix::htod(&mut gpu, "m", &flat, rows, cols);
        gpu.reset_profile();
        let (vals, idxs) = AirTopK::default()
            .run_matrix_typed(&mut gpu, &m, k)
            .unwrap();
        assert_eq!(gpu.timeline().kernel_count(), 1, "one-block fast path");
        for (r, d) in datas.iter().enumerate() {
            verify_topk(d, k, &vals.row_to_vec(r), &idxs.row_to_vec(r)).unwrap();
        }
    }

    #[test]
    fn freed_batched_rows_leave_no_leak() {
        use crate::traits::TopKAlgorithm;
        use crate::{AirTopK, BucketedTopK, GridSelect, RadiK, RowWiseTopK, TwoStageTopK};
        use gpu_sim::SanitizerMode;
        let algs: [Box<dyn TopKAlgorithm>; 6] = [
            Box::new(AirTopK::default()),
            Box::new(RadiK::default()),
            Box::new(RowWiseTopK),
            Box::new(TwoStageTopK::default()),
            Box::new(BucketedTopK::default()),
            Box::new(GridSelect::default()),
        ];
        for alg in &algs {
            let mut gpu = Gpu::new(DeviceSpec::a100());
            gpu.enable_sanitizer(SanitizerMode::full().with_leakcheck());
            let inputs: Vec<_> = (0..2)
                .map(|r| {
                    gpu.htod(
                        "in",
                        &datagen::generate(datagen::Distribution::Uniform, 20_000, r),
                    )
                })
                .collect();
            let outs = alg.try_select_batch(&mut gpu, &inputs, 32).unwrap();
            for buf in &inputs {
                gpu.free(buf);
            }
            for out in &outs {
                gpu.free(&out.values);
                gpu.free(&out.indices);
            }
            drop((inputs, outs));
            gpu.run_leakcheck();
            let report = gpu.sanitizer_report().expect("armed");
            assert_eq!(
                report.counts.total(),
                0,
                "{}: {:?}",
                alg.name(),
                report.findings
            );
            assert_eq!(gpu.mem_allocated(), 0, "{}", alg.name());
        }
    }

    #[test]
    fn gridselect_matrix_selection() {
        use crate::gridselect::GridSelect;
        use crate::verify::verify_topk;
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let (rows, cols, k) = (4, 10_000, 17);
        let datas: Vec<Vec<f32>> = (0..rows)
            .map(|r| datagen::generate(datagen::Distribution::Uniform, cols, 90 + r as u64))
            .collect();
        let flat: Vec<f32> = datas.iter().flatten().copied().collect();
        let m = DeviceMatrix::htod(&mut gpu, "m", &flat, rows, cols);
        let outs = GridSelect::default()
            .run_matrix_typed(&mut gpu, &m, k)
            .unwrap();
        for ((d, (v, i)), r) in datas.iter().zip(&outs).zip(0..) {
            verify_topk(d, k, &v.to_vec(), &i.to_vec()).unwrap_or_else(|e| panic!("row {r}: {e}"));
        }
    }
}
