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
//! The batched kernels read either shape through [`Rows`], which hands
//! out each block's contiguous share of a row as one coalesced
//! [`Tile`]. The six row selectors (AIR, RadiK, GridSelect, RowWise,
//! Bucketed, TwoStage) implement [`RowSelect`] with their packed
//! `rows × k` core; its provided methods map a single input, a batch
//! and a matrix onto that core, checks included (DESIGN §19).

use crate::error::TopKError;
use crate::keys::RadixKey;
use crate::traits::{check_args, check_batch, TopKAlgorithm, TopKOutput, TypedOutput};
use gpu_sim::{
    BlockCtx, DeviceBuffer, DeviceScalar, Footprint, Gpu, KernelContract, Tile, TileIter,
};
use std::iter::Zip;
use std::ops::RangeFrom;

/// A selector with a packed core over many equal-length rows: AIR,
/// RadiK, GridSelect, RowWise, Bucketed and TwoStage. Each implements
/// [`RowSelect::run_rows`] for every key type; the typed batch and
/// matrix entry points are written once here, and so are the
/// selectors' `try_select` and `try_select_batch`.
///
/// Every entry point checks the shape and K under the selector's own
/// name before the core runs. The trait is object-safe: the
/// dispatcher routes through `&dyn RowSelect`.
pub trait RowSelect<T: RadixKey = f32>: TopKAlgorithm {
    /// Labels of the per-row pieces a batch's packed outputs are split
    /// into (values, indices).
    fn row_labels(&self) -> (&'static str, &'static str);

    /// The packed core: the K smallest of every row, written row-major
    /// to `rows × k` value and index buffers. `rows` is non-empty and
    /// congruent and `k` is valid for the row length: callers check
    /// first, as the entry points do.
    fn run_rows(
        &self,
        gpu: &mut Gpu,
        rows: Rows<'_, T>,
        k: usize,
    ) -> Result<TypedOutput<T>, TopKError>;

    /// Generic-key batched selection (`f32/u32/i32/f64/u64/i64`): the
    /// selector works on order-preserving bits throughout, like RAFT's
    /// dtype-templated `select_k`. All problems share N and K; one set
    /// of launches solves them all. Returns `(values, indices)` per
    /// problem.
    fn run_batch_typed(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<T>],
        k: usize,
    ) -> Result<Vec<TypedOutput<T>>, TopKError> {
        let packed = select_rows(self, gpu, Rows::Slices(inputs), k)?;
        Ok(split_rows(gpu, packed, inputs.len(), self.row_labels()))
    }

    /// Matrix-shaped batched selection (RAFT `matrix::select_k`
    /// parity): one contiguous `rows × cols` input, outputs packed as
    /// `rows × k` value and index matrices.
    fn run_matrix_typed(
        &self,
        gpu: &mut Gpu,
        input: &DeviceMatrix<T>,
        k: usize,
    ) -> Result<(DeviceMatrix<T>, DeviceMatrix<u32>), TopKError> {
        let (values, indices) = select_rows(self, gpu, Rows::Matrix(input), k)?;
        let rows = input.rows();
        Ok((
            DeviceMatrix::from_buffer(values, rows, k),
            DeviceMatrix::from_buffer(indices, rows, k),
        ))
    }
}

/// [`RowSelect::run_rows`] after the checks every entry point shares:
/// the shape ([`Rows::check`]), then K against the row length.
pub(crate) fn select_rows<T: RadixKey>(
    alg: &(impl RowSelect<T> + ?Sized),
    gpu: &mut Gpu,
    rows: Rows<'_, T>,
    k: usize,
) -> Result<TypedOutput<T>, TopKError> {
    let n = rows.check(alg)?;
    check_args(alg, n, k)?;
    alg.run_rows(gpu, rows, k)
}

/// A row selector's [`TopKAlgorithm::try_select`]: the input is one
/// row.
pub(crate) fn select_one(
    alg: &impl RowSelect,
    gpu: &mut Gpu,
    input: &DeviceBuffer<f32>,
    k: usize,
) -> Result<TopKOutput, TopKError> {
    let rows = Rows::Slices(std::slice::from_ref(input));
    let (values, indices) = select_rows(alg, gpu, rows, k)?;
    Ok(TopKOutput::new(values, indices))
}

/// A row selector's [`TopKAlgorithm::try_select_batch`]: its `f32`
/// [`RowSelect::run_batch_typed`].
pub(crate) fn select_batch(
    alg: &impl RowSelect,
    gpu: &mut Gpu,
    inputs: &[DeviceBuffer<f32>],
    k: usize,
) -> Result<Vec<TopKOutput>, TopKError> {
    Ok(alg
        .run_batch_typed(gpu, inputs, k)?
        .into_iter()
        .map(|(values, indices)| TopKOutput::new(values, indices))
        .collect())
}

/// How a batched kernel reads its per-problem inputs: either a slice
/// of separate row buffers (the convenience API) or one contiguous
/// row-major matrix (RAFT's `matrix::select_k` shape, zero copies).
#[derive(Clone, Copy)]
pub enum Rows<'a, T: DeviceScalar> {
    /// Equal-length row buffers.
    Slices(&'a [DeviceBuffer<T>]),
    /// The rows of one row-major matrix.
    Matrix(&'a DeviceMatrix<T>),
}

impl<'a, T: DeviceScalar> Rows<'a, T> {
    /// The row length, once the shape is one `alg` can run: a batch
    /// must be non-empty and congruent ([`check_batch`]), a matrix must
    /// have a row.
    pub(crate) fn check(&self, alg: &(impl TopKAlgorithm + ?Sized)) -> Result<usize, TopKError> {
        match self {
            Rows::Slices(v) => check_batch(alg, v),
            Rows::Matrix(m) if m.rows() == 0 => Err(TopKError::UnsupportedShape {
                algorithm: alg.name(),
                detail: "empty matrix".into(),
            }),
            Rows::Matrix(m) => Ok(m.cols()),
        }
    }

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
            gpu.enable_sanitizer(SanitizerMode {
                armed: true,
                leakcheck: true,
            });
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

    /// Every entry point of a row selector checks K under the
    /// selector's own name, at K = 0 and at K past its limit (its
    /// `max_k`, else the row length).
    #[test]
    fn every_entry_point_names_the_selector_on_invalid_k() {
        use crate::error::TopKError;
        use crate::{AirTopK, BucketedTopK, GridSelect, RadiK, RowWiseTopK, TwoStageTopK};
        use std::slice::from_ref;

        fn check<A: RowSelect + RowSelect<u32>>(alg: A) {
            let mut gpu = Gpu::new(DeviceSpec::test_tiny());
            let n = 4096;
            let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let input = gpu.htod("in", &data);
            let keys = gpu.htod("keys", &(0..n as u32).collect::<Vec<_>>());
            let m = DeviceMatrix::htod(&mut gpu, "m", &data, 1, n);
            let over = alg.max_k().unwrap_or(n) + 1;
            for k in [0, over] {
                let entries = [
                    ("single", alg.try_select(&mut gpu, &input, k).err()),
                    (
                        "batch",
                        alg.try_select_batch(&mut gpu, from_ref(&input), k).err(),
                    ),
                    (
                        "typed batch",
                        RowSelect::<u32>::run_batch_typed(&alg, &mut gpu, from_ref(&keys), k).err(),
                    ),
                    (
                        "matrix",
                        RowSelect::<f32>::run_matrix_typed(&alg, &mut gpu, &m, k).err(),
                    ),
                ];
                for (entry, err) in entries {
                    match err {
                        Some(TopKError::InvalidK { algorithm, .. }) => {
                            assert_eq!(algorithm, alg.name(), "{entry} k={k}")
                        }
                        other => panic!("{}: {entry} k={k} gave {other:?}", alg.name()),
                    }
                }
            }
        }

        check(AirTopK::default());
        check(RadiK::default());
        check(GridSelect::default());
        check(RowWiseTopK);
        check(BucketedTopK::default());
        check(TwoStageTopK::default());

        // GridSelect's on-the-fly entry point checks K the same way.
        let mut gpu = Gpu::new(DeviceSpec::test_tiny());
        for k in [0, 3000] {
            let err = GridSelect::default()
                .select_on_the_fly(&mut gpu, 4096, k, |_, i| i as f32, |c| c)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    TopKError::InvalidK {
                        algorithm: "GridSelect",
                        ..
                    }
                ),
                "k={k}: {err:?}"
            );
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
        let (vals, idxs) = GridSelect::default()
            .run_matrix_typed(&mut gpu, &m, k)
            .unwrap();
        for (r, d) in datas.iter().enumerate() {
            verify_topk(d, k, &vals.row_to_vec(r), &idxs.row_to_vec(r))
                .unwrap_or_else(|e| panic!("row {r}: {e}"));
        }
    }
}
