//! # topk-baselines — the eight previous algorithms of Table 1
//!
//! Faithful reimplementations (on the [`gpu_sim`] substrate) of the
//! open-source GPU top-K implementations the SC '23 paper benchmarks
//! against:
//!
//! | Algorithm | Library imitated | Category |
//! |-----------|------------------|----------|
//! | [`Sort`](sort) | CUB `DeviceRadixSort` | Sorting |
//! | [`WarpSelect`](warpselect) | Faiss | Partial sorting |
//! | [`BlockSelect`](blockselect) | Faiss | Partial sorting |
//! | [`Bitonic Top-K`](bitonic_topk) | DrTopK | Partial sorting |
//! | [`QuickSelect`](quickselect) | GpuSelection | Partition-based |
//! | [`BucketSelect`](bucketselect) | GpuSelection | Partition-based |
//! | [`SampleSelect`](sampleselect) | GpuSelection | Partition-based |
//! | [`RadixSelect`](radixselect) | DrTopK | Partition-based |
//!
//! The defining behavioural traits the paper leans on are preserved:
//! the partition-based baselines keep the **host in the loop** (every
//! iteration round-trips a histogram over PCIe and synchronises — the
//! white space in Fig. 8); WarpSelect runs **one warp** and BlockSelect
//! **one thread block**, so neither can saturate a 108-SM device
//! (§5.3); Bitonic Top-K and the Faiss selects hit their documented
//! K limits (256 / 2048); and every baseline solves batched problems
//! one at a time unless the original library is batched (the Faiss
//! selects launch one block per query).

pub mod bitonic_topk;
pub mod blockselect;
pub mod bucketselect;
mod common;
pub mod quickselect;
pub mod radixselect;
pub mod sampleselect;
pub mod sort;
pub mod warpselect;

pub use bitonic_topk::BitonicTopK;
pub use blockselect::BlockSelect;
pub use bucketselect::BucketSelect;
pub use quickselect::QuickSelect;
pub use radixselect::RadixSelect;
pub use sampleselect::SampleSelect;
pub use sort::SortTopK;
pub use warpselect::WarpSelect;

/// Construct one instance of every baseline, in Table 1 order.
pub fn all_baselines() -> Vec<Box<dyn topk_core::TopKAlgorithm>> {
    vec![
        Box::new(SortTopK),
        Box::new(WarpSelect),
        Box::new(BlockSelect),
        Box::new(BitonicTopK),
        Box::new(QuickSelect::default()),
        Box::new(BucketSelect),
        Box::new(SampleSelect),
        Box::new(RadixSelect),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_core::Category;

    #[test]
    fn table_1_inventory() {
        let algs = all_baselines();
        assert_eq!(algs.len(), 8);
        let names: Vec<_> = algs.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "Sort",
                "WarpSelect",
                "BlockSelect",
                "Bitonic Top-K",
                "QuickSelect",
                "BucketSelect",
                "SampleSelect",
                "RadixSelect"
            ]
        );
        let cats: Vec<_> = algs.iter().map(|a| a.category()).collect();
        assert_eq!(cats[0], Category::Sorting);
        assert_eq!(cats[1], Category::PartialSorting);
        assert_eq!(cats[2], Category::PartialSorting);
        assert_eq!(cats[3], Category::PartialSorting);
        for c in &cats[4..] {
            assert_eq!(*c, Category::PartitionBased);
        }
    }

    #[test]
    fn k_limits_match_the_paper() {
        let algs = all_baselines();
        let by_name = |n: &str| algs.iter().find(|a| a.name() == n).unwrap();
        assert_eq!(by_name("WarpSelect").max_k(), Some(2048));
        assert_eq!(by_name("BlockSelect").max_k(), Some(2048));
        assert_eq!(by_name("Bitonic Top-K").max_k(), Some(256));
        assert_eq!(by_name("Sort").max_k(), None);
        assert_eq!(by_name("RadixSelect").max_k(), None);
    }
}
