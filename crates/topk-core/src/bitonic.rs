//! Bitonic sorting and merging networks.
//!
//! The partial-sorting top-K family (WarpSelect, BlockSelect, Bitonic
//! Top-K, GridSelect) is built on bitonic networks because they are
//! oblivious — the same compare-exchange pattern regardless of data —
//! and therefore fully parallel on lockstep warps. Their `O(log² n)`
//! depth is also why those algorithms slow down as K grows (§5.1,
//! Fig. 6).
//!
//! Every function returns the number of compare-exchange operations
//! performed so kernels can charge the cost model for the work a real
//! warp would execute.

/// Sort `(keys, payloads)` ascending (or descending) in place using a
/// full bitonic network. `keys.len()` must be a power of two.
/// Returns the number of compare-exchange operations.
///
/// Each compare-exchange is branch-free (a select, not a jump), so the
/// host cost does not depend on the data; the permutation is exactly
/// that of the network, ties included.
pub fn bitonic_sort<K: Ord + Copy, P: Copy>(
    keys: &mut [K],
    payloads: &mut [P],
    ascending: bool,
) -> u64 {
    let n = keys.len();
    assert_eq!(n, payloads.len());
    assert!(
        n.is_power_of_two(),
        "bitonic network needs power-of-two size"
    );
    let mut k = 2;
    while k <= n {
        // Build bitonic sequences of length k, then merge them.
        let mut j = k / 2;
        while j >= 1 {
            for base in (0..n).step_by(2 * j) {
                // Direction alternates per k-sized region to build the
                // bitonic sequence; a 2j-window never straddles two.
                let up = ((base & k) == 0) == ascending;
                for i in base..base + j {
                    compare_exchange(keys, payloads, i, i + j, up);
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    network_ops(n)
}

/// Compare-exchanges in a full bitonic sort of `n` entries:
/// `n/2 · log₂n · (log₂n + 1) / 2`.
fn network_ops(n: usize) -> u64 {
    let log = n.trailing_zeros() as u64;
    (n as u64 / 2) * log * (log + 1) / 2
}

/// Order slots `i < l` ascending (`up`) or descending without a branch:
/// swap exactly when the network would (`keys[i] > keys[l]` going up,
/// `keys[i] < keys[l]` going down).
#[inline(always)]
fn compare_exchange<K: Ord + Copy, P: Copy>(
    keys: &mut [K],
    payloads: &mut [P],
    i: usize,
    l: usize,
    up: bool,
) {
    let (a, b) = (keys[i], keys[l]);
    let swap = if up { a > b } else { a < b };
    let (pa, pb) = (payloads[i], payloads[l]);
    keys[i] = if swap { b } else { a };
    keys[l] = if swap { a } else { b };
    payloads[i] = if swap { pb } else { pa };
    payloads[l] = if swap { pa } else { pb };
}

/// Merge an already-bitonic `(keys, payloads)` sequence into sorted
/// order (ascending or descending). Used after concatenating two
/// opposite-sorted runs. Returns compare-exchange count.
pub fn bitonic_merge<K: Ord + Copy, P: Copy>(
    keys: &mut [K],
    payloads: &mut [P],
    ascending: bool,
) -> u64 {
    let n = keys.len();
    assert_eq!(n, payloads.len());
    assert!(n.is_power_of_two());
    let mut ops = 0;
    let mut j = n / 2;
    while j >= 1 {
        for base in (0..n).step_by(2 * j) {
            for i in base..base + j {
                compare_exchange(keys, payloads, i, i + j, ascending);
            }
        }
        ops += n as u64 / 2;
        j /= 2;
    }
    ops
}

/// Warp width: the queue size [`sort_queue`] sorts without the generic
/// network.
const W: usize = 32;

/// Sort one warp's staged queue ascending, with the result
/// [`bitonic_sort`] would give and its compare-exchange count.
///
/// When the queue is warp-sized (32 entries) and its keys are all
/// distinct, the ascending order is unique, so each entry goes straight
/// to its rank (the count of smaller keys) instead of through the
/// network. When any two keys tie, the network decides which payload
/// comes first, so the queue runs the network on the ranks, which
/// compare exactly as the keys do. Other sizes run the network on the
/// keys.
pub fn sort_queue<K: Ord + Copy, P: Copy>(keys: &mut [K], payloads: &mut [P]) -> u64 {
    if let (Ok(src_k), Ok(src_p)) = (<[K; W]>::try_from(&*keys), <[P; W]>::try_from(&*payloads)) {
        let mut rank = [0u8; W];
        let mut seen = 0u32;
        for (r, &key) in rank.iter_mut().zip(&src_k) {
            let below = src_k.iter().map(|&x| (x < key) as u32).sum::<u32>();
            *r = below as u8;
            seen |= 1 << below;
        }
        // Distinct keys have ranks 0..32, one each; a tie leaves a gap.
        if seen == u32::MAX {
            for a in 0..W {
                keys[rank[a] as usize] = src_k[a];
                payloads[rank[a] as usize] = src_p[a];
            }
        } else {
            sort_tied_queue(keys, payloads, &src_k, &src_p, &rank);
        }
        return network_ops(W);
    }
    bitonic_sort(keys, payloads, true)
}

/// The ascending network over a tied warp queue, run on ranks.
///
/// A comparator's swap depends only on how its two keys compare, and
/// the rank (count of smaller keys) compares exactly as the key does,
/// equal keys included. So the network over the ranks makes the same
/// swaps as the network over the keys. Each word packs `rank << 8 |
/// slot`; the comparators look at the rank byte only, and the slot
/// byte then says where each sorted entry came from.
#[inline(never)]
fn sort_tied_queue<K: Copy, P: Copy>(
    keys: &mut [K],
    payloads: &mut [P],
    src_k: &[K; W],
    src_p: &[P; W],
    rank: &[u8; W],
) {
    let mut w: [u16; W] = std::array::from_fn(|a| (rank[a] as u16) << 8 | a as u16);
    rank_stage::<2, 1>(&mut w);
    rank_stage::<4, 2>(&mut w);
    rank_stage::<4, 1>(&mut w);
    rank_stage::<8, 4>(&mut w);
    rank_stage::<8, 2>(&mut w);
    rank_stage::<8, 1>(&mut w);
    rank_stage::<16, 8>(&mut w);
    rank_stage::<16, 4>(&mut w);
    rank_stage::<16, 2>(&mut w);
    rank_stage::<16, 1>(&mut w);
    rank_stage::<32, 16>(&mut w);
    rank_stage::<32, 8>(&mut w);
    rank_stage::<32, 4>(&mut w);
    rank_stage::<32, 2>(&mut w);
    rank_stage::<32, 1>(&mut w);
    for (dst, &word) in w.iter().enumerate() {
        let slot = (word & 0xff) as usize;
        keys[dst] = src_k[slot];
        payloads[dst] = src_p[slot];
    }
}

/// One stage of [`bitonic_sort`]'s ascending network over packed rank
/// words: sequences of length `K`, comparator stride `J`.
#[inline(always)]
fn rank_stage<const K: usize, const J: usize>(w: &mut [u16; W]) {
    for (c, window) in w.chunks_exact_mut(2 * J).enumerate() {
        // Direction alternates per K-sized region; a 2J-window never
        // straddles two.
        let up = (c * 2 * J) & K == 0;
        let (lo, hi) = window.split_at_mut(J);
        for (x, y) in lo.iter_mut().zip(hi) {
            let (a, b) = (*x, *y);
            let swap = if up { a >> 8 > b >> 8 } else { a >> 8 < b >> 8 };
            *x = if swap { b } else { a };
            *y = if swap { a } else { b };
        }
    }
}

/// Merge a sorted-ascending top-K list with a sorted-ascending buffer
/// of new candidates, keeping the K smallest — the "merge queue into
/// results" step of the WarpSelect family (§4, and Faiss's
/// `warp_merge`). `list.len()` must be a power of two and
/// `queue.len() <= list.len()`.
///
/// The list becomes exactly the first K entries of a stable merge in
/// which a list entry goes before a queue entry with an equal key. The
/// merge runs in place with no allocation, walking back from the end.
/// A first pass drops the `q` largest of the `K + q` entries (on a tie
/// the queue entry is the later one). Then each surviving queue entry,
/// last first, scans back over the list entries with greater keys,
/// shifting each up by the number of queue entries still to place, and
/// lands below them. Every list entry moves at most once; the queue is
/// only read.
///
/// The returned compare-exchange count is that of the network a real
/// warp executes: one pairwise exchange per queue slot plus a full
/// bitonic merge of the K-long list (`K/2 · log₂K` comparators).
pub fn merge_into_topk<K: Ord + Copy, P: Copy>(
    list_keys: &mut [K],
    list_payloads: &mut [P],
    queue_keys: &[K],
    queue_payloads: &[P],
) -> u64 {
    let k = list_keys.len();
    let q = queue_keys.len();
    assert!(k.is_power_of_two(), "top-K list must be power-of-two long");
    assert!(q <= k, "queue longer than list");
    assert_eq!(k, list_payloads.len());
    assert_eq!(q, queue_payloads.len());

    // Drop the q largest. The comparison feeds arithmetic, not a jump:
    // on random keys its outcome is a coin flip.
    let (mut i, mut j) = (k, q);
    for _ in 0..q {
        let drop_queue = i == 0 || (j > 0 && queue_keys[j - 1] >= list_keys[i - 1]);
        j -= drop_queue as usize;
        i -= !drop_queue as usize;
    }
    // Now `list[..i]` and `queue[..j]` survive, and i + j == k.
    while j > 0 {
        let key = queue_keys[j - 1];
        while i > 0 && list_keys[i - 1] > key {
            list_keys[i - 1 + j] = list_keys[i - 1];
            list_payloads[i - 1 + j] = list_payloads[i - 1];
            i -= 1;
        }
        list_keys[i + j - 1] = key;
        list_payloads[i + j - 1] = queue_payloads[j - 1];
        j -= 1;
    }

    // Cost of the real network: q pairwise exchanges + one bitonic
    // merge pass over the K-long list (log2(k) rounds of k/2
    // comparators each).
    let log_k = k.trailing_zeros() as u64;
    q as u64 + (k as u64 / 2) * log_k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// The original network, one data-dependent branch per comparator:
    /// the oracle for the branch-free [`bitonic_sort`] and for
    /// [`sort_queue`]'s rank network on ties.
    fn bitonic_sort_branchy<K: Ord + Copy, P: Copy>(
        keys: &mut [K],
        payloads: &mut [P],
        ascending: bool,
    ) -> u64 {
        let n = keys.len();
        let mut ops = 0;
        let mut k = 2;
        while k <= n {
            let mut j = k / 2;
            while j >= 1 {
                for i in 0..n {
                    let l = i ^ j;
                    if l > i {
                        let up = (i & k) == 0;
                        let should_swap = if up == ascending {
                            keys[i] > keys[l]
                        } else {
                            keys[i] < keys[l]
                        };
                        if should_swap {
                            keys.swap(i, l);
                            payloads.swap(i, l);
                        }
                        ops += 1;
                    }
                }
                j /= 2;
            }
            k *= 2;
        }
        ops
    }

    /// The original two-pointer merge into fresh vectors: the oracle
    /// for the in-place [`merge_into_topk`].
    fn merge_two_pointer<K: Ord + Copy, P: Copy>(
        list_keys: &mut [K],
        list_payloads: &mut [P],
        queue_keys: &[K],
        queue_payloads: &[P],
    ) {
        let (k, q) = (list_keys.len(), queue_keys.len());
        let mut out_k: Vec<K> = Vec::with_capacity(k);
        let mut out_p: Vec<P> = Vec::with_capacity(k);
        let (mut i, mut j) = (0usize, 0usize);
        while out_k.len() < k {
            if j >= q || (i < k && list_keys[i] <= queue_keys[j]) {
                out_k.push(list_keys[i]);
                out_p.push(list_payloads[i]);
                i += 1;
            } else {
                out_k.push(queue_keys[j]);
                out_p.push(queue_payloads[j]);
                j += 1;
            }
        }
        list_keys.copy_from_slice(&out_k);
        list_payloads.copy_from_slice(&out_p);
    }

    #[test]
    fn sorts_ascending_and_descending() {
        let data: Vec<u32> = vec![5, 3, 8, 1, 9, 2, 7, 0];
        let mut k = data.clone();
        let mut p = idx(8);
        let ops = bitonic_sort(&mut k, &mut p, true);
        assert_eq!(k, vec![0, 1, 2, 3, 5, 7, 8, 9]);
        // payload follows its key
        for (key, pi) in k.iter().zip(&p) {
            assert_eq!(data[*pi as usize], *key);
        }
        // n/2 * log^2 pattern: 8 elements -> 3 stages of 1+2+3 rounds = 6 rounds * 4 pairs
        assert_eq!(ops, 24);

        let mut k = data.clone();
        let mut p = idx(8);
        bitonic_sort(&mut k, &mut p, false);
        assert_eq!(k, vec![9, 8, 7, 5, 3, 2, 1, 0]);
    }

    #[test]
    fn sort_handles_duplicates_and_extremes() {
        let mut k = vec![u32::MAX, 0, 7, 7, 7, 0, u32::MAX, 1];
        let mut p = idx(8);
        bitonic_sort(&mut k, &mut p, true);
        assert_eq!(k, vec![0, 0, 1, 7, 7, 7, u32::MAX, u32::MAX]);
    }

    #[test]
    fn sort_single_element() {
        let mut k = vec![42u32];
        let mut p = vec![0u32];
        assert_eq!(bitonic_sort(&mut k, &mut p, true), 0);
        assert_eq!(k, vec![42]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn sort_rejects_non_power_of_two() {
        let mut k = vec![1u32, 2, 3];
        let mut p = idx(3);
        bitonic_sort(&mut k, &mut p, true);
    }

    #[test]
    fn merge_sorts_bitonic_input() {
        // ascending run then descending run = bitonic
        let mut k = vec![1u32, 4, 6, 9, 8, 5, 3, 2];
        let mut p = idx(8);
        bitonic_merge(&mut k, &mut p, true);
        assert_eq!(k, vec![1, 2, 3, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn merge_into_topk_keeps_smallest() {
        let mut lk = vec![2u32, 4, 6, 8];
        let mut lp = vec![0u32, 1, 2, 3];
        let qk = vec![1u32, 3, 5, 7];
        let qp = vec![10u32, 11, 12, 13];
        merge_into_topk(&mut lk, &mut lp, &qk, &qp);
        assert_eq!(lk, vec![1, 2, 3, 4]);
        assert_eq!(lp, vec![10, 0, 11, 1]);
    }

    #[test]
    fn merge_into_topk_smaller_queue() {
        let mut lk = vec![10u32, 20, 30, 40, 50, 60, 70, 80];
        let mut lp = idx(8);
        let qk = vec![5u32, 45];
        let qp = vec![100u32, 101];
        merge_into_topk(&mut lk, &mut lp, &qk, &qp);
        assert_eq!(lk, vec![5, 10, 20, 30, 40, 45, 50, 60]);
    }

    #[test]
    fn merge_into_topk_queue_all_larger_is_noop_on_list() {
        let mut lk = vec![1u32, 2, 3, 4];
        let mut lp = idx(4);
        let qk = vec![9u32, 9, 9, 9];
        let qp = vec![7u32; 4];
        merge_into_topk(&mut lk, &mut lp, &qk, &qp);
        assert_eq!(lk, vec![1, 2, 3, 4]);
        assert_eq!(lp, vec![0, 1, 2, 3]);
    }

    #[test]
    fn merge_into_topk_randomised_against_reference() {
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for k_len in [4usize, 8, 32, 128] {
            for q_len in [1usize, 2, 4].into_iter().filter(|q| *q <= k_len) {
                let mut lk: Vec<u32> = (0..k_len).map(|_| next() % 1000).collect();
                lk.sort_unstable();
                let mut lp: Vec<u32> = idx(k_len);
                let mut qk: Vec<u32> = (0..q_len).map(|_| next() % 1000).collect();
                qk.sort_unstable();
                let qp: Vec<u32> = (0..q_len as u32).map(|x| x + 1000).collect();

                let mut expect: Vec<u32> = lk.iter().chain(qk.iter()).copied().collect();
                expect.sort_unstable();
                expect.truncate(k_len);

                merge_into_topk(&mut lk, &mut lp, &qk, &qp);
                assert_eq!(lk, expect, "k={k_len} q={q_len}");
            }
        }
    }

    mod properties {
        use super::super::*;
        use super::{bitonic_sort_branchy, merge_two_pointer};
        use proptest::prelude::*;

        /// A sorted run of `len` keys drawn from `levels` values, so
        /// equal keys are the rule rather than the exception.
        fn tied_run(len: usize, levels: u32) -> impl Strategy<Value = Vec<u32>> {
            prop::collection::vec(0..levels, len).prop_map(|mut v| {
                v.sort_unstable();
                v
            })
        }

        /// `(list, queue)` with a power-of-two list and `q <= k`.
        fn list_and_queue(levels: u32) -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
            (0u32..=8).prop_flat_map(move |log| {
                let k = 1usize << log;
                (
                    tied_run(k, levels),
                    (0..=k).prop_flat_map(move |q| tied_run(q, levels)),
                )
            })
        }

        fn pow2_vec() -> impl Strategy<Value = Vec<u32>> {
            (1u32..=8).prop_flat_map(|log| prop::collection::vec(any::<u32>(), 1usize << log))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn sort_matches_std_sort(mut keys in pow2_vec(), ascending in any::<bool>()) {
                let mut payload: Vec<u32> = (0..keys.len() as u32).collect();
                let original = keys.clone();
                bitonic_sort(&mut keys, &mut payload, ascending);
                let mut expect = original.clone();
                expect.sort_unstable();
                if !ascending {
                    expect.reverse();
                }
                prop_assert_eq!(&keys, &expect);
                // Payload permutation stays consistent with its key.
                for (key, p) in keys.iter().zip(&payload) {
                    prop_assert_eq!(original[*p as usize], *key);
                }
            }

            #[test]
            fn merge_into_topk_equals_sorted_truncation(
                mut list in pow2_vec(),
                mut queue in prop::collection::vec(any::<u32>(), 1..32),
            ) {
                list.sort_unstable();
                queue.sort_unstable();
                prop_assume!(queue.len() <= list.len());
                let mut lp: Vec<u32> = (0..list.len() as u32).collect();
                let qp: Vec<u32> = (0..queue.len() as u32).map(|x| x + 1000).collect();
                let mut expect: Vec<u32> =
                    list.iter().chain(queue.iter()).copied().collect();
                expect.sort_unstable();
                expect.truncate(list.len());
                merge_into_topk(&mut list, &mut lp, &queue, &qp);
                prop_assert_eq!(list, expect);
            }

            #[test]
            fn in_place_merge_matches_two_pointer_under_ties(
                (list, queue) in list_and_queue(4),
            ) {
                // Payloads tell list entries (< 1000) from queue entries,
                // so the tie rule shows in the payload order.
                let lp: Vec<u32> = (0..list.len() as u32).collect();
                let qp: Vec<u32> = (0..queue.len() as u32).map(|x| x + 1000).collect();
                let (mut got_k, mut got_p) = (list.clone(), lp.clone());
                let (mut want_k, mut want_p) = (list, lp);
                let ops = merge_into_topk(&mut got_k, &mut got_p, &queue, &qp);
                merge_two_pointer(&mut want_k, &mut want_p, &queue, &qp);
                prop_assert_eq!(got_k, want_k);
                prop_assert_eq!(got_p, want_p);
                let k = got_p.len() as u64;
                prop_assert_eq!(ops, queue.len() as u64 + k / 2 * k.trailing_zeros() as u64);
            }

            #[test]
            fn list_vs_list_merge_matches_two_pointer(
                (a, b) in (0u32..=8, 1u32..64).prop_flat_map(|(log, levels)| {
                    (tied_run(1 << log, levels), tied_run(1 << log, levels))
                }),
            ) {
                // q = k: GridSelect's cross-warp and tree merges.
                let ap: Vec<u32> = (0..a.len() as u32).collect();
                let bp: Vec<u32> = (0..b.len() as u32).map(|x| x + 1000).collect();
                let (mut got_k, mut got_p) = (a.clone(), ap.clone());
                let (mut want_k, mut want_p) = (a, ap);
                merge_into_topk(&mut got_k, &mut got_p, &b, &bp);
                merge_two_pointer(&mut want_k, &mut want_p, &b, &bp);
                prop_assert_eq!(got_k, want_k);
                prop_assert_eq!(got_p, want_p);
            }

            #[test]
            fn branch_free_network_matches_branchy(
                mut keys in pow2_vec().prop_map(|v| v.into_iter().map(|x| x % 8).collect::<Vec<u32>>()),
                ascending in any::<bool>(),
            ) {
                let mut payload: Vec<u32> = (0..keys.len() as u32).collect();
                let (mut want_k, mut want_p) = (keys.clone(), payload.clone());
                let ops = bitonic_sort(&mut keys, &mut payload, ascending);
                let want_ops = bitonic_sort_branchy(&mut want_k, &mut want_p, ascending);
                prop_assert_eq!(keys, want_k);
                prop_assert_eq!(payload, want_p);
                prop_assert_eq!(ops, want_ops);
            }

            #[test]
            fn queue_sort_matches_network(
                keys in prop::collection::vec(any::<u32>(), 32),
                levels in prop_oneof![Just(2u32), Just(16u32), Just(31u32), Just(32u32), Just(u32::MAX)],
            ) {
                // Few levels force ties (the rank network); many
                // levels mostly give distinct keys (the rank path).
                let mut keys: Vec<u32> = keys.into_iter().map(|x| x % levels).collect();
                let mut payload: Vec<u32> = (0..32).collect();
                let (mut want_k, mut want_p) = (keys.clone(), payload.clone());
                let ops = sort_queue(&mut keys, &mut payload);
                let want_ops = bitonic_sort_branchy(&mut want_k, &mut want_p, true);
                prop_assert_eq!(keys, want_k);
                prop_assert_eq!(payload, want_p);
                prop_assert_eq!(ops, want_ops);
                prop_assert_eq!(ops, 240);
            }

            #[test]
            fn queue_sort_of_u64_keys_matches_network(
                keys in prop::collection::vec(any::<u64>(), 32),
                levels in prop_oneof![Just(2u64), Just(16u64), Just(32u64), Just(u64::MAX)],
                low in any::<u32>(),
            ) {
                // GridSelect's 64-bit ordered keys (f64, i64 and u64
                // inputs): the levels sit above bit 32 and every key
                // shares the low word, so ties are decided up high.
                let mut keys: Vec<u64> =
                    keys.into_iter().map(|x| (x % levels) << 32 | low as u64).collect();
                let mut payload: Vec<u32> = (0..32).collect();
                let (mut want_k, mut want_p) = (keys.clone(), payload.clone());
                let ops = sort_queue(&mut keys, &mut payload);
                bitonic_sort_branchy(&mut want_k, &mut want_p, true);
                prop_assert_eq!(keys, want_k);
                prop_assert_eq!(payload, want_p);
                prop_assert_eq!(ops, 240);
            }

            #[test]
            fn queue_sort_of_a_partly_filled_queue_matches_network(
                keys in prop::collection::vec(any::<u32>(), 32),
                stale in prop::collection::vec(any::<u32>(), 32),
                fill in 0usize..=32,
                levels in prop_oneof![Just(4u32), Just(u32::MAX)],
            ) {
                // A queue drained below 32 entries: the slots from
                // `fill` on are padded with MAX over the payloads an
                // earlier flush left there.
                let mut keys: Vec<u32> = (0..32)
                    .map(|s| if s < fill { keys[s] % levels } else { u32::MAX })
                    .collect();
                let mut payload: Vec<u32> =
                    (0..32).map(|s| if s < fill { s as u32 } else { stale[s] }).collect();
                let (mut want_k, mut want_p) = (keys.clone(), payload.clone());
                let ops = sort_queue(&mut keys, &mut payload);
                bitonic_sort_branchy(&mut want_k, &mut want_p, true);
                prop_assert_eq!(keys, want_k);
                prop_assert_eq!(payload, want_p);
                prop_assert_eq!(ops, 240);
            }

            #[test]
            fn queue_sort_of_other_sizes_is_the_network(
                mut keys in pow2_vec().prop_map(|v| v.into_iter().map(|x| x % 5).collect::<Vec<u32>>()),
            ) {
                let mut payload: Vec<u32> = (0..keys.len() as u32).collect();
                let (mut want_k, mut want_p) = (keys.clone(), payload.clone());
                sort_queue(&mut keys, &mut payload);
                bitonic_sort_branchy(&mut want_k, &mut want_p, true);
                prop_assert_eq!(keys, want_k);
                prop_assert_eq!(payload, want_p);
            }
        }
    }

    #[test]
    fn queue_sort_of_distinct_keys_takes_ranks() {
        let mut keys: Vec<u32> = (0..32).map(|i| (i * 7 + 3) % 32 * 10).collect();
        let mut payload: Vec<u32> = keys.iter().map(|k| k + 1).collect();
        assert_eq!(sort_queue(&mut keys, &mut payload), 240);
        assert_eq!(keys, (0..32).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(payload, (0..32).map(|i| i * 10 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn queue_sort_with_one_tie_keeps_the_network_payload_order() {
        // Two equal keys at slots a < b: a stable order puts payload a
        // first, but the network is not stable. The queue sort must give
        // the network's order, so it cannot scatter by rank here.
        let base: Vec<u32> = (0..32).rev().collect();
        let mut found = false;
        for a in 0..32 {
            for b in a + 1..32 {
                let mut keys = base.clone();
                keys[b] = keys[a];
                let mut payload: Vec<u32> = (0..32).collect();
                let (mut want_k, mut want_p) = (keys.clone(), payload.clone());
                sort_queue(&mut keys, &mut payload);
                bitonic_sort_branchy(&mut want_k, &mut want_p, true);
                assert_eq!((&keys, &payload), (&want_k, &want_p), "tie at {a},{b}");
                let first = payload.iter().position(|&p| p == a as u32 || p == b as u32);
                found |= first.is_some_and(|f| payload[f] == b as u32);
            }
        }
        assert!(
            found,
            "expected at least one tie the network orders unstably"
        );
    }

    #[test]
    fn ops_scale_log_squared() {
        // n/2 * (log n)(log n + 1)/2 compare-exchanges for a full sort.
        for n in [2usize, 4, 8, 64, 256] {
            let mut k: Vec<u32> = (0..n as u32).rev().collect();
            let mut p = idx(n);
            let ops = bitonic_sort(&mut k, &mut p, true);
            let log = n.trailing_zeros() as u64;
            assert_eq!(ops, (n as u64 / 2) * log * (log + 1) / 2);
        }
    }
}
