//! The correctness oracle: reference answers computed once in setup,
//! and per-call checks that cost `O(K log K)` instead of a re-selection.

use topk_core::{reference_topk, RadixKey};

/// The `k` smallest values of `data` in ascending order, from
/// [`reference_topk`]. A prefix of it is the answer for any smaller K.
pub fn reference(data: &[f32], k: usize) -> Vec<f32> {
    reference_topk(data, k).0
}

/// Reference answers for many inputs, computed on up to two host
/// threads (the oracle is setup work, excluded from every timing).
pub fn references(inputs: &[(&[f32], usize)]) -> Vec<Vec<f32>> {
    let half = inputs.len().div_ceil(2);
    let (a, b) = inputs.split_at(half);
    std::thread::scope(|s| {
        let second = s.spawn(|| b.iter().map(|&(d, k)| reference(d, k)).collect::<Vec<_>>());
        let mut out: Vec<Vec<f32>> = a.iter().map(|&(d, k)| reference(d, k)).collect();
        out.extend(second.join().expect("reference worker panicked"));
        out
    })
}

/// Check an exact answer against `expected` (the ascending reference
/// prefix of length K): the returned values, sorted, equal the
/// reference bit for bit; every index points at its value; no index
/// repeats.
pub fn check_exact(
    data: &[f32],
    expected: &[f32],
    values: &[f32],
    indices: &[u32],
) -> Result<(), String> {
    let k = expected.len();
    if values.len() != k || indices.len() != k {
        return Err(format!(
            "expected {k} results, got {} values and {} indices",
            values.len(),
            indices.len()
        ));
    }
    for (slot, (v, &i)) in values.iter().zip(indices).enumerate() {
        match data.get(i as usize) {
            Some(d) if d.to_bits() == v.to_bits() => {}
            Some(_) => return Err(format!("values[{slot}] != data[indices[{slot}]]")),
            None => return Err(format!("index {i} out of range")),
        }
    }
    let mut idx = indices.to_vec();
    idx.sort_unstable();
    if let Some(w) = idx.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("index {} returned twice", w[0]));
    }
    let mut got = values.to_vec();
    got.sort_unstable_by_key(|v| v.to_ordered());
    if got
        .iter()
        .zip(expected)
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err("returned values are not the K smallest".to_string());
    }
    Ok(())
}

/// Value-multiset recall of an approximate answer: the share of the
/// reference values (`expected`, ascending, length K) it contains,
/// counting duplicates once each. This is the quantity
/// `topk_core::measured_recall` computes, taken from the reference
/// instead of re-selecting the whole input.
pub fn recall(expected: &[f32], values: &[f32]) -> f64 {
    if expected.is_empty() {
        return 1.0;
    }
    let mut got: Vec<u32> = values.iter().map(|v| v.to_ordered()).collect();
    got.sort_unstable();
    let want: Vec<u32> = expected.iter().map(|v| v.to_ordered()).collect();
    let (mut i, mut j, mut hit) = (0, 0, 0usize);
    while i < want.len() && j < got.len() {
        match want[i].cmp(&got[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hit += 1;
                i += 1;
                j += 1;
            }
        }
    }
    hit as f64 / expected.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Distribution};

    fn answer(data: &[f32], k: usize) -> (Vec<f32>, Vec<u32>) {
        // A correct answer in a different order than the reference.
        let (mut v, mut i) = reference_topk(data, k);
        v.reverse();
        i.reverse();
        (v, i)
    }

    #[test]
    fn a_correct_answer_in_any_order_passes() {
        let data = generate(Distribution::Normal, 4096, 3);
        let expected = reference(&data, 64);
        let (v, i) = answer(&data, 64);
        assert_eq!(check_exact(&data, &expected, &v, &i), Ok(()));
        // A prefix of the largest reference answers a smaller K.
        let (v, i) = answer(&data, 8);
        assert_eq!(check_exact(&data, &expected[..8], &v, &i), Ok(()));
    }

    #[test]
    fn doctored_answers_are_rejected() {
        let data = generate(Distribution::Uniform, 4096, 5);
        let expected = reference(&data, 32);
        let (v, i) = answer(&data, 32);

        // A value swapped for a larger element, with its true index.
        let outsider = (0..data.len() as u32)
            .find(|&j| !i.contains(&j))
            .expect("some element is not selected");
        let (mut v2, mut i2) = (v.clone(), i.clone());
        v2[3] = data[outsider as usize];
        i2[3] = outsider;
        let err = check_exact(&data, &expected, &v2, &i2).unwrap_err();
        assert!(err.contains("not the K smallest"), "{err}");

        // An index that does not point at its value.
        let mut i3 = i.clone();
        i3.swap(0, 1);
        assert!(check_exact(&data, &expected, &v, &i3).is_err());

        // A repeated index (value and index both duplicated).
        let (mut v4, mut i4) = (v.clone(), i.clone());
        v4[1] = v4[0];
        i4[1] = i4[0];
        let err = check_exact(&data, &expected, &v4, &i4).unwrap_err();
        assert!(err.contains("twice"), "{err}");

        // Short and out-of-range answers.
        assert!(check_exact(&data, &expected, &v[..31], &i[..31]).is_err());
        let mut i5 = i.clone();
        i5[0] = data.len() as u32;
        assert!(check_exact(&data, &expected, &v, &i5).is_err());
    }

    #[test]
    fn recall_matches_measured_recall() {
        let data = generate(
            Distribution::Zipf {
                exponent_tenths: 11,
            },
            8192,
            9,
        );
        let k = 100;
        let expected = reference(&data, k);
        // Half right, half wrong, with duplicates of a selected value.
        let mut approx: Vec<f32> = expected[..50].to_vec();
        approx.extend(std::iter::repeat_n(expected[0], 10));
        approx.extend(reference(&data, 400)[300..340].iter());
        let ours = recall(&expected, &approx);
        let theirs = topk_core::measured_recall(&data, k, &approx);
        assert_eq!(ours, theirs);
        assert_eq!(ours, 0.5);
        assert_eq!(recall(&expected, &expected), 1.0);
    }

    #[test]
    fn references_keep_input_order() {
        let a = generate(Distribution::Uniform, 1000, 1);
        let b = generate(Distribution::Normal, 2000, 2);
        let c = generate(Distribution::Uniform, 500, 3);
        let refs = references(&[(&a, 5), (&b, 7), (&c, 3)]);
        assert_eq!(
            refs,
            vec![reference(&a, 5), reference(&b, 7), reference(&c, 3)]
        );
    }
}
