//! Property tests of the wire-size accounting: seeded loops over random
//! inputs (`rand::for_each_case`).

use rand::{for_each_case, Rng};

use nscc_msg::wire_size;

/// Vectors cost a length prefix plus their elements.
#[test]
fn vec_size_is_prefix_plus_elements() {
    for_each_case(256, |case| {
        let v: Vec<u32> = (0..case.gen_range(0..200)).map(|_| case.gen()).collect();
        assert_eq!(wire_size(&v), 4 + 4 * v.len());
    });
}

/// Tuples are the sum of their elements; batches scale linearly.
#[test]
fn batch_size_is_linear() {
    for_each_case(256, |case| {
        let (genome_len, count) = (case.gen_range(0..64), case.gen_range(0..40));
        // A migrant's shape: genome bytes, then fitness.
        let m = (vec![0u8; genome_len], 1.0f64);
        let single = wire_size(&m);
        assert_eq!(single, 4 + genome_len + 8);
        let batch = vec![m; count];
        assert_eq!(wire_size(&batch), 4 + count * single);
    });
}

/// Options cost one byte of tag plus the payload when present.
#[test]
fn option_size() {
    for_each_case(256, |case| {
        let x: Option<u64> = case.gen_bool(0.5).then(|| case.gen());
        let expect = match x {
            Some(_) => 9,
            None => 1,
        };
        assert_eq!(wire_size(&x), expect);
    });
}

/// Strings are length-prefixed UTF-8 bytes.
#[test]
fn string_size() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    for_each_case(256, |case| {
        let s: String = (0..case.gen_range(0..=80))
            .map(|_| ALPHABET[case.gen_range(0..ALPHABET.len())] as char)
            .collect();
        assert_eq!(wire_size(&s), 4 + s.len());
    });
}
