//! JGF Crypt: IDEA (International Data Encryption Algorithm) over a byte
//! array — encrypt, then decrypt, then verify round-trip.
//!
//! IDEA operates on 64-bit blocks with 16-bit lanes and three group
//! operations: XOR, addition mod 2^16, multiplication mod 2^16+1 (with 0
//! standing for 2^16). 8.5 rounds, 52 encryption subkeys derived from a
//! 128-bit user key by 25-bit rotation; decryption subkeys are the
//! multiplicative/additive inverses in reverse layout.

use pyjama_omp::{parallel_for, Schedule};

/// Number of 16-bit subkeys.
const KEYS: usize = 52;
/// Bytes per IDEA block.
pub const BLOCK: usize = 8;

/// An IDEA key pair: encryption and decryption subkeys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdeaKey {
    enc: [u16; KEYS],
    dec: [u16; KEYS],
}

/// Blocks per group: the cipher transforms this many independent ECB
/// blocks at once, one per lane. Chosen by measurement on a 2-vCPU x86-64
/// Xeon with the baseline SSE2 target, ns per block over 1 MiB: 4 lanes
/// 42–46, 8 lanes 20–28, 16 lanes 17–19, 32 lanes 15–22, 64 lanes 17–18
/// (one block at a time: 83–94). Wider groups gain nothing and double the
/// padded tail's cost on short buffers.
const LANES: usize = 32;
/// Bytes per group of `LANES` blocks.
const GROUP: usize = LANES * BLOCK;

/// Branch-free multiplication in the group Z*_{65537}, where 0 represents
/// 65536. With `p = a·b`, `lo = p mod 2^16` and `hi = p div 2^16`:
/// `a·b ≡ lo − hi (mod 65537)`, which is `lo − hi + 1` modulo 2^16 when
/// `lo < hi`. `p = 0` means an operand stood for 2^16 ≡ −1, so the
/// product is `1 − a − b` modulo 2^16. Every arm is a plain select, so a
/// loop over lanes vectorises (`pmullw`/`pmulhuw` on SSE2).
#[inline(always)]
fn lane_mul(a: u16, b: u16) -> u16 {
    let lo = a.wrapping_mul(b);
    let hi = ((a as u32 * b as u32) >> 16) as u16;
    if lo | hi == 0 {
        1u16.wrapping_sub(a).wrapping_sub(b)
    } else {
        lo.wrapping_sub(hi).wrapping_add((lo < hi) as u16)
    }
}

/// Multiplicative inverse in Z*_{65537} (0 stands for 65536). `inv(0) = 0`
/// and `inv(1) = 1` by the group's conventions.
fn inv(x: u16) -> u16 {
    if x <= 1 {
        return x; // 0 and 1 are self-inverse under the representation
    }
    // Extended Euclid on (65537, x).
    let modulus: i64 = 0x10001;
    let mut t0: i64 = 0;
    let mut t1: i64 = 1;
    let mut r0: i64 = modulus;
    let mut r1: i64 = x as i64;
    while r1 != 0 {
        let q = r0 / r1;
        (t0, t1) = (t1, t0 - q * t1);
        (r0, r1) = (r1, r0 - q * r1);
    }
    debug_assert_eq!(r0, 1, "65537 is prime; gcd must be 1");
    (t0.rem_euclid(modulus)) as u16
}

impl IdeaKey {
    /// Expands a 128-bit user key into encryption and decryption schedules.
    pub fn new(user_key: [u16; 8]) -> Self {
        let enc = Self::expand(user_key);
        let dec = Self::invert(&enc);
        IdeaKey { enc, dec }
    }

    /// A fixed key for reproducible benchmarks (JGF uses a generated key;
    /// any key exercises the same arithmetic).
    pub fn benchmark_key() -> Self {
        Self::new([0x0102, 0x0304, 0x0506, 0x0708, 0x090a, 0x0b0c, 0x0d0e, 0x0f10])
    }

    fn expand(user: [u16; 8]) -> [u16; KEYS] {
        // Each successive group of 8 subkeys is the 128-bit key rotated
        // left by a further 25 bits (canonical IDEA schedule).
        let mut z = [0u16; KEYS];
        z[..8].copy_from_slice(&user);
        for j in 8..KEYS {
            let i = j % 8;
            z[j] = if i < 6 {
                (z[j - 7] << 9) | (z[j - 6] >> 7)
            } else if i == 6 {
                (z[j - 7] << 9) | (z[j - 14] >> 7)
            } else {
                (z[j - 15] << 9) | (z[j - 14] >> 7)
            };
        }
        z
    }

    fn invert(e: &[u16; KEYS]) -> [u16; KEYS] {
        // Decryption subkeys are the encryption subkeys' group inverses,
        // laid out in reverse round order; the two inner additive keys swap
        // in all but the boundary groups.
        let mut d = [0u16; KEYS];
        let mut p = KEYS; // write position, descending
        let mut k = 0; // read position, ascending

        let (t1, t2, t3, t4) = (
            inv(e[k]),
            e[k + 1].wrapping_neg(),
            e[k + 2].wrapping_neg(),
            inv(e[k + 3]),
        );
        k += 4;
        d[p - 1] = t4;
        d[p - 2] = t3;
        d[p - 3] = t2;
        d[p - 4] = t1;
        p -= 4;

        for round in 0..8 {
            d[p - 1] = e[k + 1];
            d[p - 2] = e[k];
            p -= 2;
            k += 2;
            let (t1, t2, t3, t4) = (
                inv(e[k]),
                e[k + 1].wrapping_neg(),
                e[k + 2].wrapping_neg(),
                inv(e[k + 3]),
            );
            k += 4;
            d[p - 1] = t4;
            if round < 7 {
                d[p - 2] = t2; // swapped
                d[p - 3] = t3;
            } else {
                d[p - 2] = t3;
                d[p - 3] = t2;
            }
            d[p - 4] = t1;
            p -= 4;
        }
        debug_assert_eq!(p, 0);
        debug_assert_eq!(k, KEYS);
        d
    }

    /// The encryption schedule.
    pub fn encryption_schedule(&self) -> &[u16; KEYS] {
        &self.enc
    }

    /// The decryption schedule.
    pub fn decryption_schedule(&self) -> &[u16; KEYS] {
        &self.dec
    }
}

/// Transforms one group of `LANES` 8-byte blocks in place with the given
/// 52-subkey schedule. The state is held as structure-of-arrays, one
/// `[u16; LANES]` per 16-bit word, so each round is a straight-line loop
/// over lanes.
fn cipher_group(group: &mut [u8; GROUP], z: &[u16; KEYS]) {
    let mut x1 = [0u16; LANES];
    let mut x2 = [0u16; LANES];
    let mut x3 = [0u16; LANES];
    let mut x4 = [0u16; LANES];
    for (l, b) in group.chunks_exact(BLOCK).enumerate() {
        x1[l] = u16::from_be_bytes([b[0], b[1]]);
        x2[l] = u16::from_be_bytes([b[2], b[3]]);
        x3[l] = u16::from_be_bytes([b[4], b[5]]);
        x4[l] = u16::from_be_bytes([b[6], b[7]]);
    }

    for k in z[..48].chunks_exact(6) {
        for l in 0..LANES {
            let a1 = lane_mul(x1[l], k[0]);
            let a2 = x2[l].wrapping_add(k[1]);
            let a3 = x3[l].wrapping_add(k[2]);
            let a4 = lane_mul(x4[l], k[3]);

            let t2 = lane_mul(a1 ^ a3, k[4]);
            let t1 = lane_mul(t2.wrapping_add(a2 ^ a4), k[5]);
            let t2 = t1.wrapping_add(t2);

            x1[l] = a1 ^ t1;
            x4[l] = a4 ^ t2;
            x2[l] = a3 ^ t1;
            x3[l] = a2 ^ t2;
        }
    }

    // Output transform (undoes the last round's swap of the middle words).
    for (l, b) in group.chunks_exact_mut(BLOCK).enumerate() {
        b[0..2].copy_from_slice(&lane_mul(x1[l], z[48]).to_be_bytes());
        b[2..4].copy_from_slice(&x3[l].wrapping_add(z[49]).to_be_bytes());
        b[4..6].copy_from_slice(&x2[l].wrapping_add(z[50]).to_be_bytes());
        b[6..8].copy_from_slice(&lane_mul(x4[l], z[51]).to_be_bytes());
    }
}

/// Transforms up to one group of blocks in place. A run shorter than a
/// group goes through a zero-padded stack buffer; the padding lanes are
/// computed and dropped.
fn cipher_run(run: &mut [u8], z: &[u16; KEYS]) {
    match <&mut [u8; GROUP]>::try_from(&mut *run) {
        Ok(group) => cipher_group(group, z),
        Err(_) => {
            let mut buf = [0u8; GROUP];
            buf[..run.len()].copy_from_slice(run);
            cipher_group(&mut buf, z);
            run.copy_from_slice(&buf[..run.len()]);
        }
    }
}

/// Encrypts `data` in place, sequentially. Length must be a multiple of 8.
pub fn encrypt_seq(key: &IdeaKey, data: &mut [u8]) {
    run_seq(&key.enc, data)
}

/// Decrypts `data` in place, sequentially.
pub fn decrypt_seq(key: &IdeaKey, data: &mut [u8]) {
    run_seq(&key.dec, data)
}

fn run_seq(z: &[u16; KEYS], data: &mut [u8]) {
    assert_eq!(data.len() % BLOCK, 0, "data must be block aligned");
    for run in data.chunks_mut(GROUP) {
        cipher_run(run, z);
    }
}

/// Encrypts `data` in place with an `omp parallel for` over groups of
/// blocks.
pub fn encrypt_par(key: &IdeaKey, data: &mut [u8], num_threads: usize) {
    run_par(&key.enc, data, num_threads)
}

/// Decrypts `data` in place in parallel.
pub fn decrypt_par(key: &IdeaKey, data: &mut [u8], num_threads: usize) {
    run_par(&key.dec, data, num_threads)
}

fn run_par(z: &[u16; KEYS], data: &mut [u8], num_threads: usize) {
    assert_eq!(data.len() % BLOCK, 0, "data must be block aligned");
    let len = data.len();
    let ngroups = len.div_ceil(GROUP);
    // Each group of blocks is an independent unit; every iteration derives
    // its own disjoint run from the base pointer, so the workshared loop
    // mutates the buffer without aliasing.
    struct Base(*mut u8);
    // SAFETY: the pointer is only turned into the disjoint runs below, and
    // `data` stays mutably borrowed until the region has joined.
    unsafe impl Send for Base {}
    // SAFETY: as for `Send`; shared access only reads the pointer itself.
    unsafe impl Sync for Base {}
    let base = Base(data.as_mut_ptr());
    let base = &base;
    parallel_for(
        num_threads,
        0..ngroups,
        Schedule::Static { chunk: None },
        move |g| {
            let start = g * GROUP;
            let n = GROUP.min(len - start);
            // SAFETY: `start..start + n` lies inside `data`, which outlives
            // the region, and each group index runs on exactly one thread,
            // so the runs never overlap.
            let run = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), n) };
            cipher_run(run, z);
        },
    );
}

/// Deterministic pseudo-random plaintext of `len` bytes (block aligned).
pub fn make_plaintext(len: usize) -> Vec<u8> {
    assert_eq!(len % BLOCK, 0);
    // xorshift64*: cheap, reproducible, dependency-free.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let x = state.wrapping_mul(0x2545F4914F6CDD1D);
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(len);
    v
}

/// FNV-1a checksum used to compare kernel outputs.
pub fn checksum(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The full JGF Crypt kernel: encrypt `size` bytes, decrypt, validate the
/// round-trip, and return the ciphertext checksum.
pub fn kernel(size: usize, num_threads: Option<usize>) -> u64 {
    let key = IdeaKey::benchmark_key();
    let original = make_plaintext(size);
    let mut data = original.clone();
    match num_threads {
        None => encrypt_seq(&key, &mut data),
        Some(t) => encrypt_par(&key, &mut data, t),
    }
    let cipher_sum = checksum(&data);
    match num_threads {
        None => decrypt_seq(&key, &mut data),
        Some(t) => decrypt_par(&key, &mut data, t),
    }
    assert_eq!(data, original, "IDEA round-trip failed validation");
    cipher_sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference oracle: the textbook branchy multiplication in Z*_{65537}.
    fn mul(a: u16, b: u16) -> u16 {
        let a = a as u32;
        let b = b as u32;
        if a == 0 {
            // 65536 * b ≡ -b ≡ 65537 - b (mod 65537)
            (0x10001 - b) as u16
        } else if b == 0 {
            (0x10001 - a) as u16
        } else {
            let p = a * b;
            let hi = p >> 16;
            let lo = p & 0xFFFF;
            if lo >= hi {
                (lo - hi) as u16
            } else {
                (lo.wrapping_sub(hi).wrapping_add(0x10001)) as u16
            }
        }
    }

    /// Reference oracle: one 8-byte block at a time with the scalar `mul`.
    fn cipher_block(block: &mut [u8], z: &[u16; KEYS]) {
        assert_eq!(block.len(), BLOCK);
        let mut x1 = u16::from_be_bytes([block[0], block[1]]);
        let mut x2 = u16::from_be_bytes([block[2], block[3]]);
        let mut x3 = u16::from_be_bytes([block[4], block[5]]);
        let mut x4 = u16::from_be_bytes([block[6], block[7]]);

        let mut k = 0;
        for _round in 0..8 {
            x1 = mul(x1, z[k]);
            x2 = x2.wrapping_add(z[k + 1]);
            x3 = x3.wrapping_add(z[k + 2]);
            x4 = mul(x4, z[k + 3]);

            let t2 = x1 ^ x3;
            let t2 = mul(t2, z[k + 4]);
            let t1 = t2.wrapping_add(x2 ^ x4);
            let t1 = mul(t1, z[k + 5]);
            let t2 = t1.wrapping_add(t2);

            x1 ^= t1;
            x4 ^= t2;
            let tmp = x2 ^ t2;
            x2 = x3 ^ t1;
            x3 = tmp;
            k += 6;
        }
        // Output transform.
        let y1 = mul(x1, z[k]);
        let y2 = x3.wrapping_add(z[k + 1]);
        let y3 = x2.wrapping_add(z[k + 2]);
        let y4 = mul(x4, z[k + 3]);

        block[0..2].copy_from_slice(&y1.to_be_bytes());
        block[2..4].copy_from_slice(&y2.to_be_bytes());
        block[4..6].copy_from_slice(&y3.to_be_bytes());
        block[6..8].copy_from_slice(&y4.to_be_bytes());
    }

    /// The mathematical definition of the group product.
    fn golden(a: u16, b: u16) -> u16 {
        let aa: u64 = if a == 0 { 0x10000 } else { a as u64 };
        let bb: u64 = if b == 0 { 0x10000 } else { b as u64 };
        let m = (aa * bb) % 0x10001;
        if m == 0x10000 {
            0
        } else {
            m as u16
        }
    }

    #[test]
    fn mul_matches_group_definition() {
        for &b in &[
            0u16, 1, 2, 3, 77, 255, 256, 1024, 4821, 32767, 0x8000, 40503, 65535,
        ] {
            for a in 0..=u16::MAX {
                let want = golden(a, b);
                assert_eq!(lane_mul(a, b), want, "lane a={a} b={b}");
                assert_eq!(lane_mul(b, a), want, "lane a={b} b={a}");
                assert_eq!(mul(a, b), want, "reference a={a} b={b}");
            }
        }
    }

    /// Every pair of operands, in release: `cargo test --release -p
    /// pyjama-kernels -- --ignored`.
    #[test]
    #[ignore = "2^32 pairs; run in release with --ignored"]
    fn lane_mul_matches_group_definition_exhaustively() {
        for b in 0..=u16::MAX {
            let bad = (0..=u16::MAX).fold(false, |bad, a| bad | (lane_mul(a, b) != golden(a, b)));
            if bad {
                let a = (0..=u16::MAX)
                    .find(|&a| lane_mul(a, b) != golden(a, b))
                    .unwrap();
                panic!("a={a} b={b}: {} != {}", lane_mul(a, b), golden(a, b));
            }
        }
    }

    #[test]
    fn inv_is_multiplicative_inverse() {
        for x in 1..=u16::MAX {
            assert_eq!(lane_mul(x, inv(x)), 1, "x={x}");
        }
        assert_eq!(inv(0), 0, "65536 is self-inverse in the IDEA convention");
        assert_eq!(lane_mul(0, inv(0)), 1);
    }

    #[test]
    fn lane_kernel_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(0x1DEA);
        for nblocks in 0..=2 * LANES + 1 {
            let key = IdeaKey::new(std::array::from_fn(|_| rng.gen::<u32>() as u16));
            let plain: Vec<u8> = (0..nblocks * BLOCK)
                .map(|_| rng.gen::<u32>() as u8)
                .collect();
            let mut want = plain.clone();
            for block in want.chunks_mut(BLOCK) {
                cipher_block(block, key.encryption_schedule());
            }
            let mut seq = plain.clone();
            encrypt_seq(&key, &mut seq);
            assert_eq!(seq, want, "encrypt_seq, {nblocks} blocks");
            let mut par = plain.clone();
            encrypt_par(&key, &mut par, 3);
            assert_eq!(par, want, "encrypt_par, {nblocks} blocks");

            for block in want.chunks_mut(BLOCK) {
                cipher_block(block, key.decryption_schedule());
            }
            assert_eq!(want, plain, "reference round trip, {nblocks} blocks");
            decrypt_seq(&key, &mut seq);
            assert_eq!(seq, plain, "decrypt_seq, {nblocks} blocks");
            decrypt_par(&key, &mut par, 2);
            assert_eq!(par, plain, "decrypt_par, {nblocks} blocks");
        }
    }

    #[test]
    fn published_idea_test_vector() {
        // Key 0001 0002 0003 0004 0005 0006 0007 0008,
        // plaintext 0000 0001 0002 0003 → ciphertext 11FB ED2B 0198 6DE5.
        // One block is a padded tail of the lane kernel.
        let key = IdeaKey::new([1, 2, 3, 4, 5, 6, 7, 8]);
        let plain = [0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03];
        let cipher = [0x11, 0xFB, 0xED, 0x2B, 0x01, 0x98, 0x6D, 0xE5];
        let mut block = plain;
        encrypt_seq(&key, &mut block);
        assert_eq!(block, cipher);
        decrypt_seq(&key, &mut block);
        assert_eq!(block, plain);

        let mut block = plain;
        cipher_block(&mut block, key.encryption_schedule());
        assert_eq!(block, cipher, "reference");
    }

    #[test]
    fn encrypt_changes_data_decrypt_restores() {
        let key = IdeaKey::benchmark_key();
        let original = make_plaintext(1024);
        let mut data = original.clone();
        encrypt_seq(&key, &mut data);
        assert_ne!(data, original);
        decrypt_seq(&key, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn single_block_roundtrip_all_byte_patterns() {
        let key = IdeaKey::benchmark_key();
        for seed in 0u8..32 {
            let original: Vec<u8> = (0..8).map(|i| seed.wrapping_mul(31).wrapping_add(i)).collect();
            let mut block = original.clone();
            encrypt_seq(&key, &mut block);
            assert_ne!(block, original, "seed={seed}");
            decrypt_seq(&key, &mut block);
            assert_eq!(block, original, "seed={seed}");
        }
    }

    #[test]
    fn parallel_matches_sequential_ciphertext() {
        let key = IdeaKey::benchmark_key();
        let mut seq = make_plaintext(4096);
        let mut par = seq.clone();
        encrypt_seq(&key, &mut seq);
        encrypt_par(&key, &mut par, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_roundtrip() {
        let key = IdeaKey::benchmark_key();
        let original = make_plaintext(4096);
        let mut data = original.clone();
        encrypt_par(&key, &mut data, 3);
        decrypt_par(&key, &mut data, 5);
        assert_eq!(data, original);
    }

    #[test]
    fn kernel_seq_and_par_same_checksum() {
        let a = kernel(2048, None);
        let b = kernel(2048, Some(4));
        assert_eq!(a, b);
    }

    #[test]
    fn different_keys_different_ciphertext() {
        let k1 = IdeaKey::benchmark_key();
        let k2 = IdeaKey::new([1, 2, 3, 4, 5, 6, 7, 8]);
        let mut d1 = make_plaintext(64);
        let mut d2 = d1.clone();
        encrypt_seq(&k1, &mut d1);
        encrypt_seq(&k2, &mut d2);
        assert_ne!(d1, d2);
    }

    #[test]
    #[should_panic(expected = "block aligned")]
    fn unaligned_data_rejected() {
        let key = IdeaKey::benchmark_key();
        let mut data = vec![0u8; 7];
        encrypt_seq(&key, &mut data);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum(&[1, 2, 3]), checksum(&[3, 2, 1]));
    }

    #[test]
    fn plaintext_is_deterministic() {
        assert_eq!(make_plaintext(64), make_plaintext(64));
    }
}
