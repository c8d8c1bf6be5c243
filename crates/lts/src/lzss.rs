//! Byte-aligned LZSS, the compression layer under the BLTS column
//! streams (see [`crate::io::write_blts`]).
//!
//! The token stream is a sequence of groups: one control byte whose bits
//! select, LSB first, between a literal (one byte copied verbatim) and a
//! match (three bytes: 16-bit LE backward offset `1..=65535`, then
//! `length - 4` with lengths `4..=259`). Matches copy from the already
//! decoded output, byte by byte, so overlapping copies (offset < length)
//! repeat a period — the classic LZ trick for runs.
//!
//! The encoder uses a hash chain over 4-byte prefixes with a bounded
//! probe depth, making it deterministic, `O(n)` in practice, and free of
//! any allocation proportional to the window. Compression is modest
//! compared to entropy-coded formats, but the input it sees (sorted
//! varint delta columns) is highly self-similar, which is where LZSS
//! shines; and the decoder is ~30 lines that cannot panic.

/// Minimum match length worth a 3-byte token.
const MIN_MATCH: usize = 4;

/// Maximum match length encodable in one token.
const MAX_MATCH: usize = MIN_MATCH + 255;

/// Most output bytes one input byte can decode to: a 3-byte match token
/// yields at most [`MAX_MATCH`] bytes.
const MAX_EXPANSION: usize = MAX_MATCH.div_ceil(3);

/// Maximum backward offset (16-bit, zero reserved).
const MAX_OFFSET: usize = 65_535;

/// Hash-chain probe depth: bounds worst-case encode time.
const MAX_PROBES: usize = 64;

const HASH_BITS: u32 = 15;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input`. The output decodes back with [`decompress`]; it is
/// not guaranteed to be smaller than the input (callers should fall back
/// to storing raw bytes when it is not).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; n];
    let mut pos = 0;
    // Group under construction: control byte position + bit count.
    let mut ctrl_at = usize::MAX;
    let mut ctrl_bits = 0u32;
    let mut ctrl = 0u8;
    let mut begin_token = |out: &mut Vec<u8>, is_match: bool| {
        if ctrl_bits == 0 {
            ctrl_at = out.len();
            out.push(0);
            ctrl = 0;
        }
        if is_match {
            ctrl |= 1 << ctrl_bits;
        }
        ctrl_bits += 1;
        out[ctrl_at] = ctrl;
        if ctrl_bits == 8 {
            ctrl_bits = 0;
        }
    };
    while pos < n {
        let mut best_len = 0;
        let mut best_off = 0;
        if pos + MIN_MATCH <= n {
            let h = hash4(&input[pos..]);
            let mut cand = head[h];
            let mut probes = 0;
            while cand != usize::MAX && probes < MAX_PROBES {
                let off = pos - cand;
                if off > MAX_OFFSET {
                    break; // chain positions only get older
                }
                let limit = (n - pos).min(MAX_MATCH);
                let mut len = 0;
                while len < limit && input[cand + len] == input[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_off = off;
                    if len == MAX_MATCH {
                        break;
                    }
                }
                cand = prev[cand];
                probes += 1;
            }
            prev[pos] = head[h];
            head[h] = pos;
        }
        if best_len >= MIN_MATCH {
            begin_token(&mut out, true);
            out.extend_from_slice(&(best_off as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Index the skipped positions so later matches can start there.
            for p in pos + 1..(pos + best_len).min(n.saturating_sub(MIN_MATCH - 1)) {
                let h = hash4(&input[p..]);
                prev[p] = head[h];
                head[h] = p;
            }
            pos += best_len;
        } else {
            begin_token(&mut out, false);
            out.push(input[pos]);
            pos += 1;
        }
    }
    out
}

/// Decompresses exactly `expected_len` bytes, or returns `None` when the
/// stream is malformed (truncated, bad offset, or wrong decoded length).
/// Never panics, and never allocates more than the input can decode to:
/// an `expected_len` beyond `MAX_EXPANSION` bytes per input byte is
/// refused up front.
pub fn decompress(input: &[u8], expected_len: usize) -> Option<Vec<u8>> {
    if expected_len > input.len().saturating_mul(MAX_EXPANSION) {
        return None;
    }
    let mut out = Vec::with_capacity(expected_len);
    let mut pos = 0;
    while out.len() < expected_len {
        let ctrl = *input.get(pos)?;
        pos += 1;
        for bit in 0..8 {
            if out.len() == expected_len {
                break;
            }
            if ctrl & (1 << bit) == 0 {
                out.push(*input.get(pos)?);
                pos += 1;
            } else {
                let lo = *input.get(pos)?;
                let hi = *input.get(pos + 1)?;
                let len = *input.get(pos + 2)? as usize + MIN_MATCH;
                pos += 3;
                let off = usize::from(u16::from_le_bytes([lo, hi]));
                if off == 0 || off > out.len() || out.len() + len > expected_len {
                    return None;
                }
                for _ in 0..len {
                    out.push(out[out.len() - off]);
                }
            }
        }
    }
    if pos != input.len() {
        return None; // trailing garbage
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_length_beyond_the_input_is_refused_without_allocating() {
        // A 40 GB claim on one input byte would abort the process if the
        // output were pre-allocated from the declared length.
        assert_eq!(decompress(&[0], 40_000_000_000), None);
        // The bound still admits the densest stream: one control byte, a
        // literal, then seven 259-byte matches at offset 1.
        let mut stream = vec![0b1111_1110, b'x'];
        for _ in 0..7 {
            stream.extend_from_slice(&[1, 0, 255]);
        }
        let len = 1 + 7 * MAX_MATCH;
        assert!(len <= stream.len() * MAX_EXPANSION);
        assert_eq!(decompress(&stream, len), Some(vec![b'x'; len]));
    }

    fn roundtrip(data: &[u8]) {
        let comp = compress(data);
        let back = decompress(&comp, data.len()).expect("decodes");
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrips_edge_cases() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcd");
        roundtrip(&[0u8; 10_000]);
        roundtrip(b"abcabcabcabcabcabcabcabc");
        let mixed: Vec<u8> = (0..50_000u32).map(|i| ((i * i) >> 7) as u8).collect();
        roundtrip(&mixed);
    }

    #[test]
    fn compresses_repetitive_input() {
        let data = b"the quick brown fox ".repeat(500);
        let comp = compress(&data);
        assert!(comp.len() * 10 < data.len(), "{} vs {}", comp.len(), data.len());
        assert_eq!(decompress(&comp, data.len()).expect("decodes"), data);
    }

    #[test]
    fn overlapping_copies_decode() {
        // A long run compresses to overlapping matches (offset < length).
        let data = vec![7u8; 1000];
        let comp = compress(&data);
        assert!(comp.len() < 32);
        assert_eq!(decompress(&comp, data.len()).expect("decodes"), data);
    }

    #[test]
    fn decompress_rejects_malformed() {
        let comp = compress(b"abcdabcdabcdabcd-tail");
        // Truncations.
        for cut in 0..comp.len() {
            assert!(decompress(&comp[..cut], 21).is_none(), "cut at {cut}");
        }
        // Wrong expected length (trailing bytes left over).
        assert!(decompress(&comp, 5).is_none());
        // Offset beyond produced output.
        let bad = [0b0000_0001, 9, 0, 0]; // match at offset 9 with nothing decoded
        assert!(decompress(&bad, 4).is_none());
        // Zero offset.
        let bad = [0b0000_0001, 0, 0, 0];
        assert!(decompress(&bad, 4).is_none());
    }
}
