//! Frame-level run/dictionary coder for configuration streams.
//!
//! Partial bitstreams are dominated by a handful of word values — zeroed
//! frame words, the dummy/pad words, repeated routing patterns — so a
//! byte-token stream with a small word dictionary and run markers
//! compresses them well without any bit-level modelling. The format is
//! word-oriented on both sides so the HWICAP can decode it in front of
//! the ICAP: the host moves fewer words over the bus *and* the ICAP
//! shifts fewer words, which is where the reconfiguration time goes.
//!
//! Encoded layout (all `u32` words):
//!
//! ```text
//! [ MAGIC, n_decoded, n_tokens, dict_len,
//!   dict words …,                      (dict_len words)
//!   token bytes packed 4 per word …,   (n_tokens.div_ceil(4) words)
//!   literal words … ]
//! ```
//!
//! Token bytes: `0..=253` index the dictionary, `TOKEN_LITERAL` (254)
//! consumes the next literal word, `TOKEN_RUN` (255) is followed by a
//! count byte `n` repeating the previously decoded word `n + 1` more
//! times. The coder is fully deterministic: the dictionary is the most
//! frequent words ordered by (count desc, value asc).

/// First word of every compressed stream. Deliberately distinct from the
/// bitstream `SYNC_WORD` (0xAA99_5566) and `DUMMY_WORD` (0xFFFF_FFFF),
/// which open every real configuration stream, so a compressed stream
/// can never be mistaken for a raw one.
pub const COMPRESSED_MAGIC: u32 = 0xC0DE_C5ED;

/// Token: the next literal word is emitted verbatim.
const TOKEN_LITERAL: u8 = 254;
/// Token: the next token byte is a repeat count for the previous word.
const TOKEN_RUN: u8 = 255;
/// Dictionary indices occupy the remaining token space.
const DICT_CAPACITY: usize = TOKEN_LITERAL as usize;

/// Encodes `words` into the run/dictionary format. Always succeeds; the
/// result may be longer than the input on incompressible data — callers
/// keep whichever form is shorter.
pub fn compress_words(words: &[u32]) -> Vec<u32> {
    // Deterministic dictionary: count every word, keep the most frequent
    // repeaters (a word seen once costs the same as a literal, so only
    // count >= 2 earns a dictionary slot).
    let mut counts: Vec<(u32, u32)> = {
        let mut sorted = words.to_vec();
        sorted.sort_unstable();
        let mut counts = Vec::new();
        for &w in &sorted {
            match counts.last_mut() {
                Some((word, n)) if *word == w => *n += 1,
                _ => counts.push((w, 1u32)),
            }
        }
        counts
    };
    counts.retain(|&(_, n)| n >= 2);
    counts.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts.truncate(DICT_CAPACITY);
    let dict: Vec<u32> = counts.iter().map(|&(w, _)| w).collect();
    let index_of = |w: u32| dict.iter().position(|&d| d == w);

    let mut tokens: Vec<u8> = Vec::new();
    let mut literals: Vec<u32> = Vec::new();
    let mut i = 0;
    while i < words.len() {
        let w = words[i];
        let mut run = 1;
        while i + run < words.len() && words[i + run] == w {
            run += 1;
        }
        match index_of(w) {
            Some(idx) => tokens.push(idx as u8),
            None => {
                tokens.push(TOKEN_LITERAL);
                literals.push(w);
            }
        }
        let mut extra = run - 1;
        while extra > 0 {
            let chunk = extra.min(256);
            tokens.push(TOKEN_RUN);
            tokens.push((chunk - 1) as u8);
            extra -= chunk;
        }
        i += run;
    }

    let mut out = Vec::with_capacity(4 + dict.len() + tokens.len().div_ceil(4) + literals.len());
    out.push(COMPRESSED_MAGIC);
    out.push(words.len() as u32);
    out.push(tokens.len() as u32);
    out.push(dict.len() as u32);
    out.extend_from_slice(&dict);
    for chunk in tokens.chunks(4) {
        let mut word = 0u32;
        for (j, &b) in chunk.iter().enumerate() {
            word |= (b as u32) << ((3 - j) * 8);
        }
        out.push(word);
    }
    out.extend_from_slice(&literals);
    out
}

/// The decoded words of one compressed transfer, produced one at a time.
/// A transfer carries its literals after all of its tokens, so a decoder
/// needs the transfer whole; what it never needs is the decoded stream
/// whole. Built by [`decoded`], which has already checked the transfer.
#[derive(Debug, Clone)]
pub struct Decoded<'a> {
    dict: &'a [u32],
    token_area: &'a [u32],
    n_tokens: usize,
    literals: std::slice::Iter<'a, u32>,
    /// Next token index.
    j: usize,
    /// The word last produced, and how many more times a run repeats it.
    last: Option<u32>,
    repeat: usize,
    /// Words still to come (the header's decoded count).
    left: usize,
}

impl<'a> Decoded<'a> {
    /// Splits a transfer into its header fields, dictionary, tokens and
    /// literals, or `None` when they do not fit.
    fn new(words: &'a [u32]) -> Option<Self> {
        let (&magic, rest) = words.split_first()?;
        if magic != COMPRESSED_MAGIC || rest.len() < 3 {
            return None;
        }
        let n_decoded = rest[0] as usize;
        let n_tokens = rest[1] as usize;
        let dict_len = rest[2] as usize;
        if dict_len > DICT_CAPACITY {
            return None;
        }
        let body = &rest[3..];
        let token_words = n_tokens.div_ceil(4);
        if body.len() < dict_len + token_words {
            return None;
        }
        Some(Decoded {
            dict: &body[..dict_len],
            token_area: &body[dict_len..dict_len + token_words],
            n_tokens,
            literals: body[dict_len + token_words..].iter(),
            j: 0,
            last: None,
            repeat: 0,
            left: n_decoded,
        })
    }

    fn token(&self, j: usize) -> u8 {
        ((self.token_area[j / 4] >> ((3 - j % 4) * 8)) & 0xFF) as u8
    }

    /// The next decoded word: `Some(None)` once the tokens are spent,
    /// `None` when the transfer is inconsistent (a dangling or leading
    /// run, a missing literal, an out-of-range dictionary index).
    fn step(&mut self) -> Option<Option<u32>> {
        if self.repeat > 0 {
            self.repeat -= 1;
            return Some(self.last);
        }
        if self.j >= self.n_tokens {
            return Some(None);
        }
        let w = match self.token(self.j) {
            TOKEN_LITERAL => *self.literals.next()?,
            TOKEN_RUN => {
                self.j += 1;
                if self.j >= self.n_tokens {
                    return None;
                }
                let last = self.last?;
                self.repeat = self.token(self.j) as usize;
                last
            }
            idx => *self.dict.get(idx as usize)?,
        };
        self.j += 1;
        self.last = Some(w);
        Some(Some(w))
    }
}

impl Iterator for Decoded<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let w = self.step().flatten()?;
        self.left -= 1;
        Some(w)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Decoded<'_> {}

/// Checks a transfer produced by [`compress_words`] and returns its
/// decoded words as a word source. Returns `None` if the transfer is not
/// compressed or is internally inconsistent (bad counts, dangling run,
/// out-of-range dictionary index, literals missing or left over) — the
/// check walks the tokens once without producing a word, so a rejected
/// transfer delivers none.
pub fn decoded(words: &[u32]) -> Option<Decoded<'_>> {
    let start = Decoded::new(words)?;
    let mut probe = start.clone();
    let mut n = 0usize;
    while probe.step()?.is_some() {
        n += 1;
    }
    (n == start.left && probe.literals.next().is_none()).then_some(start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{DUMMY_WORD, SYNC_WORD};
    use vp2_sim::SplitMix64;

    fn decompress_words(words: &[u32]) -> Option<Vec<u32>> {
        Some(decoded(words)?.collect())
    }

    #[test]
    fn magic_collides_with_no_stream_opener() {
        assert_ne!(COMPRESSED_MAGIC, SYNC_WORD);
        assert_ne!(COMPRESSED_MAGIC, DUMMY_WORD);
    }

    #[test]
    fn roundtrip_on_random_words() {
        let mut rng = SplitMix64::new(0xC0DE);
        // Mix of repeats, runs and one-off literals.
        let mut words = Vec::new();
        for _ in 0..4096 {
            words.push(match rng.next_u64() % 5 {
                0 => 0,
                1 => DUMMY_WORD,
                2 => 0x1234_5678,
                _ => rng.next_u64() as u32,
            });
        }
        // Inject a long run to cross the 256-repeat chunking.
        words.extend(std::iter::repeat_n(0xAB, 700));
        let packed = compress_words(&words);
        assert_eq!(decompress_words(&packed).as_deref(), Some(&words[..]));
    }

    #[test]
    fn empty_and_degenerate_inputs_roundtrip() {
        for words in [vec![], vec![7u32], vec![9; 1000]] {
            let packed = compress_words(&words);
            assert_eq!(decompress_words(&packed).as_deref(), Some(&words[..]));
        }
        // All-same input collapses to a few header words.
        assert!(compress_words(&[9; 1000]).len() < 10);
    }

    #[test]
    fn frame_like_data_compresses() {
        // Sparse frame data — mostly zero words, as real partial
        // configurations of a lightly used region are.
        let mut words = vec![0u32; 2000];
        for i in (0..2000).step_by(37) {
            words[i] = 0x8000_0000 | i as u32;
        }
        let packed = compress_words(&words);
        assert!(
            packed.len() * 4 < words.len(),
            "sparse frames must compress at least 4x: {} vs {}",
            packed.len(),
            words.len()
        );
        assert_eq!(decompress_words(&packed).as_deref(), Some(&words[..]));
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let packed = compress_words(&[1, 2, 3, 1, 1, 2]);
        assert!(decompress_words(&packed[..packed.len() - 1]).is_none());
        let mut bad = packed.clone();
        bad[1] += 1; // wrong decoded count
        assert!(decompress_words(&bad).is_none());
        assert!(decompress_words(&[SYNC_WORD, 0, 0, 0]).is_none());
    }
}
