//! `obs::json`'s tree parser under generated and hostile input.
//!
//! `Json::parse` reads `report --json` output, profiles and bench
//! snapshots. Arbitrary, truncated and byte-flipped text must parse to a
//! tree or a `JsonError`, never a panic, and a tree it accepts must read
//! back from its own `Display` as itself. A generated tree, with finite
//! numbers, strings that need escapes and nesting up to `MAX_DEPTH`, must
//! round-trip the same way; one level deeper is an error.

use distclass::obs::json::MAX_DEPTH;
use distclass::obs::Json;
use proptest::prelude::*;

/// SplitMix64 rolls from one drawn seed: as many as a tree needs.
struct Dice(u64);

impl Dice {
    fn roll(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.roll() % n as u64) as usize
    }

    /// A finite number: zero, an integer up to 2^53, a fraction, huge,
    /// tiny or subnormal, or any finite bit pattern.
    fn number(&mut self) -> f64 {
        let x = self.roll() as f64 / (1u64 << 20) as f64;
        let n = match self.below(7) {
            0 => 0.0,
            1 => (self.roll() % ((1 << 53) + 1)) as f64,
            2 => x,
            3 => x * 1e290,
            4 => x * 1e-300,
            5 => f64::from_bits(self.roll() % (1 << 52)),
            _ => f64::from_bits(self.roll()),
        };
        let n = if n.is_finite() { n } else { f64::MAX };
        if self.below(2) == 0 {
            -n
        } else {
            n
        }
    }

    /// A string with the characters JSON must escape, and some it need not.
    fn text(&mut self) -> String {
        const PIECES: &[&str] = &[
            "report", "\"", "\\", "/", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{1f}", "\u{7f}", "é",
            "→", "😀", " ", "\\u0041", "null",
        ];
        (0..self.below(5))
            .map(|_| PIECES[self.below(PIECES.len())])
            .collect()
    }

    fn scalar(&mut self) -> Json {
        match self.below(4) {
            0 => Json::Null,
            1 => Json::Bool(self.below(2) == 0),
            2 => Json::Num(self.number()),
            _ => Json::Str(self.text()),
        }
    }

    /// An array or an object of `items`, keys drawn fresh (and possibly
    /// repeated).
    fn container(&mut self, items: Vec<Json>) -> Json {
        if self.below(2) == 0 {
            Json::Arr(items)
        } else {
            Json::Obj(items.into_iter().map(|v| (self.text(), v)).collect())
        }
    }

    /// A tree nested exactly `depth` levels: a chain of arrays and objects
    /// down to a scalar, with up to three siblings beside each link,
    /// scalars or (where the depth allows) containers of scalars.
    fn tree(&mut self, depth: usize) -> Json {
        if depth == 0 {
            return self.scalar();
        }
        let mut items: Vec<Json> = (0..self.below(4))
            .map(|_| {
                if depth >= 2 && self.below(3) == 0 {
                    let leaves = (0..self.below(3)).map(|_| self.scalar()).collect();
                    self.container(leaves)
                } else {
                    self.scalar()
                }
            })
            .collect();
        let at = self.below(items.len() + 1);
        items.insert(at, self.tree(depth - 1));
        self.container(items)
    }
}

/// How deeply `value`'s arrays and objects nest.
fn depth(value: &Json) -> usize {
    match value {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// Whether every number in `value` is finite (text such as `1e999`
/// parses to infinity, which writes as `null`).
fn finite(value: &Json) -> bool {
    match value {
        Json::Num(n) => n.is_finite(),
        Json::Arr(items) => items.iter().all(finite),
        Json::Obj(fields) => fields.iter().all(|(_, v)| finite(v)),
        _ => true,
    }
}

/// Parses `text`, which must not panic; a finite tree it accepts must
/// read back from its own `Display` as itself.
fn parse_any(text: &str) -> Result<(), TestCaseError> {
    if let Ok(value) = Json::parse(text) {
        if finite(&value) {
            let again = value.to_string();
            prop_assert!(
                Json::parse(&again).as_ref() == Ok(&value),
                "{text:?} parsed to {value:?}, which wrote {again:?}"
            );
        }
    }
    Ok(())
}

/// JSON tokens, and text at and past their edges.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", " ", "\n", "\"a\"", "\"", "\\", "\\u", "\\u00e9", "\\ud83d", "0",
    "-", "-0", "01", "1.", ".5", "1e", "1e999", "-1e-999", "2.5E+3", "true", "tru", "false",
    "null", "nul", "é", "😀", "\u{0}", "\u{7f}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A generated tree reads back from its own text as itself, and that
    /// text is what the tree writes again.
    #[test]
    fn generated_trees_round_trip(seed in 0u64..u64::MAX, levels in 0usize..=MAX_DEPTH) {
        let tree = Dice(seed).tree(levels);
        prop_assert_eq!(depth(&tree), levels);
        let text = tree.to_string();
        let back = Json::parse(&text);
        prop_assert!(back.as_ref() == Ok(&tree), "{text}: {back:?}");
        prop_assert_eq!(back.map(|b| b.to_string()).ok(), Some(text));
    }

    /// A tree nested `MAX_DEPTH` levels parses; wrapped in one more array
    /// or object, it is an error that says why.
    #[test]
    fn nesting_past_max_depth_is_an_error(seed in 0u64..u64::MAX) {
        let mut dice = Dice(seed);
        let deepest = dice.tree(MAX_DEPTH);
        prop_assert!(Json::parse(&deepest.to_string()).is_ok());
        let deeper = dice.container(vec![deepest]);
        prop_assert_eq!(depth(&deeper), MAX_DEPTH + 1);
        match Json::parse(&deeper.to_string()) {
            Ok(v) => prop_assert!(false, "parsed {} levels: {v:?}", MAX_DEPTH + 1),
            Err(e) => prop_assert!(e.message.contains("nesting"), "{e}"),
        }
    }

    /// Any prefix of a tree's text, and its text with one character
    /// replaced by any ASCII byte, parses or is an error.
    #[test]
    fn truncated_and_flipped_text_never_panics(seed in 0u64..u64::MAX, levels in 0usize..8, cut in 0usize..4096, at in 0usize..4096, byte in 0u8..128) {
        let text = Dice(seed).tree(levels).to_string();
        let mut cut = cut % (text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let mut at = at % text.len();
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let width = text[at..].chars().next().map_or(1, char::len_utf8);
        let flipped = format!("{}{}{}", &text[..at], byte as char, &text[at + width..]);
        parse_any(&text[..cut])?;
        parse_any(&flipped)?;
    }

    /// Token soup, and arbitrary characters, parse or are errors.
    #[test]
    fn arbitrary_text_never_panics(tokens in collection::vec(0usize..TOKENS.len(), 0..48), chars in collection::vec(0u32..0x11_0000, 0..48)) {
        let soup: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        let noise: String = chars.iter().filter_map(|&c| char::from_u32(c)).collect();
        let ascii: String = chars.iter().map(|&c| char::from((c % 128) as u8)).collect();
        for text in [soup.as_str(), noise.as_str(), ascii.as_str(), &format!("[{soup}]"), &format!("{{\"k\":{soup}")] {
            parse_any(text)?;
        }
    }
}
