//! Minimal Rust token scanner.
//!
//! `aalint` runs in an air-gapped container, so it cannot use `syn` or
//! any other parser crate. This lexer covers exactly the slice of Rust
//! lexical structure the rules need: identifiers and punctuation with
//! line numbers, with comments and every literal form (strings, raw
//! strings, byte/C strings, chars, numbers) stripped so rule patterns
//! can never match inside them.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line the token starts on.
    pub line: u32,
    pub kind: TokKind,
}

/// Token payload. Literals carry no content: no rule inspects them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `unsafe`, `unwrap`, `_`, ...).
    Ident(String),
    /// Single punctuation character (`.`, `;`, `(`, `::` arrives as two).
    Punct(char),
    /// String/char/number literal, content discarded.
    Lit,
}

/// Lexes `src` into its token stream.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer { src: src.as_bytes(), pos: 0, line: 1 }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Tok> {
        let mut toks = Vec::new();
        while let Some(&b) = self.src.get(self.pos) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => {
                    while self.src.get(self.pos).is_some_and(|&c| c != b'\n') {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    toks.push(Tok { line: self.line, kind: TokKind::Lit });
                    self.pos += 1;
                    self.cooked_string_tail();
                }
                b'\'' => self.char_or_lifetime(&mut toks),
                b'0'..=b'9' => {
                    toks.push(Tok { line: self.line, kind: TokKind::Lit });
                    self.number_tail();
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let line = self.line;
                    let start = self.pos;
                    while self
                        .src
                        .get(self.pos)
                        .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
                    {
                        self.pos += 1;
                    }
                    let word = &self.src[start..self.pos];
                    if self.string_prefix(word) {
                        toks.push(Tok { line, kind: TokKind::Lit });
                    } else {
                        let ident = String::from_utf8_lossy(word).into_owned();
                        toks.push(Tok { line, kind: TokKind::Ident(ident) });
                    }
                }
                _ => {
                    if b.is_ascii() {
                        toks.push(Tok { line: self.line, kind: TokKind::Punct(b as char) });
                    }
                    self.pos += 1;
                }
            }
        }
        toks
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Consumes a (nested) block comment starting at `/*`.
    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1usize;
        while depth > 0 {
            match (self.src.get(self.pos), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some(&c), _) => {
                    if c == b'\n' {
                        self.line += 1;
                    }
                    self.pos += 1;
                }
                (None, _) => return,
            }
        }
    }

    /// Consumes the body of a `"..."` string after the opening quote.
    fn cooked_string_tail(&mut self) {
        while let Some(&c) = self.src.get(self.pos) {
            self.pos += 1;
            match c {
                b'"' => return,
                b'\\' => {
                    if self.src.get(self.pos).is_some_and(|&n| n == b'\n') {
                        self.line += 1;
                    }
                    self.pos += 1;
                }
                b'\n' => self.line += 1,
                _ => {}
            }
        }
    }

    /// Consumes a `r##"..."##` body after the prefix ident; the cursor
    /// sits on the first `#` or `"`.
    fn raw_string_tail(&mut self) {
        let mut hashes = 0usize;
        while self.src.get(self.pos) == Some(&b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        loop {
            match self.src.get(self.pos) {
                None => return,
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'"') => {
                    self.pos += 1;
                    let mut seen = 0usize;
                    while seen < hashes && self.src.get(self.pos) == Some(&b'#') {
                        seen += 1;
                        self.pos += 1;
                    }
                    if seen == hashes {
                        return;
                    }
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Handles an identifier that turns out to prefix a string literal
    /// (`r"..."`, `b"..."`, `br#"..."#`, `c"..."`, `cr#"..."#`).
    /// Returns true when a literal was consumed.
    fn string_prefix(&mut self, word: &[u8]) -> bool {
        let raw = matches!(word, b"r" | b"br" | b"cr");
        let cooked = matches!(word, b"b" | b"c");
        match self.src.get(self.pos) {
            Some(b'"') if raw => {
                self.raw_string_tail();
                true
            }
            Some(b'"') if cooked => {
                self.pos += 1;
                self.cooked_string_tail();
                true
            }
            Some(b'#') if raw && self.rest_has_quote_before_newline() => {
                self.raw_string_tail();
                true
            }
            _ => false,
        }
    }

    /// Distinguishes `r#"..."#` from the raw identifier `r#foo`: a raw
    /// string's quote follows its hashes immediately.
    fn rest_has_quote_before_newline(&self) -> bool {
        let mut i = self.pos;
        while self.src.get(i) == Some(&b'#') {
            i += 1;
        }
        self.src.get(i) == Some(&b'"')
    }

    /// Number literal tail: integer/float/suffix forms, loosely. The
    /// cursor sits on the first digit.
    fn number_tail(&mut self) {
        while self
            .src
            .get(self.pos)
            .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.pos += 1;
        }
        // Fraction: only when a digit follows the dot (so `0..n` and
        // tuple-index chains stay punctuation).
        if self.src.get(self.pos) == Some(&b'.')
            && self.peek(1).is_some_and(|c| c.is_ascii_digit())
        {
            self.pos += 1;
            while self
                .src
                .get(self.pos)
                .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
            {
                self.pos += 1;
            }
        }
        // Signed exponent (`1e-9`): the alnum loop above stops at `-`.
        if self.src.get(self.pos.wrapping_sub(1)).is_some_and(|&c| c == b'e' || c == b'E')
            && self.src.get(self.pos).is_some_and(|&c| c == b'+' || c == b'-')
            && self.peek(1).is_some_and(|c| c.is_ascii_digit())
        {
            self.pos += 1;
            while self.src.get(self.pos).is_some_and(|&c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
    }

    /// `'` starts either a char literal or a lifetime. A lifetime is a
    /// quote followed by ident chars with no closing quote right after
    /// the first char (`'a`, `'static`); anything else is a char
    /// literal (`'x'`, `'\n'`, `'\''`).
    fn char_or_lifetime(&mut self, toks: &mut Vec<Tok>) {
        let line = self.line;
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime = next.is_some_and(|c| c.is_ascii_alphabetic() || c == b'_')
            && after != Some(b'\'');
        if is_lifetime {
            self.pos += 1; // skip quote; the ident lexes on the next loop turn
            return;
        }
        toks.push(Tok { line, kind: TokKind::Lit });
        self.pos += 1;
        if self.src.get(self.pos) == Some(&b'\\') {
            self.pos += 1; // escaped char: skip it so `'\''` closes correctly
        }
        self.pos += 1;
        while self.src.get(self.pos).is_some_and(|&c| c != b'\'' && c != b'\n') {
            self.pos += 1;
        }
        if self.src.get(self.pos) == Some(&b'\'') {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r##"
            let a = "unwrap() inside string";
            // unwrap() inside comment
            /* block /* nested */ unwrap() */
            let b = r#"raw "quoted" unwrap()"#;
            let c = b"bytes unwrap()";
        "##;
        let names = idents(src);
        assert!(!names.iter().any(|s| s == "unwrap"));
        assert_eq!(names, vec!["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let names = idents("fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x'; let n = '\\n';");
        assert!(names.contains(&"a".to_string()));
        assert!(names.contains(&"str".to_string()));
        // the char literals did not swallow trailing code
        assert_eq!(names.iter().filter(|s| *s == "let").count(), 2);
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let s = \"line\none\";\nlet t = 2;\n";
        let toks = lex(src);
        let t_line = toks
            .iter()
            .find(|t| t.kind == TokKind::Ident("t".into()))
            .map(|t| t.line);
        assert_eq!(t_line, Some(3));
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let toks = lex("for i in 0..10 { a[i] = 1.5e-3; let t = x.0; }");
        let dots = toks.iter().filter(|t| t.kind == TokKind::Punct('.')).count();
        assert_eq!(dots, 3, "two range dots + one tuple-index dot");
    }
}
