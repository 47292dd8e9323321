//! Plain-text trace import/export, so the harness can run **real** traces
//! (e.g. from a binary-instrumentation pass) instead of the synthetic
//! generators.
//!
//! Format: one reference per line, `#`-comments and blank lines ignored:
//!
//! ```text
//! # gap addr kind [dep]
//! 12 0x7f001040 R
//! 0  0x7f001080 W
//! 3  0x10ff00   R dep
//! ```
//!
//! `gap` is the number of non-memory instructions before the reference,
//! `addr` is hex (`0x`-prefixed) or decimal, `kind` is `R` or `W`, and an
//! optional trailing `dep` marks a reference that depends on its
//! predecessor (pointer chasing).

use std::io::{BufRead, Write};

use das_cpu::TraceItem;

/// Errors raised while parsing a trace line.
#[derive(Debug)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

fn parse_line(line: &str, lineno: usize) -> Result<Option<TraceItem>, ParseTraceError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let err = |message: String| ParseTraceError {
        line: lineno,
        message,
    };
    let mut fields = line.split_whitespace();
    let gap: u32 = fields
        .next()
        .ok_or_else(|| err("missing gap".into()))?
        .parse()
        .map_err(|e| err(format!("bad gap: {e}")))?;
    let addr_s = fields.next().ok_or_else(|| err("missing address".into()))?;
    let addr = if let Some(hex) = addr_s
        .strip_prefix("0x")
        .or_else(|| addr_s.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).map_err(|e| err(format!("bad hex address: {e}")))?
    } else {
        addr_s
            .parse()
            .map_err(|e| err(format!("bad address: {e}")))?
    };
    let kind = fields
        .next()
        .ok_or_else(|| err("missing R/W kind".into()))?;
    let is_write = match kind {
        "R" | "r" => false,
        "W" | "w" => true,
        other => return Err(err(format!("kind must be R or W, got {other:?}"))),
    };
    let depends_on_prev = match fields.next() {
        None => false,
        Some("dep") => {
            if is_write {
                return Err(err("stores cannot be dependent".into()));
            }
            true
        }
        Some(other) => return Err(err(format!("unexpected field {other:?}"))),
    };
    if let Some(extra) = fields.next() {
        return Err(err(format!("trailing field {extra:?}")));
    }
    Ok(Some(TraceItem {
        gap,
        addr,
        is_write,
        depends_on_prev,
    }))
}

/// Parses a whole trace from a reader.
///
/// A final record without its newline was cut mid-write (a truncated
/// copy, a crashed producer): even when what is left parses
/// (`3 0x10ff00 R dep` cut to `3 0x10ff00 R`), fields may be missing, so
/// it is rejected. An unterminated blank or comment line carries no
/// record data and stays harmless.
///
/// # Errors
///
/// Returns the first I/O or syntax error, or the truncated final record,
/// with its line number.
pub fn read_trace<R: BufRead>(mut reader: R) -> Result<Vec<TraceItem>, Box<dyn std::error::Error>> {
    let mut items = Vec::new();
    let mut line = String::new();
    for lineno in 1.. {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        if let Some(item) = parse_line(&line, lineno)? {
            if !line.ends_with('\n') {
                return Err(Box::new(ParseTraceError {
                    line: lineno,
                    message: format!(
                        "truncated final record (file ends mid-line): {:?}",
                        line.trim()
                    ),
                }));
            }
            items.push(item);
        }
    }
    Ok(items)
}

/// Writes a trace in the canonical format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_trace<W: Write>(
    writer: &mut W,
    items: impl IntoIterator<Item = TraceItem>,
) -> std::io::Result<()> {
    writeln!(writer, "# gap addr kind [dep]")?;
    for item in items {
        let kind = if item.is_write { "W" } else { "R" };
        if item.depends_on_prev {
            writeln!(writer, "{} {:#x} {} dep", item.gap, item.addr, kind)?;
        } else {
            writeln!(writer, "{} {:#x} {}", item.gap, item.addr, kind)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn roundtrip_preserves_items() {
        let items = vec![
            TraceItem::load(12, 0x7f00_1040),
            TraceItem::store(0, 0x7f00_1080),
            TraceItem::dependent_load(3, 0x10_ff00),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, items.clone()).unwrap();
        let parsed = read_trace(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(parsed, items);
    }

    #[test]
    fn comments_blanks_and_decimal_addresses() {
        let text = "# header\n\n5 4096 R\n0 0x1000 W\n";
        let parsed = read_trace(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].addr, 4096);
        assert_eq!(parsed[1].addr, 0x1000);
        assert!(parsed[1].is_write);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "0 0x10 R\nbogus\n";
        let err = read_trace(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn dependent_store_is_rejected() {
        let err = read_trace(BufReader::new("1 0x40 W dep".as_bytes())).unwrap_err();
        assert!(err.to_string().contains("stores cannot be dependent"));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(read_trace(BufReader::new("1 0x40 X".as_bytes())).is_err());
        assert!(read_trace(BufReader::new("1 0x40 R dep extra".as_bytes())).is_err());
    }

    #[test]
    fn truncated_final_record_is_rejected_with_its_line_number() {
        // The last record lost its ` dep` tail and its newline mid-write;
        // what is left parses as an independent load, so the reader must
        // flag it instead of silently dropping the dependency.
        let text = "0 0x10 R\n1 0x20 W\n3 0x10ff00 R";
        let err = read_trace(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("trace line 3"), "{err}");
        assert!(err.to_string().contains("truncated final record"), "{err}");
    }

    #[test]
    fn unterminated_trailing_comment_or_blank_is_harmless() {
        for text in ["0 0x10 R\n# tail", "0 0x10 R\n   "] {
            let items = read_trace(BufReader::new(text.as_bytes())).unwrap();
            assert_eq!(items.len(), 1, "{text:?}");
        }
    }
}
