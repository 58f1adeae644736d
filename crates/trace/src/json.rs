//! Minimal hand-rolled JSON emission. `tms-trace` does not depend on
//! the vendored `serde`, so the exporters share these few helpers
//! instead.

use crate::sink::Histogram;

/// Append `s` as a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let n = c as u32;
                out.push(char::from_digit(n >> 4, 16).expect("nibble"));
                out.push(char::from_digit(n & 0xf, 16).expect("nibble"));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` in decimal without going through `format!` — the Chrome
/// exporter calls this several times per event, and an intermediate
/// `String` per number dominated its profile.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// Append the body of a `{"name": value, ...}` map (the caller writes
/// the opening `{`; this writes entries and the closing `}`), with each
/// value rendered by `write_val`.
pub fn write_map<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    write_val: impl Fn(&mut String, &V),
) {
    let mut first = true;
    for (name, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        write_str(out, name);
        out.push_str(": ");
        write_val(out, v);
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push('}');
}

/// Append a [`Histogram`] as a JSON object: the count/sum/min/max
/// summary, the p50/p95/p99 estimates, and the sparse power-of-two
/// bucket counts `[[index, count], ...]` that make two serialized
/// histograms mergeable without losing the percentile data.
pub fn write_histogram(out: &mut String, h: &Histogram) {
    out.push_str("{\"count\": ");
    push_u64(out, h.count);
    out.push_str(", \"sum\": ");
    push_u64(out, h.sum);
    out.push_str(", \"min\": ");
    push_u64(out, h.min);
    out.push_str(", \"max\": ");
    push_u64(out, h.max);
    out.push_str(", \"p50\": ");
    push_u64(out, h.p50());
    out.push_str(", \"p95\": ");
    push_u64(out, h.p95());
    out.push_str(", \"p99\": ");
    push_u64(out, h.p99());
    out.push_str(", \"buckets\": [");
    let mut first = true;
    for (i, &n) in h.buckets().iter().enumerate() {
        if n == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push('[');
        push_u64(out, i as u64);
        out.push(',');
        push_u64(out, n);
        out.push(']');
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\n\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn push_u64_matches_display() {
        let mut out = String::new();
        for v in [0u64, 1, 9, 10, 12345, u64::MAX] {
            out.clear();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn maps_render_sorted_entries() {
        let mut out = String::from("{");
        let entries = [("a".to_string(), 1u64), ("b".to_string(), 2u64)];
        write_map(&mut out, entries.iter().map(|(k, v)| (k, v)), |o, v| {
            o.push_str(&v.to_string())
        });
        assert_eq!(out, "{\n    \"a\": 1,\n    \"b\": 2\n  }");
    }

    #[test]
    fn empty_map_closes_immediately() {
        let mut out = String::from("{");
        let entries: [(String, u64); 0] = [];
        write_map(&mut out, entries.iter().map(|(k, v)| (k, v)), |o, v| {
            o.push_str(&v.to_string())
        });
        assert_eq!(out, "{}");
    }

    #[test]
    fn histogram_json_carries_percentiles_and_buckets() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record_sample(v);
        }
        let mut out = String::new();
        write_histogram(&mut out, &h);
        assert!(out.contains("\"count\": 100"));
        assert!(out.contains("\"p50\""));
        assert!(out.contains("\"p99\""));
        assert!(out.contains("\"buckets\": [["));
    }
}
