//! Minimal JSON string escaping, shared by every machine-readable output
//! in the workspace: the registry's `/metrics.json` snapshot, the
//! tracer's Chrome trace-event file, and, through `lomon_trace`'s
//! re-export, `lomon watch --format ndjson`, `lomon check/smc --format
//! json` and the engine and campaign report renderers.
//!
//! Only the *escaping* lives here — each output renders its own object
//! layout by hand, because the values are all numbers, booleans and
//! already-escaped strings and a JSON serializer would be an external
//! dependency.

/// Escape `text` for embedding in a JSON string literal: `"`, `\`,
/// newline and tab get their two-character escapes, all other control
/// characters become `\u00XX`.
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a \"b\" \\c"), "a \\\"b\\\" \\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("cr\r"), "cr\\u000d");
    }
}
