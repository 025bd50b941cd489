//! A minimal JSON writer.
//!
//! The telemetry sinks emit machine-readable JSON (registry snapshots,
//! frame timelines, JSON-lines event logs). This crate sits below every
//! other workspace crate and must stay dependency-free, so we carry the
//! ~hundred lines of JSON writer that telemetry actually needs: escaped
//! strings, finite-checked numbers, and push-style object / array
//! composition into a `String`.

/// Append a JSON string literal (quoted, escaped) to `out`.
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append an f64. Non-finite values (which JSON cannot represent) become
/// `null`; integral values print without a fractional part.
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

/// Append a u64.
pub fn write_u64(out: &mut String, v: u64) {
    out.push_str(&format!("{v}"));
}

/// Builder for a JSON object: tracks comma placement so call sites stay
/// linear. Keys are written in call order.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(self.out, k);
        self.out.push(':');
        self.out
    }

    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        let out = self.key(k);
        write_str(out, v);
        self
    }

    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        let out = self.key(k);
        write_f64(out, v);
        self
    }

    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        let out = self.key(k);
        write_u64(out, v);
        self
    }

    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        let out = self.key(k);
        out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Write `k` and hand back the buffer for a nested raw value; the
    /// caller must append exactly one valid JSON value.
    pub fn field_raw(&mut self, k: &str) -> &mut String {
        self.key(k)
    }

    /// Write `k` as an array of one object per item, each filled by `each`.
    pub fn field_objects<T>(
        &mut self,
        k: &str,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut ObjectWriter<'_>, T),
    ) -> &mut Self {
        let out = self.key(k);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut w = ObjectWriter::new(out);
            each(&mut w, item);
            w.finish();
        }
        out.push(']');
        self
    }

    pub fn finish(self) {
        self.out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        s.push(' ');
        write_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "null null");
    }

    #[test]
    fn integral_floats_print_clean() {
        let mut s = String::new();
        write_f64(&mut s, 3.0);
        assert_eq!(s, "3");
        s.clear();
        write_f64(&mut s, 3.5);
        assert_eq!(s, "3.5");
    }

    #[test]
    fn object_arrays_separate_their_objects() {
        let mut s = String::new();
        let mut o = ObjectWriter::new(&mut s);
        o.field_objects("xs", [1u64, 2], |w, x| {
            w.field_u64("x", x);
        });
        o.field_objects("none", Vec::<u64>::new(), |_, _| {});
        o.finish();
        assert_eq!(s, r#"{"xs":[{"x":1},{"x":2}],"none":[]}"#);
    }

    #[test]
    fn object_writer_commas() {
        let mut s = String::new();
        let mut o = ObjectWriter::new(&mut s);
        o.field_str("a", "x")
            .field_u64("b", 2)
            .field_bool("c", true);
        o.finish();
        assert_eq!(s, "{\"a\":\"x\",\"b\":2,\"c\":true}");
    }
}
