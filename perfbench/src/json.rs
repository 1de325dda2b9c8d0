//! A minimal JSON object writer for the output `run.py` parses.

/// An object under construction; keys keep insertion order.
pub struct Obj {
    fields: Vec<String>,
}

impl Obj {
    pub fn new() -> Obj {
        Obj { fields: Vec::new() }
    }

    /// Adds a value already rendered as JSON.
    pub fn raw(&mut self, key: &str, json: &str) {
        self.fields.push(format!("{}:{json}", quote(key)));
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.raw(key, &quote(value));
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.raw(key, &value.to_string());
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.raw(key, if value { "true" } else { "false" });
    }

    /// Adds a float; non-finite values, which JSON cannot hold, become `null`.
    pub fn num(&mut self, key: &str, value: f64) {
        if value.is_finite() {
            self.raw(key, &format!("{value:e}"));
        } else {
            self.raw(key, "null");
        }
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
