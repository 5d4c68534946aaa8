//! The one JSON writer behind every `BENCH_*.json`, plus the helpers the
//! benches share: FNV-1a, percentiles and the per-shape ratio.
//!
//! A document is an ordered [`Object`]: [`Object::render`] prints one key
//! per line, [`Rows`] one row per line, and every row or nested object
//! inline. Strings are escaped; a float prints through [`Float`] with the
//! decimals its field names — `f64` has no [`Json`] impl, so a float
//! field cannot forget its precision. `row!` builds a row from a
//! struct's fields, keyed by field name; `rows!` maps it over a slice.

use latr_sim::Summary;

/// A value the writer can print.
pub trait Json {
    /// The value as JSON text.
    fn json(&self) -> String;
}

/// A float with a fixed number of decimals (`null` if not finite).
pub struct Float(pub f64, pub usize);

/// A 64-bit fingerprint as a 16-hex-digit string.
pub struct Hex(pub u64);

/// An array printed one row per line, as every bench file lists its rows.
pub struct Rows(pub Vec<Object>);

/// An ordered JSON object.
#[derive(Clone, Debug, Default)]
pub struct Object(Vec<(String, String)>);

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Appends `key: value`.
    pub fn field(mut self, key: &str, value: impl Json) -> Self {
        self.0.push((key.json(), value.json()));
        self
    }

    /// Appends every `(key, value)` pair in order.
    pub fn fields<V: Json>(self, pairs: impl IntoIterator<Item = (String, V)>) -> Self {
        pairs.into_iter().fold(self, |o, (k, v)| o.field(&k, v))
    }

    /// Renders the object as a bench document: one key per line.
    pub fn render(&self) -> String {
        format!("{{\n  {}\n}}\n", self.join(",\n  "))
    }

    fn join(&self, sep: &str) -> String {
        let pairs: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}: {v}")).collect();
        pairs.join(sep)
    }
}

impl Json for Object {
    fn json(&self) -> String {
        format!("{{{}}}", self.join(", "))
    }
}

impl Json for Rows {
    fn json(&self) -> String {
        if self.0.is_empty() {
            return "[]".to_string();
        }
        let rows: Vec<String> = self.0.iter().map(Json::json).collect();
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

impl Json for Float {
    fn json(&self) -> String {
        if self.0.is_finite() {
            format!("{:.*}", self.1, self.0)
        } else {
            "null".to_string()
        }
    }
}

impl Json for Hex {
    fn json(&self) -> String {
        format!("\"{:016x}\"", self.0)
    }
}

impl Json for str {
    fn json(&self) -> String {
        let mut out = String::from("\"");
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

impl Json for String {
    fn json(&self) -> String {
        self.as_str().json()
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn json(&self) -> String {
        (**self).json()
    }
}

impl<T: Json> Json for Option<T> {
    fn json(&self) -> String {
        self.as_ref().map_or_else(|| "null".to_string(), Json::json)
    }
}

macro_rules! json_via_display {
    ($($t:ty),*) => {
        $(impl Json for $t {
            fn json(&self) -> String {
                self.to_string()
            }
        })*
    };
}

json_via_display!(bool, u32, u64, u128, usize);

/// Builds an [`Object`] from fields of `$s`, each keyed by its own name:
/// `row!(p; cores, wall_ns, ticks_per_sec: 1, fingerprint: hex)`. A float
/// field names its decimals, `hex` prints a `u64` as 16 hex digits, and
/// every other field goes through [`Json`].
macro_rules! row {
    ($s:expr; $($field:ident $(: $fmt:tt)?),* $(,)?) => {{
        let s = &$s;
        $crate::report::Object::new()
            $(.field(stringify!($field), $crate::report::cell!(s.$field $(, $fmt)?)))*
    }};
}

/// [`Rows`] holding `row!(p; ..)` for every `p` in `$items`.
macro_rules! rows {
    ($items:expr; $($spec:tt)*) => {
        $crate::report::Rows($items.iter().map(|p| $crate::report::row!(p; $($spec)*)).collect())
    };
}

/// One [`row!`] cell.
macro_rules! cell {
    ($v:expr) => {
        &$v
    };
    ($v:expr, hex) => {
        $crate::report::Hex($v)
    };
    ($v:expr, $decimals:literal) => {
        $crate::report::Float($v, $decimals)
    };
}

pub(crate) use {cell, row, rows};

/// A latency summary as the serving bench nests it (`min` omitted).
impl Json for Summary {
    fn json(&self) -> String {
        row!(self; count, mean: 1, p50, p90, p99, p999, max).json()
    }
}

/// FNV-1a over a fingerprint's text: compact enough for a JSON field,
/// collision-proof enough for "did the run change".
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The `q`-quantile of an ascending slice by nearest rank (0 if empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `(shape, engine a's metric ÷ engine b's)` for every shape measured on
/// both, in `a`'s order. `key` maps a point to its
/// `(engine, shape, metric)`.
pub fn ratios<'p, P, S: PartialEq + Copy>(
    points: &'p [P],
    a: &str,
    b: &str,
    key: impl Fn(&'p P) -> (&'p str, S, f64),
) -> Vec<(S, f64)> {
    let keyed: Vec<_> = points.iter().map(key).collect();
    keyed
        .iter()
        .filter(|k| k.0 == a)
        .filter_map(|&(_, shape, x)| {
            let other = keyed.iter().find(|k| k.0 == b && k.1 == shape)?;
            Some((shape, x / other.2.max(1e-9)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use latr_sim::Histogram;

    #[test]
    fn renders_ordered_escaped_fixed_decimal_json() {
        struct Point {
            name: &'static str,
            rate: f64,
            missing: Option<u64>,
            fingerprint: u64,
            latency: Summary,
        }
        let mut h = Histogram::new();
        h.record(5);
        let p = Point {
            name: "say \"hi\"\n",
            rate: 2.0 / 3.0,
            missing: None,
            fingerprint: 0xab,
            latency: h.summary(),
        };
        let json = Object::new()
            .field(
                "rows",
                Rows(vec![row!(p; name, rate: 2, missing, fingerprint: hex)]),
            )
            .field("nested", row!(p; latency))
            .field("empty", Rows(Vec::new()))
            .fields([("ratio_at_4".to_string(), Float(2.0, 2))])
            .field("nan", Float(f64::NAN, 1))
            .render();
        assert_eq!(
            json,
            "{\n  \"rows\": [\n    {\"name\": \"say \\\"hi\\\"\\n\", \"rate\": 0.67, \
             \"missing\": null, \"fingerprint\": \"00000000000000ab\"}\n  ],\n  \
             \"nested\": {\"latency\": {\"count\": 1, \"mean\": 5.0, \"p50\": 5, \"p90\": 5, \
             \"p99\": 5, \"p999\": 5, \"max\": 5}},\n  \"empty\": [],\n  \
             \"ratio_at_4\": 2.00,\n  \"nan\": null\n}\n"
        );
    }

    #[test]
    fn ratios_pair_points_by_shape() {
        let points = [
            ("lazy-sharded", 16, 300.0),
            ("sync-ipi", 16, 100.0),
            ("lazy-sharded", 64, 1.0),
        ];
        let key = |p: &(&'static str, usize, f64)| (p.0, p.1, p.2);
        assert_eq!(
            ratios(&points, "lazy-sharded", "sync-ipi", key),
            vec![(16, 3.0)]
        );
        assert!(ratios(&points, "lazy-sharded", "sync", key).is_empty());
    }

    #[test]
    fn percentiles_pick_the_right_ranks() {
        assert_eq!(percentile(&[], 0.5), 0);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }
}
