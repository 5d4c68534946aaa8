//! The one JSON writer behind every `BENCH_*.json`, plus the helpers the
//! benches share: per-point progress rows, FNV-1a, percentiles and the
//! one wall-clock timer, [`time`].
//!
//! A document is an ordered [`Object`]: [`Object::render`] prints one key
//! per line, [`Rows`] one row per line, and every row or nested object
//! inline. Strings are escaped; a float prints through [`Float`] with the
//! decimals its field names — `f64` has no [`Json`] impl, so a float
//! field cannot forget its precision. `row!` builds a row from a
//! struct's fields, keyed by field name. Each bench names its row once,
//! as a `fn(&Point) -> Object`: [`each`] prints it as a point finishes,
//! and [`Rows::of`] puts it in the document.

use std::hint::black_box;
use std::time::Instant;

use latr_sim::Summary;

/// A value the writer can print.
pub(crate) trait Json {
    /// The value as JSON text.
    fn json(&self) -> String;
}

/// A float with a fixed number of decimals (`null` if not finite).
pub(crate) struct Float(pub(crate) f64, pub(crate) usize);

/// A 64-bit fingerprint as a 16-hex-digit string.
pub(crate) struct Hex(pub(crate) u64);

/// An array printed one row per line, as every bench file lists its rows.
pub(crate) struct Rows(Vec<Object>);

impl Rows {
    /// `row` of every point, in order.
    pub(crate) fn of<P>(points: &[P], row: fn(&P) -> Object) -> Self {
        Rows(points.iter().map(row).collect())
    }
}

/// Runs `point` on each shape in turn and prints each point's `row` as
/// it finishes, so a long bench reports as it goes, in its document's
/// own rows.
pub(crate) fn each<S, P>(
    shapes: impl IntoIterator<Item = S>,
    mut point: impl FnMut(S) -> P,
    row: fn(&P) -> Object,
) -> Vec<P> {
    shapes
        .into_iter()
        .map(|shape| {
            let p = point(shape);
            println!("{}", row(&p).json());
            p
        })
        .collect()
}

/// An ordered JSON object.
#[derive(Clone, Debug, Default)]
pub(crate) struct Object(Vec<(String, String)>);

impl Object {
    /// An empty object.
    pub(crate) fn new() -> Self {
        Object::default()
    }

    /// Appends `key: value`.
    pub(crate) fn field(mut self, key: &str, value: impl Json) -> Self {
        self.0.push((key.json(), value.json()));
        self
    }

    /// Appends every `(key, value)` pair in order.
    pub(crate) fn fields<V: Json>(self, pairs: impl IntoIterator<Item = (String, V)>) -> Self {
        pairs.into_iter().fold(self, |o, (k, v)| o.field(&k, v))
    }

    /// Renders the object as a bench document: one key per line.
    pub(crate) fn render(&self) -> String {
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

pub(crate) use {cell, row};

/// A latency summary as the serving bench nests it (`min` omitted).
impl Json for Summary {
    fn json(&self) -> String {
        row!(self; count, mean: 1, p50, p90, p99, p999, max).json()
    }
}

/// FNV-1a over a fingerprint's text: compact enough for a JSON field,
/// collision-proof enough for "did the run change".
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The `q`-quantile of an ascending slice by nearest rank (0 if empty).
pub(crate) fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The first quartile, median and third quartile of an ascending slice.
pub(crate) fn quartiles(sorted: &[u64]) -> [u64; 3] {
    [0.25, 0.5, 0.75].map(|q| percentile(sorted, q))
}

/// Wall-clock ns per iteration over a row's timed batches.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Spread {
    /// Iterations per batch.
    pub(crate) iters: u64,
    /// Batches timed.
    pub(crate) batches: usize,
    /// Median batch, ns per iteration.
    pub(crate) median: f64,
    /// First-quartile batch, ns per iteration.
    pub(crate) q1: f64,
    /// Third-quartile batch, ns per iteration.
    pub(crate) q3: f64,
}

impl Json for Spread {
    fn json(&self) -> String {
        row!(self; iters, batches, median: 1, q1: 1, q3: 1).json()
    }
}

/// Batches [`time`] runs: enough that one preempted batch shifts each
/// quartile by at most one rank.
const BATCHES: usize = 11;

/// Times `f`: [`BATCHES`] batches of `iters` back-to-back calls, each
/// batch between one `Instant` pair, so the fixed count, not the first
/// call's speed, sets every batch's length. Each result goes through
/// `black_box`, so the optimizer cannot drop the timed work. `--quick`
/// (`quick`) times 3 batches of a hundredth as many calls, at least one.
pub(crate) fn time<R>(quick: bool, iters: u64, mut f: impl FnMut() -> R) -> Spread {
    let (batches, iters) = if quick {
        (3, iters.div_ceil(100))
    } else {
        (BATCHES, iters)
    };
    let mut ns: Vec<u64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            u64::try_from(start.elapsed().as_nanos()).expect("a batch lasts under 584 years")
        })
        .collect();
    ns.sort_unstable();
    let [q1, median, q3] = quartiles(&ns).map(|n| n as f64 / iters as f64);
    Spread {
        iters,
        batches,
        median,
        q1,
        q3,
    }
}

/// Hardware threads the host offers, as each timed document records.
pub(crate) fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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
                Rows::of(
                    std::slice::from_ref(&p),
                    |p| row!(p; name, rate: 2, missing, fingerprint: hex),
                ),
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
    fn percentiles_pick_the_right_ranks() {
        assert_eq!(percentile(&[], 0.5), 0);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        // Quartiles of the batch counts `time` runs: 11 full, 3 quick.
        let v: Vec<u64> = (1..=11).collect();
        assert_eq!(quartiles(&v), [4, 6, 9]);
        assert_eq!(quartiles(&[1, 2, 3]), [2, 2, 3]);
        assert_eq!(quartiles(&[7]), [7, 7, 7]);
    }
}
