//! The one gate-and-report pipeline shared by the CI-gated binaries
//! (`churn`, `bench_scale`, `bench_membership`) and `bench_eval`: a
//! tolerance-sheet checker, the `--check` driver around it, an ordered
//! JSON writer, and the peak-RSS probe.
//!
//! ## Tolerance sheets
//!
//! Plain text, `#` comments, one rule per line:
//!
//! ```text
//! min_<metric> [<arm>] <bound>   # value must be >= bound
//! max_<metric> [<arm>] <bound>   # value must be <= bound
//! faster <A> <B>                 # arm A must rank strictly faster than B
//! ```
//!
//! Values come from the report through [`Gated`]. A metric or arm the
//! report does not know, or a NaN value, is a violation — never a pass.
//! A line that is not one of these rules, or whose bound is not a
//! number, is a sheet error naming the line.

use crate::report::Args;

/// A report a tolerance sheet can gate.
pub trait Gated {
    /// The value of `metric` (for one `arm`, if given), or `None` when
    /// the report has no such metric or arm. `faster A B` compares the
    /// values of the metric `"faster"`: the time by which the report
    /// ranks its arms, lower being faster.
    fn gated(&self, metric: &str, arm: Option<&str>) -> Option<f64>;
}

/// One parsed tolerance rule.
#[derive(Clone, Debug, PartialEq)]
pub enum Rule {
    /// `min_<metric>` (`at_least`) or `max_<metric>`, optionally per arm.
    Bound {
        metric: String,
        arm: Option<String>,
        bound: f64,
        at_least: bool,
    },
    /// `faster <a> <b>`.
    Faster { a: String, b: String },
}

/// Parses a tolerance sheet. The error names the offending line.
pub fn parse_sheet(sheet: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for (i, raw) in sheet.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |why: &str| format!("line {}: {why}: {line}", i + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let rule = match fields.as_slice() {
            ["faster", a, b] => Rule::Faster {
                a: a.to_string(),
                b: b.to_string(),
            },
            [head, rest @ ..] if (1..=2).contains(&rest.len()) => {
                let (at_least, metric) =
                    match (head.strip_prefix("min_"), head.strip_prefix("max_")) {
                        (Some(m), _) => (true, m),
                        (_, Some(m)) => (false, m),
                        _ => return Err(err("unknown tolerance rule")),
                    };
                Rule::Bound {
                    metric: metric.to_string(),
                    arm: (rest.len() == 2).then(|| rest[0].to_string()),
                    bound: rest[rest.len() - 1]
                        .parse()
                        .map_err(|_| err("unparsable bound"))?,
                    at_least,
                }
            }
            _ => return Err(err("unknown tolerance rule")),
        };
        rules.push(rule);
    }
    Ok(rules)
}

/// Checks `report` against `rules`; returns one message per violated
/// rule, empty when everything passes.
pub fn check(rules: &[Rule], report: &dyn Gated) -> Vec<String> {
    let mut violations = Vec::new();
    for rule in rules {
        match rule {
            Rule::Bound {
                metric,
                arm,
                bound,
                at_least,
            } => {
                let name = arm
                    .as_ref()
                    .map_or(metric.clone(), |a| format!("{a}: {metric}"));
                let Some(v) = report.gated(metric, arm.as_deref()) else {
                    violations.push(format!("{name}: not reported"));
                    continue;
                };
                // NaN fails both comparisons, so it never passes.
                let (inside, side) = if *at_least {
                    (v >= *bound, "below")
                } else {
                    (v <= *bound, "above")
                };
                if !inside {
                    violations.push(format!("{name} {v:.3} {side} bound {bound}"));
                }
            }
            Rule::Faster { a, b } => {
                match (
                    report.gated("faster", Some(a)),
                    report.gated("faster", Some(b)),
                ) {
                    (Some(va), Some(vb)) if va < vb => {}
                    (Some(va), Some(vb)) => violations.push(format!(
                        "{a} ({va:.3}) must be strictly faster than {b} ({vb:.3})"
                    )),
                    _ => violations.push(format!("faster {a} {b}: arm missing from this run")),
                }
            }
        }
    }
    violations
}

/// The `--check FILE` driver: when `--check` was given, gates `report`
/// on that sheet, prints each `TOLERANCE VIOLATION: …` and exits 1 on
/// any. An unreadable or malformed sheet exits 2.
pub fn check_or_exit(args: &Args, report: &dyn Gated) {
    let Some(path) = args.get("check") else {
        return;
    };
    let rules = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|sheet| parse_sheet(&sheet))
        .unwrap_or_else(|e| {
            eprintln!("error: tolerance sheet {path}: {e}");
            std::process::exit(2);
        });
    let violations = check(&rules, report);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("TOLERANCE VIOLATION: {v}");
        }
        std::process::exit(1);
    }
    eprintln!("tolerances OK ({path})");
}

/// Peak resident set of this process in kB, from `/proc/self/status`
/// (`VmHWM`). Linux-only; 0 where the file or field is missing.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// One JSON value, already printed. Each report fixes its own number
/// precision through [`Json::fixed`].
#[derive(Clone, Debug)]
pub struct Json(String);

impl Json {
    /// `x` with `digits` decimals; `null` when `x` is not finite.
    pub fn fixed(x: f64, digits: usize) -> Json {
        Json(if x.is_finite() {
            format!("{x:.digits$}")
        } else {
            "null".into()
        })
    }
}

macro_rules! json_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json(v.to_string())
            }
        }
    )*};
}
json_display!(u32, u64, usize, i64, bool);

/// Shortest round-trip form (`1`, `0.8`); `null` when not finite.
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json(if x.is_finite() {
            x.to_string()
        } else {
            "null".into()
        })
    }
}

/// Report strings are printable names, for which Rust's debug quoting
/// is JSON's.
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json(format!("{s:?}"))
    }
}

/// Arrays hold a report's rows: one element per line.
impl From<Vec<Json>> for Json {
    fn from(rows: Vec<Json>) -> Json {
        if rows.is_empty() {
            return Json("[]".into());
        }
        let rows: Vec<String> = rows.into_iter().map(|r| format!("    {}", r.0)).collect();
        Json(format!("[\n{}\n  ]", rows.join(",\n")))
    }
}

/// Nested objects print on one line.
impl From<Obj> for Json {
    fn from(obj: Obj) -> Json {
        let fields: Vec<String> = obj
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", v.0))
            .collect();
        Json(format!("{{{}}}", fields.join(", ")))
    }
}

/// A JSON object with keys in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Obj(Vec<(&'static str, Json)>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends `key: value`.
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Obj {
        self.0.push((key, value.into()));
        self
    }

    /// The report document: one top-level key per line. Ends with a
    /// newline.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {}", v.0))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x` = 1.0, `nan` = NaN, and per-arm `faster`/`lat`: A 10, B 20.
    struct Fixed;

    impl Gated for Fixed {
        fn gated(&self, metric: &str, arm: Option<&str>) -> Option<f64> {
            match (metric, arm) {
                ("x", None) => Some(1.0),
                ("nan", None) => Some(f64::NAN),
                ("faster" | "lat", Some("A")) => Some(10.0),
                ("faster" | "lat", Some("B")) => Some(20.0),
                _ => None,
            }
        }
    }

    /// Violation count of a one-rule sheet.
    fn violations(sheet: &str) -> usize {
        check(&parse_sheet(sheet).expect("sheet parses"), &Fixed).len()
    }

    #[test]
    fn each_rule_passes_at_its_boundary_and_fails_past_it() {
        assert_eq!(violations("min_x 1.0"), 0);
        assert_eq!(violations("min_x 1.0001"), 1);
        assert_eq!(violations("max_x 1"), 0);
        assert_eq!(violations("max_x 0.9999"), 1);
        assert_eq!(violations("max_lat A 10"), 0);
        assert_eq!(violations("max_lat B 19.5"), 1);
        assert_eq!(violations("faster A B"), 0);
        assert_eq!(violations("faster A A"), 1, "a tie is not faster");
        assert_eq!(violations("faster B A"), 1);
    }

    #[test]
    fn missing_metric_arm_or_nan_is_a_violation() {
        assert_eq!(violations("max_lat C 100"), 1, "unknown arm");
        assert_eq!(violations("faster A C"), 1, "unknown arm");
        assert_eq!(violations("min_y 0"), 1, "unknown metric");
        assert_eq!(violations("max_x A 5"), 1, "arm on an armless metric");
        assert_eq!(violations("min_nan 0"), 1, "NaN never passes min");
        assert_eq!(violations("max_nan 0"), 1, "NaN never passes max");
    }

    #[test]
    fn sheet_errors_name_the_line() {
        let ok = "# header\n\n  max_x 2 # trailing\n";
        assert_eq!(parse_sheet(ok).map(|r| r.len()), Ok(1));
        let e = parse_sheet("# ok\nmin_x 1\nbogus_x 3\n").unwrap_err();
        assert!(e.starts_with("line 3: unknown tolerance rule"), "{e}");
        let e = parse_sheet("max_x lots").unwrap_err();
        assert!(e.starts_with("line 1: unparsable bound"), "{e}");
        assert!(parse_sheet("faster A").is_err(), "wrong arity");
        assert!(parse_sheet("max_x A B 3").is_err(), "wrong arity");
    }

    #[test]
    fn committed_ci_sheets_parse() {
        for name in ["churn", "scale", "membership"] {
            let path = format!(
                "{}/../../ci/{name}_tolerance.txt",
                env!("CARGO_MANIFEST_DIR")
            );
            let sheet = std::fs::read_to_string(&path).expect(&path);
            let rules = parse_sheet(&sheet).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(!rules.is_empty(), "{path} has no rules");
        }
    }

    #[test]
    fn json_keeps_key_order_and_precision() {
        let row = Obj::new().field("ok", true).field("k", -1i64);
        let doc = Obj::new()
            .field("name", "a\"b")
            .field("x", Json::fixed(0.5, 3))
            .field("bad", Json::fixed(f64::NAN, 3))
            .field("e", 1.0)
            .field("rows", vec![Json::from(3u64), row.into()])
            .field("none", Vec::<Json>::new());
        let want = "{\n  \"name\": \"a\\\"b\",\n  \"x\": 0.500,\n  \"bad\": null,\n  \"e\": 1,\n  \
                    \"rows\": [\n    3,\n    {\"ok\": true, \"k\": -1}\n  ],\n  \"none\": []\n}\n";
        assert_eq!(doc.render(), want);
    }
}
