//! Minimal CSV persistence for encoded datasets.
//!
//! Good enough for inspecting generated data and for shipping experiment
//! inputs between runs; not a general CSV parser (no embedded quotes in
//! headers, UTF-8 only). Values are written in *encoded* form with a header
//! carrying feature names; the schema itself travels separately.

use crate::dataset::Dataset;
use crate::instance::{Cat, Instance, Label};
use crate::schema::Schema;

/// Serializes a dataset to CSV with a header row; the last column is the
/// label code.
pub fn to_csv(ds: &Dataset) -> String {
    let mut out = String::new();
    for f in ds.schema().features() {
        out.push_str(&escape(&f.name));
        out.push(',');
    }
    out.push_str("__label\n");
    for (x, y) in ds.iter() {
        for v in x.values() {
            out.push_str(&v.to_string());
            out.push(',');
        }
        out.push_str(&y.0.to_string());
        out.push('\n');
    }
    out
}

/// Errors from [`from_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The input had no header row.
    MissingHeader,
    /// A row had the wrong number of fields.
    RowWidth {
        /// 1-based line number of the offending row.
        line: usize,
    },
    /// A field failed to parse as an encoded value.
    BadValue {
        /// 1-based line number of the offending row.
        line: usize,
        /// Raw field contents.
        field: String,
    },
    /// Header does not match the supplied schema.
    SchemaMismatch,
    /// Reading the input failed.
    Io(String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::MissingHeader => write!(f, "missing CSV header"),
            CsvError::RowWidth { line } => write!(f, "wrong field count at line {line}"),
            CsvError::BadValue { line, field } => {
                write!(f, "unparsable value {field:?} at line {line}")
            }
            CsvError::SchemaMismatch => write!(f, "CSV header does not match schema"),
            CsvError::Io(e) => write!(f, "reading CSV: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Parses a dataset previously written by [`to_csv`], validating the header
/// against `schema`.
pub fn from_csv(text: &str, name: &str, schema: Schema) -> Result<Dataset, CsvError> {
    read_rows_where(text.as_bytes(), name, Some(schema), |_| true)
}

/// Parses a dataset from CSV *without* a known schema: every column is
/// treated as categorical with cardinality `max code + 1` and synthetic
/// value names (`v0`, `v1`, …). This is what the `cce` CLI uses to load
/// user-provided encoded data.
pub fn infer_from_csv(text: &str, name: &str) -> Result<Dataset, CsvError> {
    read_rows_where(text.as_bytes(), name, None, |_| true)
}

/// Categorical features named `names` with cardinality `max code + 1`
/// and synthetic value names (`v0`, `v1`, …).
fn inferred_schema(names: &[&str], max_code: &[u32]) -> Schema {
    let feats = names
        .iter()
        .zip(max_code)
        .map(|(name, &m)| {
            let values: Vec<String> = (0..=m).map(|v| format!("v{v}")).collect();
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            crate::schema::FeatureDef::categorical(&unescape(name), &refs)
        })
        .collect();
    Schema::new(feats)
}

/// Streams a CSV written by [`to_csv`], keeping only the data rows that
/// `keep(row)` selects, where `row` numbers the non-empty data lines from
/// 0 — so one shard's partition loads without ever holding the whole
/// file or every row. This is the one CSV reader: [`from_csv`] and
/// [`infer_from_csv`] keep every row. With `schema` the header is
/// checked against it and unkept lines are skipped unparsed; without
/// one, every line's codes are still read, so the inferred cardinalities
/// are the whole file's.
pub fn read_rows_where(
    input: impl std::io::BufRead,
    name: &str,
    schema: Option<Schema>,
    mut keep: impl FnMut(usize) -> bool,
) -> Result<Dataset, CsvError> {
    let mut lines = input.lines().enumerate();
    let header = match lines.next() {
        Some((_, line)) => line.map_err(|e| CsvError::Io(e.to_string()))?,
        None => return Err(CsvError::MissingHeader),
    };
    let cols: Vec<&str> = header.split(',').collect();
    let n = cols.len() - 1;
    let mismatch = match &schema {
        Some(s) => s.n_features() != n || (0..n).any(|i| unescape(cols[i]) != s.feature(i).name),
        None => n == 0,
    };
    if mismatch || cols[n] != "__label" {
        return Err(CsvError::SchemaMismatch);
    }
    let (mut instances, mut labels) = (Vec::new(), Vec::new());
    let mut max_code = vec![0u32; n];
    let mut row = 0;
    for (idx, line) in lines {
        let line = line.map_err(|e| CsvError::Io(e.to_string()))?;
        if line.is_empty() {
            continue;
        }
        row += 1;
        let kept = keep(row - 1);
        if !kept && schema.is_some() {
            continue;
        }
        // A row of the wrong width is reported as such, even when one of
        // its fields would not parse either.
        let width = CsvError::RowWidth { line: idx + 1 };
        let bad = |field: &str| {
            if line.split(',').count() == n + 1 {
                CsvError::BadValue {
                    line: idx + 1,
                    field: field.to_string(),
                }
            } else {
                width.clone()
            }
        };
        let mut vals: Vec<Cat> = Vec::with_capacity(if kept { n } else { 0 });
        let mut fields = line.split(',');
        for m in &mut max_code {
            let field = fields.next().ok_or_else(|| width.clone())?;
            let v: Cat = field.parse().map_err(|_| bad(field))?;
            *m = (*m).max(v);
            if kept {
                vals.push(v);
            }
        }
        let field = fields.next().ok_or_else(|| width.clone())?;
        if fields.next().is_some() {
            return Err(width);
        }
        if kept {
            labels.push(Label(field.parse().map_err(|_| bad(field))?));
            instances.push(Instance::new(vals));
        }
    }
    let schema = schema.unwrap_or_else(|| inferred_schema(&cols[..n], &max_code));
    Ok(Dataset::new(name.to_string(), schema, instances, labels))
}

fn escape(s: &str) -> String {
    s.replace(',', ";")
}

fn unescape(s: &str) -> String {
    s.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FeatureDef;

    fn toy() -> Dataset {
        let schema = Schema::new(vec![
            FeatureDef::categorical("a", &["x", "y"]),
            FeatureDef::categorical("b", &["p", "q"]),
        ]);
        let instances = vec![Instance::new(vec![0, 1]), Instance::new(vec![1, 0])];
        let labels = vec![Label(0), Label(1)];
        Dataset::new("toy".into(), schema, instances, labels)
    }

    #[test]
    fn read_rows_where_keeps_exactly_the_selected_rows() {
        let mut ds = toy();
        for i in 0..7u32 {
            ds.push(Instance::new(vec![i % 2, (i / 2) % 2]), Label(i % 3));
        }
        let text = to_csv(&ds).replace("\n1,", "\n\n1,");
        let keep = |r: usize| r % 3 == 1;
        let want: Vec<usize> = (0..ds.len()).filter(|&r| keep(r)).collect();
        for schema in [Some(ds.schema().clone()), None] {
            let mut rows = Vec::new();
            let part = read_rows_where(text.as_bytes(), "toy", schema.clone(), |r| {
                rows.push(r);
                keep(r)
            })
            .unwrap();
            assert_eq!(
                rows,
                (0..ds.len()).collect::<Vec<_>>(),
                "blank lines unnumbered"
            );
            let full = match schema {
                Some(s) => from_csv(&text, "toy", s).unwrap(),
                None => infer_from_csv(&text, "toy").unwrap(),
            };
            assert_eq!(part.schema(), full.schema());
            assert_eq!(part.len(), want.len());
            for (i, &r) in want.iter().enumerate() {
                assert_eq!(part.instance(i), ds.instance(r));
                assert_eq!(part.label(i), ds.label(r));
            }
        }
        let ragged = format!("{text}1,0,0,1\n");
        assert!(matches!(
            read_rows_where(ragged.as_bytes(), "toy", None, |_| false),
            Err(CsvError::RowWidth { .. })
        ));
    }

    #[test]
    fn round_trip() {
        let ds = toy();
        let text = to_csv(&ds);
        let back = from_csv(&text, "toy", ds.schema().clone()).unwrap();
        assert_eq!(back.instances(), ds.instances());
        assert_eq!(back.labels(), ds.labels());
    }

    #[test]
    fn header_validation() {
        let ds = toy();
        let text = to_csv(&ds);
        let wrong = Schema::new(vec![
            FeatureDef::categorical("zzz", &["x", "y"]),
            FeatureDef::categorical("b", &["p", "q"]),
        ]);
        assert_eq!(
            from_csv(&text, "toy", wrong).unwrap_err(),
            CsvError::SchemaMismatch
        );
    }

    #[test]
    fn bad_value_reported_with_line() {
        let ds = toy();
        let mut text = to_csv(&ds);
        text.push_str("nope,1,0\n");
        match from_csv(&text, "toy", ds.schema().clone()) {
            Err(CsvError::BadValue { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected BadValue, got {other:?}"),
        }
        // The width is checked before the values, as it always was.
        let ragged = format!("{}nope,1\n", to_csv(&ds));
        assert_eq!(
            from_csv(&ragged, "toy", ds.schema().clone()).unwrap_err(),
            CsvError::RowWidth { line: 4 }
        );
    }

    #[test]
    fn infer_round_trips_codes() {
        let ds = toy();
        let text = to_csv(&ds);
        let inferred = infer_from_csv(&text, "toy").unwrap();
        assert_eq!(inferred.instances(), ds.instances());
        assert_eq!(inferred.labels(), ds.labels());
        assert_eq!(inferred.schema().feature(0).name, "a");
        // Cardinalities inferred from observed codes.
        assert_eq!(inferred.schema().feature(0).cardinality(), 2);
    }

    #[test]
    fn infer_rejects_missing_label_column() {
        assert_eq!(
            infer_from_csv("a,b\n0,1\n", "x").unwrap_err(),
            CsvError::SchemaMismatch
        );
    }

    #[test]
    fn empty_body_is_ok() {
        let ds = toy();
        let header_only: String = to_csv(&ds).lines().next().unwrap().to_string() + "\n";
        let back = from_csv(&header_only, "toy", ds.schema().clone()).unwrap();
        assert!(back.is_empty());
    }
}
