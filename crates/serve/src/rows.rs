//! `POST /v1/rows`: typed base-row updates over the wire.
//!
//! The dual of `/v1/evidence`: evidence observes *variable* relations,
//! row updates mutate *input* relations — and the KB absorbs them
//! differentially (`sya-delta`) instead of re-grounding from scratch.
//! JSON cells are decoded against the relation's declared column types
//! before anything touches the tables, so a malformed batch is a 400
//! with the offending column named, never a half-applied mutation.

use serde_json::Value as Json;
use std::time::Duration;
use sya_delta::{RowOp, RowUpdate};
use sya_geom::Point;
use sya_lang::CompiledProgram;
use sya_store::{DataType, Row, Value};

/// One wire-format row update, cells still in JSON.
#[derive(Debug, Clone)]
pub struct RawRowUpdate {
    pub op: RowOp,
    pub relation: String,
    pub row: Vec<Json>,
}

/// What an applied `/v1/rows` batch did, across serving modes. The
/// graph-shape fields are zero in lazy mode (nothing is materialized to
/// tombstone or re-sample); `cache_invalidated` is zero in full mode
/// (nothing is cached).
#[derive(Debug, Clone, Copy, Default)]
pub struct RowsOutcome {
    /// The KB epoch after the batch.
    pub epoch: u64,
    pub rows_inserted: usize,
    pub rows_retracted: usize,
    pub vars_added: usize,
    pub vars_removed: usize,
    pub factors_added: usize,
    pub factors_tombstoned: usize,
    pub spatial_factors_added: usize,
    pub spatial_factors_tombstoned: usize,
    /// Variables re-sampled by the conclique-restricted re-inference.
    pub resampled: usize,
    /// Lazy-cache entries dropped because their neighborhood intersects
    /// the delta.
    pub cache_invalidated: usize,
    pub apply_time: Duration,
    pub infer_time: Duration,
}

impl RowsOutcome {
    /// Full-mode outcome from the delta layer's statistics.
    pub(crate) fn from_delta(epoch: u64, s: &sya_delta::DeltaStats) -> RowsOutcome {
        RowsOutcome {
            epoch,
            rows_inserted: s.rows_inserted,
            rows_retracted: s.rows_retracted,
            vars_added: s.vars_added,
            vars_removed: s.vars_removed,
            factors_added: s.factors_added,
            factors_tombstoned: s.factors_tombstoned,
            spatial_factors_added: s.spatial_factors_added,
            spatial_factors_tombstoned: s.spatial_factors_tombstoned,
            resampled: s.resampled,
            cache_invalidated: 0,
            apply_time: s.apply_time,
            infer_time: s.infer_time,
        }
    }
}

/// The HTTP-facing error of a delta-layer failure, the same in full and
/// lazy mode: a batch that fails validation is the client's (400).
pub(crate) fn delta_error(e: sya_delta::DeltaError) -> crate::ServeError {
    match e {
        sya_delta::DeltaError::BadUpdate(msg) => crate::ServeError::BadRows(msg),
        sya_delta::DeltaError::NotSpatial => crate::ServeError::NotSpatial,
        sya_delta::DeltaError::Ground(g) => crate::ServeError::RowsFailed(g.to_string()),
    }
}

/// Decodes a wire batch against the program schemas into typed
/// [`RowUpdate`]s. Rejects variable relations: their ground truth
/// arrives through `/v1/evidence`, not the tables.
pub(crate) fn decode_updates(
    program: &CompiledProgram,
    raw: &[RawRowUpdate],
) -> Result<Vec<RowUpdate>, String> {
    if raw.is_empty() {
        return Err("empty row batch".into());
    }
    let mut updates = Vec::with_capacity(raw.len());
    for (i, u) in raw.iter().enumerate() {
        let at = |msg: String| format!("update #{i}: {msg}");
        let schema = program
            .schema(&u.relation)
            .ok_or_else(|| at(format!("undeclared relation {:?}", u.relation)))?;
        if schema.is_variable {
            return Err(at(format!(
                "{:?} is a variable relation; row updates apply to input relations \
                 (observations go through /v1/evidence)",
                u.relation
            )));
        }
        if u.row.len() != schema.columns.len() {
            return Err(at(format!(
                "{:?} wants {} columns, got {}",
                u.relation,
                schema.columns.len(),
                u.row.len()
            )));
        }
        let mut row: Row = Vec::with_capacity(u.row.len());
        for (cell, (name, ty)) in u.row.iter().zip(&schema.columns) {
            row.push(
                decode_cell(cell, *ty).map_err(|msg| at(format!("column {name:?}: {msg}")))?,
            );
        }
        updates.push(RowUpdate { op: u.op, relation: u.relation.clone(), row });
    }
    Ok(updates)
}

fn decode_cell(cell: &Json, ty: DataType) -> Result<Value, String> {
    if cell.is_null() {
        return Ok(Value::Null);
    }
    let decoded = match ty {
        DataType::Bool => cell.as_bool().map(Value::Bool),
        DataType::BigInt => cell.as_i64().map(Value::Int),
        DataType::Double => cell.as_f64().map(Value::Double),
        DataType::Text => cell.as_str().map(|s| Value::Text(s.to_owned())),
        DataType::Point => decode_point(cell).map(Value::from),
        DataType::Rect | DataType::Polygon | DataType::LineString => {
            return Err(format!("{ty:?} columns are not supported over the wire"))
        }
    };
    decoded.ok_or_else(|| format!("cannot decode {cell} as {ty:?}"))
}

/// A point is `{"x": 20.0, "y": 35.0}` or `[20.0, 35.0]`.
fn decode_point(cell: &Json) -> Option<Point> {
    if let Some(arr) = cell.as_array() {
        if let [x, y] = arr.as_slice() {
            return Some(Point::new(x.as_f64()?, y.as_f64()?));
        }
        return None;
    }
    Some(Point::new(cell.get("x")?.as_f64()?, cell.get("y")?.as_f64()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_geom::DistanceMetric;
    use sya_lang::{compile, parse_program, GeomConstants};

    fn program() -> CompiledProgram {
        let src = r#"
        Well(id bigint, location point, arsenic double).
        @spatial(exp)
        IsSafe?(id bigint, location point).
        D1: IsSafe(W, L) = NULL :- Well(W, L, _).
        "#;
        let p = parse_program(src).unwrap();
        compile(&p, &GeomConstants::new(), DistanceMetric::Euclidean).unwrap()
    }

    fn raw(op: RowOp, relation: &str, row: Vec<Json>) -> RawRowUpdate {
        RawRowUpdate { op, relation: relation.to_owned(), row }
    }

    #[test]
    fn decodes_typed_cells_in_both_point_spellings() {
        let p = program();
        let batch = vec![
            raw(
                RowOp::Insert,
                "Well",
                vec![
                    serde_json::json!(7),
                    serde_json::json!({"x": 1.5, "y": 2.5}),
                    serde_json::json!(0.25),
                ],
            ),
            raw(
                RowOp::Retract,
                "Well",
                vec![serde_json::json!(8), serde_json::json!([3.0, 4.0]), Json::Null],
            ),
        ];
        let updates = decode_updates(&p, &batch).unwrap();
        assert_eq!(updates[0].op, RowOp::Insert);
        assert_eq!(updates[0].row[0], Value::Int(7));
        assert_eq!(updates[0].row[1], Value::from(Point::new(1.5, 2.5)));
        assert_eq!(updates[0].row[2], Value::Double(0.25));
        assert_eq!(updates[1].op, RowOp::Retract);
        assert_eq!(updates[1].row[1], Value::from(Point::new(3.0, 4.0)));
        assert_eq!(updates[1].row[2], Value::Null);
    }

    #[test]
    fn rejects_bad_batches_with_the_offending_member_named() {
        let p = program();
        let cases: Vec<(RawRowUpdate, &str)> = vec![
            (raw(RowOp::Insert, "Nope", vec![]), "undeclared"),
            (raw(RowOp::Insert, "IsSafe", vec![]), "variable relation"),
            (raw(RowOp::Insert, "Well", vec![serde_json::json!(1)]), "columns"),
            (
                raw(
                    RowOp::Insert,
                    "Well",
                    vec![serde_json::json!("x"), Json::Null, Json::Null],
                ),
                "column \"id\"",
            ),
        ];
        for (bad, needle) in cases {
            let err = decode_updates(&p, &[bad]).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
        assert!(decode_updates(&p, &[]).unwrap_err().contains("empty"));
    }
}
