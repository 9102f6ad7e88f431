//! In-memory tables with optional on-the-fly R-tree spatial indexes
//! (paper Section IV-B, optimization 1).

use crate::schema::TableSchema;
use crate::value::{JoinKey, Value};
use crate::StoreError;
use std::collections::HashMap;
use sya_geom::{Point, RTree, Rect};
use sya_obs::{Counter, Obs};

/// A row is a boxed slice of values matching the table schema.
pub type Row = Vec<Value>;

/// An in-memory table: schema + rows + lazily built spatial and hash
/// join indexes.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: TableSchema,
    rows: Vec<Row>,
    /// R-tree over one spatial column: `(column index, index over row ids)`.
    /// Invalidated (dropped) on mutation.
    spatial_index: Option<(usize, RTree<usize>)>,
    /// Equi-join indexes, `column index -> join key -> row ids`. Dropped
    /// on mutation together with the R-tree, so a probe never sees rows
    /// of an older table.
    hash_indexes: HashMap<usize, HashMap<JoinKey, Vec<usize>>>,
    /// Observability handle (disabled unless attached via the database).
    obs: Obs,
    /// Counter handles resolved at attach time so the per-probe hot path
    /// (`rows_within_distance` inside the grounder's binding loop) pays
    /// one relaxed atomic add, never a registry lock.
    ctr_spatial_queries: Counter,
    ctr_rows_fetched: Counter,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: TableSchema) -> Self {
        let obs = Obs::disabled();
        let ctr_spatial_queries = obs.counter("store.spatial_queries_total");
        let ctr_rows_fetched = obs.counter("store.rows_fetched_total");
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            spatial_index: None,
            hash_indexes: HashMap::new(),
            obs,
            ctr_spatial_queries,
            ctr_rows_fetched,
        }
    }

    /// Attaches an observability handle; index builds and queries on
    /// this table record `store.*` metrics through it.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.ctr_spatial_queries = obs.counter("store.spatial_queries_total");
        self.ctr_rows_fetched = obs.counter("store.rows_fetched_total");
        self.obs = obs;
    }

    /// The table's observability handle (disabled by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row after checking arity and per-column type fit.
    pub fn insert(&mut self, row: Row) -> Result<(), StoreError> {
        self.check_row(&row)?;
        self.drop_indexes();
        self.rows.push(row);
        Ok(())
    }

    /// Bulk insert; stops at the first bad row.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<(), StoreError> {
        for r in rows {
            self.insert(r)?;
        }
        Ok(())
    }

    /// Value at `(row, column name)`.
    pub fn value(&self, row: usize, column: &str) -> Result<&Value, StoreError> {
        let c = self
            .schema
            .index_of(column)
            .ok_or_else(|| StoreError::UnknownColumn(column.to_owned()))?;
        Ok(&self.rows[row][c])
    }

    /// Builds (or returns the cached) R-tree over the given spatial
    /// column. Rows whose value is `Null` or non-geometry are skipped.
    pub fn spatial_index(&mut self, column: &str) -> Result<&RTree<usize>, StoreError> {
        let col = self
            .schema
            .index_of(column)
            .ok_or_else(|| StoreError::UnknownColumn(column.to_owned()))?;
        let stale = match &self.spatial_index {
            Some((c, _)) => *c != col,
            None => true,
        };
        if stale {
            let mut span = self.obs.span_with(
                "store.spatial_index_build",
                vec![("table".to_string(), self.name.clone())],
            );
            let items: Vec<(Rect, usize)> = self
                .rows
                .iter()
                .enumerate()
                .filter_map(|(i, row)| row[col].as_geom().map(|g| (g.bbox(), i)))
                .collect();
            span.set_attr("rows", items.len());
            self.obs.counter_add("store.spatial_index_builds_total", 1);
            self.obs.counter_add("store.spatial_index_rows_total", items.len() as u64);
            self.spatial_index = Some((col, RTree::bulk_load(items)));
        }
        Ok(&self.spatial_index.as_ref().expect("just built").1)
    }

    /// Row ids whose geometry in `column` lies within `radius` of `center`
    /// (uses the spatial index).
    pub fn rows_within_distance(
        &mut self,
        column: &str,
        center: &Point,
        radius: f64,
    ) -> Result<Vec<usize>, StoreError> {
        let rows = self.spatial_index(column)?.within_distance(center, radius);
        self.ctr_spatial_queries.inc();
        self.ctr_rows_fetched.add(rows.len() as u64);
        Ok(rows)
    }

    /// Builds the hash join index over column `col` unless it is cached.
    /// Rows whose value has no join key (`Null`, geometries) are skipped.
    pub fn ensure_hash_index(&mut self, col: usize) {
        if self.hash_indexes.contains_key(&col) {
            return;
        }
        let mut index: HashMap<JoinKey, Vec<usize>> = HashMap::new();
        for (rid, row) in self.rows.iter().enumerate() {
            if let Some(key) = row[col].join_key() {
                index.entry(key).or_default().push(rid);
            }
        }
        self.obs.counter_add("store.hash_index_builds_total", 1);
        self.hash_indexes.insert(col, index);
    }

    /// Row ids whose value in column `col` has join key `key`, in row
    /// order. The index must have been built by
    /// [`Self::ensure_hash_index`] since the last mutation.
    pub fn rows_with_key(&self, col: usize, key: &JoinKey) -> &[usize] {
        self.hash_indexes
            .get(&col)
            .expect("ensure_hash_index(col) runs before rows_with_key(col)")
            .get(key)
            .map_or(&[], Vec::as_slice)
    }

    /// The point value of the first spatial column for `row`, if present.
    pub fn point_of(&self, row: usize) -> Option<Point> {
        let col = self.schema.first_spatial_column()?;
        self.rows[row][col].as_geom().map(|g| g.representative_point())
    }

    /// Checks a row against the schema (arity + per-column type fit)
    /// without inserting it — the same validation `insert` applies.
    pub fn check_row(&self, row: &[Value]) -> Result<(), StoreError> {
        if row.len() != self.schema.arity() {
            return Err(StoreError::TypeMismatch {
                expected: format!("{} columns", self.schema.arity()),
                got: format!("{} values", row.len()),
            });
        }
        for (v, c) in row.iter().zip(self.schema.columns()) {
            if !v.fits(c.ty) {
                return Err(StoreError::TypeMismatch {
                    expected: format!("{} for column {:?}", c.ty.ddlog_name(), c.name),
                    got: format!("{v}"),
                });
            }
        }
        Ok(())
    }

    /// Row ids whose values equal `row` exactly (full-row equality).
    pub fn find_rows(&self, row: &[Value]) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.as_slice() == row)
            .map(|(i, _)| i)
            .collect()
    }

    /// Deletes the given row ids, preserving the order of survivors
    /// and invalidating the spatial and hash indexes. Out-of-range ids are
    /// ignored. Returns the number of rows removed.
    pub fn remove_rows(&mut self, remove: &[usize]) -> usize {
        if remove.is_empty() {
            return 0;
        }
        let dead: std::collections::HashSet<usize> = remove.iter().copied().collect();
        let before = self.rows.len();
        let mut i = 0usize;
        self.rows.retain(|_| {
            let keep = !dead.contains(&i);
            i += 1;
            keep
        });
        let removed = before - self.rows.len();
        if removed > 0 {
            self.drop_indexes();
        }
        removed
    }

    fn drop_indexes(&mut self) {
        self.spatial_index = None;
        self.hash_indexes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;
    use sya_geom::Point;

    fn well_table() -> Table {
        let schema = TableSchema::new(vec![
            Column::new("id", DataType::BigInt),
            Column::new("location", DataType::Point),
            Column::new("arsenic_ratio", DataType::Double),
        ]);
        let mut t = Table::new("Well", schema);
        for i in 0..10i64 {
            t.insert(vec![
                Value::Int(i),
                Value::from(Point::new(i as f64, 0.0)),
                Value::Double(0.1 * i as f64),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn insert_checks_arity_and_types() {
        let mut t = well_table();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t
            .insert(vec![Value::Int(1), Value::from("oops"), Value::Double(0.0)])
            .is_err());
        // Int fits a double column.
        assert!(t
            .insert(vec![Value::Int(99), Value::from(Point::ORIGIN), Value::Int(1)])
            .is_ok());
    }

    #[test]
    fn value_lookup() {
        let t = well_table();
        assert_eq!(t.value(3, "id").unwrap(), &Value::Int(3));
        assert!(t.value(0, "nope").is_err());
    }

    #[test]
    fn spatial_index_finds_neighbours() {
        let mut t = well_table();
        let mut ids = t
            .rows_within_distance("location", &Point::new(5.0, 0.0), 1.5)
            .unwrap();
        ids.sort_unstable();
        assert_eq!(ids, vec![4, 5, 6]);
    }

    #[test]
    fn spatial_index_invalidated_on_insert() {
        let mut t = well_table();
        let _ = t.spatial_index("location").unwrap();
        t.insert(vec![
            Value::Int(100),
            Value::from(Point::new(5.0, 0.1)),
            Value::Double(0.0),
        ])
        .unwrap();
        let ids = t
            .rows_within_distance("location", &Point::new(5.0, 0.0), 0.5)
            .unwrap();
        assert!(ids.contains(&10), "new row must be visible: {ids:?}");
    }

    #[test]
    fn hash_index_invalidated_on_insert_and_remove() {
        let obs = Obs::enabled();
        let mut t = well_table();
        t.attach_obs(obs.clone());
        let builds = || obs.metrics().unwrap().counter_value("store.hash_index_builds_total");
        t.ensure_hash_index(0);
        assert_eq!(t.rows_with_key(0, &JoinKey::Int(5)), &[5]);
        t.ensure_hash_index(0);
        assert_eq!(builds(), Some(1), "a cached index is not rebuilt");

        t.insert(vec![Value::Int(5), Value::from(Point::new(5.0, 0.1)), Value::Double(0.0)])
            .unwrap();
        t.ensure_hash_index(0);
        assert_eq!(builds(), Some(2), "insert drops the index");
        assert_eq!(t.rows_with_key(0, &JoinKey::Int(5)), &[5, 10], "new row must be visible");

        assert_eq!(t.remove_rows(&[5]), 1);
        t.ensure_hash_index(0);
        assert_eq!(builds(), Some(3), "remove_rows drops the index");
        assert_eq!(t.rows_with_key(0, &JoinKey::Int(5)), &[9], "row ids follow the compaction");
        assert!(t.rows_with_key(0, &JoinKey::Int(77)).is_empty());
    }

    #[test]
    fn null_geometries_are_skipped_by_index() {
        let mut t = well_table();
        t.insert(vec![Value::Int(11), Value::Null, Value::Double(0.0)])
            .unwrap();
        let idx = t.spatial_index("location").unwrap();
        assert_eq!(idx.len(), 10); // null row not indexed
    }

    #[test]
    fn point_of_uses_first_spatial_column() {
        let t = well_table();
        assert_eq!(t.point_of(2), Some(Point::new(2.0, 0.0)));
    }

    #[test]
    fn remove_rows_deletes_and_invalidates_index() {
        let mut t = well_table();
        let _ = t.spatial_index("location").unwrap();
        let hits = t.find_rows(&[
            Value::Int(5),
            Value::from(Point::new(5.0, 0.0)),
            Value::Double(0.5),
        ]);
        assert_eq!(hits, vec![5]);
        assert_eq!(t.remove_rows(&hits), 1);
        assert_eq!(t.len(), 9);
        // Survivor order preserved; index rebuilt without the row.
        assert_eq!(t.value(5, "id").unwrap(), &Value::Int(6));
        let ids = t
            .rows_within_distance("location", &Point::new(5.0, 0.0), 0.5)
            .unwrap();
        assert!(ids.is_empty(), "deleted row must not be found: {ids:?}");
        // Out-of-range and repeated removals are harmless.
        assert_eq!(t.remove_rows(&[99]), 0);
        assert_eq!(t.remove_rows(&[]), 0);
    }

    #[test]
    fn check_row_matches_insert_validation() {
        let t = well_table();
        assert!(t.check_row(&[Value::Int(1)]).is_err());
        assert!(t
            .check_row(&[Value::Int(1), Value::from("oops"), Value::Double(0.0)])
            .is_err());
        assert!(t
            .check_row(&[Value::Int(1), Value::from(Point::ORIGIN), Value::Int(2)])
            .is_ok());
    }

    #[test]
    fn attached_obs_records_store_metrics() {
        let obs = Obs::enabled();
        let mut t = well_table();
        t.attach_obs(obs.clone());
        let ids = t.rows_within_distance("location", &Point::new(5.0, 0.0), 1.5).unwrap();
        let m = obs.metrics().unwrap();
        assert_eq!(m.counter_value("store.spatial_index_builds_total"), Some(1));
        assert_eq!(m.counter_value("store.spatial_index_rows_total"), Some(10));
        assert_eq!(m.counter_value("store.spatial_queries_total"), Some(1));
        assert_eq!(m.counter_value("store.rows_fetched_total"), Some(ids.len() as u64));
        assert!(obs
            .trace_snapshot()
            .spans
            .iter()
            .any(|s| s.name == "store.spatial_index_build"));
        // Cached index: a second query builds no new index.
        let _ = t.rows_within_distance("location", &Point::new(5.0, 0.0), 1.5).unwrap();
        assert_eq!(m.counter_value("store.spatial_index_builds_total"), Some(1));
    }
}
