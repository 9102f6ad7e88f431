//! Factor-graph persistence: the grounding phase is expensive for large
//! knowledge bases, so the ground (spatial) factor graph can be saved
//! after grounding and reloaded for repeated inference runs — the same
//! role DeepDive's on-disk factor-graph files play.

use crate::graph::FactorGraph;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from save/load.
#[derive(Debug)]
pub enum PersistError {
    Io(std::io::Error),
    /// Save-side encoding failure.
    Encode(serde_json::Error),
    /// Load-side failure: the file is not a valid serialized graph —
    /// truncated, bit-flipped, or plain garbage. Carries the byte
    /// offset at which decoding gave up, so operators can tell a
    /// truncation (offset ≈ file size) from corruption in the middle.
    Corrupt {
        offset: usize,
        detail: String,
    },
    /// Load-side failure: a well-formed graph that uses a model feature
    /// this version no longer has. Loading it without that feature
    /// would sample a different distribution, so it is refused.
    Unsupported(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "factor graph I/O error: {e}"),
            PersistError::Encode(e) => write!(f, "factor graph encoding error: {e}"),
            PersistError::Corrupt { offset, detail } => write!(
                f,
                "factor graph file is corrupt at byte offset {offset}: {detail}"
            ),
            PersistError::Unsupported(what) => {
                write!(f, "factor graph file uses an unsupported feature: {what}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Encode(e)
    }
}

/// Classifies a load-side decode failure as corruption, preserving the
/// parser's byte offset.
fn corrupt(e: serde_json::Error) -> PersistError {
    match e {
        serde_json::Error::Syntax { msg, offset } => {
            PersistError::Corrupt { offset, detail: msg }
        }
        // Well-formed JSON that is not a factor graph — still a damaged
        // or foreign file from the loader's point of view, with no
        // meaningful offset.
        serde_json::Error::Data(msg) => PersistError::Corrupt { offset: 0, detail: msg },
        serde_json::Error::Io(e) => PersistError::Io(e),
    }
}

impl FactorGraph {
    /// Serializes the graph as JSON to a writer.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), PersistError> {
        serde_json::to_writer(writer, self)?;
        Ok(())
    }

    /// Deserializes a graph from a JSON reader. Decode failures are
    /// reported as [`PersistError::Corrupt`] with byte-offset context —
    /// on the load side a malformed stream means a damaged file, not an
    /// encoding bug.
    ///
    /// Files written before the higher-order region-factor extension
    /// was removed carry `region_factors` and `var_region` keys; they
    /// load when the list is empty (the decoder skips unknown keys) and
    /// are rejected with [`PersistError::Unsupported`] otherwise.
    pub fn load<R: Read>(mut reader: R) -> Result<FactorGraph, PersistError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let text = std::str::from_utf8(&bytes).map_err(|e| PersistError::Corrupt {
            offset: e.valid_up_to(),
            detail: "invalid UTF-8".into(),
        })?;
        let value = serde_json::parse_value(text).map_err(corrupt)?;
        let regions = value.get("region_factors").and_then(|r| r.as_array());
        if regions.is_some_and(|r| !r.is_empty()) {
            return Err(PersistError::Unsupported(
                "higher-order region factors (a removed extension)".into(),
            ));
        }
        serde_json::from_value(value).map_err(corrupt)
    }

    /// Saves to a file path (buffered).
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let file = std::fs::File::create(path)?;
        self.save(BufWriter::new(file))
    }

    /// Loads from a file path (buffered).
    pub fn load_from_path(path: impl AsRef<Path>) -> Result<FactorGraph, PersistError> {
        let file = std::fs::File::open(path)?;
        Self::load(BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{Factor, FactorKind};
    use crate::spatial_factor::SpatialFactor;
    use crate::variable::Variable;
    use sya_geom::Point;

    fn graph() -> FactorGraph {
        let mut g = FactorGraph::new();
        let a = g.add_variable(Variable::binary(0, "a").at(Point::new(1.0, 2.0)));
        let b = g.add_variable(Variable::categorical(0, 5, "b").with_evidence(3));
        g.add_factor(Factor::new(FactorKind::Imply, vec![a, b], 0.7));
        g.add_spatial_factor(SpatialFactor::categorical(a, b, 0.4, 1, 1));
        g
    }

    #[test]
    fn round_trips_through_memory() {
        let g = graph();
        let mut buf = Vec::new();
        g.save(&mut buf).unwrap();
        let g2 = FactorGraph::load(buf.as_slice()).unwrap();
        assert_eq!(g2.num_variables(), 2);
        assert_eq!(g2.num_factors(), 1);
        assert_eq!(g2.num_spatial_factors(), 1);
        assert_eq!(g2.variable(1).evidence, Some(3));
        assert_eq!(g2.variable(0).location, Some(Point::new(1.0, 2.0)));
        // Adjacency survives (it is serialized, not rebuilt).
        assert_eq!(g2.factors_of(0), g.factors_of(0));
        assert_eq!(g2.spatial_factors_of(1), g.spatial_factors_of(1));
    }

    #[test]
    fn round_trips_through_a_file() {
        let g = graph();
        let dir = std::env::temp_dir().join("sya_fg_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.json");
        g.save_to_path(&path).unwrap();
        let g2 = FactorGraph::load_from_path(&path).unwrap();
        assert_eq!(g2.num_variables(), g.num_variables());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(FactorGraph::load(&b"not json"[..]).is_err());
        assert!(FactorGraph::load_from_path("/nonexistent/graph.json").is_err());
    }

    #[test]
    fn garbage_is_reported_as_corrupt_not_encode() {
        match FactorGraph::load(&b"not json"[..]) {
            Err(PersistError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A missing file is an I/O problem, not corruption.
        match FactorGraph::load_from_path("/nonexistent/graph.json") {
            Err(PersistError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_is_corrupt_with_offset_near_the_cut() {
        let g = graph();
        let mut buf = Vec::new();
        g.save(&mut buf).unwrap();
        // Cut the serialized graph mid-stream: every prefix must fail as
        // Corrupt, never panic, and point at (or before) the cut.
        for cut in [1, buf.len() / 3, buf.len() / 2, buf.len() - 1] {
            match FactorGraph::load(&buf[..cut]) {
                Err(PersistError::Corrupt { offset, detail }) => {
                    assert!(
                        offset <= cut,
                        "offset {offset} past the {cut}-byte truncation ({detail})"
                    );
                }
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flipped_file_fails_to_load_cleanly() {
        let g = graph();
        let mut buf = Vec::new();
        g.save(&mut buf).unwrap();
        // Structural characters flipped to garbage: decode errors, no
        // panics. (Flips inside numbers can survive as different valid
        // values — that is what the checkpoint layer's CRC is for.)
        let brace = buf.iter().position(|&b| b == b'{').unwrap();
        let mut broken = buf.clone();
        broken[brace] = 0xFF;
        assert!(matches!(
            FactorGraph::load(broken.as_slice()),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn energies_identical_after_round_trip() {
        let g = graph();
        let mut buf = Vec::new();
        g.save(&mut buf).unwrap();
        let g2 = FactorGraph::load(buf.as_slice()).unwrap();
        let assignment = vec![1u32, 3u32];
        assert_eq!(
            crate::energy::log_prob_unnormalized(&g, &assignment),
            crate::energy::log_prob_unnormalized(&g2, &assignment),
        );
    }
}
