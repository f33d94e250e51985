//! JSON export/import of decoding graphs.
//!
//! The paper's artifact (§A.5) drives the hardware generator from a JSON
//! description of the decoding graph ("resources/graphs/example_d3.json").
//! This module provides the equivalent machine-readable interface so that
//! the accelerator simulator (and any external tooling) can be configured
//! from a file.

use crate::graph::{DecodingGraph, DecodingGraphBuilder};
use crate::json::{self, JsonError, JsonValue};
use crate::types::{Position, Weight};

/// Serializable description of a decoding graph, mirroring the JSON schema
/// of the paper's artifact (vertices with virtual flags and positions, edges
/// with weights).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphDescription {
    /// Number of vertices.
    pub vertex_num: usize,
    /// Indices of virtual (boundary) vertices.
    pub virtual_vertices: Vec<usize>,
    /// Positions of every vertex as `(t, i, j)`.
    pub positions: Vec<(i64, i64, i64)>,
    /// Edges as `(u, v, weight)`.
    pub weighted_edges: Vec<(usize, usize, Weight)>,
    /// Per-edge error probabilities.
    pub error_probabilities: Vec<f64>,
    /// Per-edge logical observable masks.
    pub observable_masks: Vec<u64>,
}

impl GraphDescription {
    /// Extracts a description from a graph.
    pub fn from_graph(graph: &DecodingGraph) -> Self {
        Self {
            vertex_num: graph.vertex_count(),
            virtual_vertices: (0..graph.vertex_count())
                .filter(|&v| graph.is_virtual(v))
                .collect(),
            positions: graph
                .vertices()
                .iter()
                .map(|v| (v.position.t, v.position.i, v.position.j))
                .collect(),
            weighted_edges: graph
                .edges()
                .iter()
                .map(|e| (e.vertices.0, e.vertices.1, e.weight))
                .collect(),
            error_probabilities: graph.edges().iter().map(|e| e.error_probability).collect(),
            observable_masks: graph.edges().iter().map(|e| e.observable_mask).collect(),
        }
    }

    /// Rebuilds a graph from the description.
    ///
    /// # Errors
    ///
    /// Returns an error when the description is internally inconsistent
    /// (mismatching lengths or out-of-range indices) or names an edge the
    /// graph builder refuses: a self-loop, a negative weight, an odd weight
    /// that overflows when rounded up to even, or an edge joining two
    /// virtual vertices.
    pub fn to_graph(&self) -> Result<DecodingGraph, String> {
        if self.positions.len() != self.vertex_num {
            return Err("positions length does not match vertex_num".into());
        }
        if self.error_probabilities.len() != self.weighted_edges.len()
            || self.observable_masks.len() != self.weighted_edges.len()
        {
            return Err("edge attribute lengths do not match".into());
        }
        let mut builder = DecodingGraphBuilder::new();
        let virtual_set: std::collections::HashSet<usize> =
            self.virtual_vertices.iter().copied().collect();
        for (v, &(t, i, j)) in self.positions.iter().enumerate() {
            let pos = Position::new(t, i, j);
            if virtual_set.contains(&v) {
                builder.add_virtual_vertex(pos);
            } else {
                builder.add_vertex(pos);
            }
        }
        for (k, &(u, v, w)) in self.weighted_edges.iter().enumerate() {
            if u >= self.vertex_num || v >= self.vertex_num {
                return Err(format!("edge {k} references missing vertex"));
            }
            if u == v {
                return Err(format!("edge {k} is a self-loop"));
            }
            if w < 0 {
                return Err(format!("edge {k} has negative weight"));
            }
            if w.checked_add(w % 2).is_none() {
                return Err(format!("edge {k} weight {w} cannot be rounded up to even"));
            }
            if virtual_set.contains(&u) && virtual_set.contains(&v) {
                return Err(format!("edge {k} connects two virtual vertices"));
            }
            builder.add_edge(
                u,
                v,
                w,
                self.error_probabilities[k],
                self.observable_masks[k],
            );
        }
        Ok(builder.build())
    }

    /// Serializes to a pretty-printed JSON string.
    ///
    /// # Errors
    ///
    /// Infallible in practice; the `Result` is kept for API stability with
    /// the earlier `serde_json`-backed implementation.
    pub fn to_json(&self) -> Result<String, JsonError> {
        let mut object = std::collections::BTreeMap::new();
        object.insert(
            "vertex_num".to_string(),
            JsonValue::UInt(self.vertex_num as u64),
        );
        object.insert(
            "virtual_vertices".to_string(),
            JsonValue::Array(
                self.virtual_vertices
                    .iter()
                    .map(|&v| JsonValue::UInt(v as u64))
                    .collect(),
            ),
        );
        object.insert(
            "positions".to_string(),
            JsonValue::Array(
                self.positions
                    .iter()
                    .map(|&(t, i, j)| {
                        JsonValue::Array(vec![
                            JsonValue::Int(t),
                            JsonValue::Int(i),
                            JsonValue::Int(j),
                        ])
                    })
                    .collect(),
            ),
        );
        object.insert(
            "weighted_edges".to_string(),
            JsonValue::Array(
                self.weighted_edges
                    .iter()
                    .map(|&(u, v, w)| {
                        JsonValue::Array(vec![
                            JsonValue::UInt(u as u64),
                            JsonValue::UInt(v as u64),
                            JsonValue::Int(w),
                        ])
                    })
                    .collect(),
            ),
        );
        object.insert(
            "error_probabilities".to_string(),
            JsonValue::Array(
                self.error_probabilities
                    .iter()
                    .map(|&p| JsonValue::Number(p))
                    .collect(),
            ),
        );
        object.insert(
            "observable_masks".to_string(),
            JsonValue::Array(
                self.observable_masks
                    .iter()
                    .map(|&m| JsonValue::UInt(m))
                    .collect(),
            ),
        );
        Ok(JsonValue::Object(object).to_pretty_string())
    }

    /// Deserializes from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the input is not valid JSON or does not
    /// match the schema.
    pub fn from_json(input: &str) -> Result<Self, JsonError> {
        let value = json::parse(input)?;
        let schema_error = |message: &str| JsonError {
            offset: 0,
            message: message.to_string(),
        };
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| schema_error(&format!("missing field '{key}'")))
        };
        let usize_array = |key: &str| -> Result<Vec<usize>, JsonError> {
            field(key)?
                .as_array()
                .ok_or_else(|| schema_error(&format!("'{key}' must be an array")))?
                .iter()
                .map(|v| {
                    v.as_u64().map(|x| x as usize).ok_or_else(|| {
                        schema_error(&format!("'{key}' entries must be non-negative integers"))
                    })
                })
                .collect()
        };
        let triple = |v: &JsonValue, key: &str| -> Result<(i64, i64, i64), JsonError> {
            let items = v.as_array().filter(|a| a.len() == 3).ok_or_else(|| {
                schema_error(&format!("'{key}' entries must be 3-element arrays"))
            })?;
            let mut parsed = [0i64; 3];
            for (slot, item) in parsed.iter_mut().zip(items) {
                *slot = item
                    .as_i64()
                    .ok_or_else(|| schema_error(&format!("'{key}' entries must hold integers")))?;
            }
            Ok((parsed[0], parsed[1], parsed[2]))
        };
        let vertex_num = field("vertex_num")?
            .as_u64()
            .ok_or_else(|| schema_error("'vertex_num' must be a non-negative integer"))?
            as usize;
        let positions = field("positions")?
            .as_array()
            .ok_or_else(|| schema_error("'positions' must be an array"))?
            .iter()
            .map(|v| triple(v, "positions"))
            .collect::<Result<Vec<_>, _>>()?;
        let weighted_edges = field("weighted_edges")?
            .as_array()
            .ok_or_else(|| schema_error("'weighted_edges' must be an array"))?
            .iter()
            .map(|v| triple(v, "weighted_edges").map(|(u, v, w)| (u as usize, v as usize, w)))
            .collect::<Result<Vec<_>, _>>()?;
        let error_probabilities = field("error_probabilities")?
            .as_array()
            .ok_or_else(|| schema_error("'error_probabilities' must be an array"))?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| schema_error("'error_probabilities' entries must be numbers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let observable_masks = field("observable_masks")?
            .as_array()
            .ok_or_else(|| schema_error("'observable_masks' must be an array"))?
            .iter()
            .map(|v| {
                v.as_u64().ok_or_else(|| {
                    schema_error("'observable_masks' entries must be non-negative integers")
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            vertex_num,
            virtual_vertices: usize_array("virtual_vertices")?,
            positions,
            weighted_edges,
            error_probabilities,
            observable_masks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{CodeCapacityRotatedCode, PhenomenologicalCode};

    #[test]
    fn roundtrip_through_description() {
        let g = CodeCapacityRotatedCode::new(5, 0.01).decoding_graph();
        let desc = GraphDescription::from_graph(&g);
        let g2 = desc.to_graph().unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_through_json() {
        let g = PhenomenologicalCode::rotated(3, 3, 0.01).decoding_graph();
        let json = GraphDescription::from_graph(&g).to_json().unwrap();
        let desc = GraphDescription::from_json(&json).unwrap();
        let g2 = desc.to_graph().unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn full_width_observable_masks_survive_json() {
        // all 64 mask bits must round-trip exactly; an f64-backed number
        // path would silently drop low bits above 2^53
        use crate::graph::DecodingGraphBuilder;
        use crate::types::Position;
        let mut b = DecodingGraphBuilder::new();
        let v0 = b.add_virtual_vertex(Position::new(0, 0, -1));
        let v1 = b.add_vertex(Position::new(0, 0, 0));
        b.add_edge(v0, v1, 2, 0.01, (1u64 << 63) | (1 << 60) | 1);
        let g = b.build();
        let json = GraphDescription::from_graph(&g).to_json().unwrap();
        let g2 = GraphDescription::from_json(&json)
            .unwrap()
            .to_graph()
            .unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.edge(0).observable_mask, (1u64 << 63) | (1 << 60) | 1);
    }

    #[test]
    fn inconsistent_description_is_rejected() {
        let g = CodeCapacityRotatedCode::new(3, 0.01).decoding_graph();
        let mut desc = GraphDescription::from_graph(&g);
        desc.positions.pop();
        assert!(desc.to_graph().is_err());

        let mut desc2 = GraphDescription::from_graph(&g);
        desc2.weighted_edges.push((0, 999, 2));
        desc2.error_probabilities.push(0.1);
        desc2.observable_masks.push(0);
        assert!(desc2.to_graph().is_err());

        // one-edge descriptions the graph builder would panic on (or, for
        // two virtual endpoints, silently accept in a release build)
        let one_edge = |virtuals: &str, edge: &str| {
            format!(
                "{{\"vertex_num\": 2, \"virtual_vertices\": [{virtuals}], \
                 \"positions\": [[0, 0, 0], [0, 0, 1]], \"weighted_edges\": [{edge}], \
                 \"error_probabilities\": [0.1], \"observable_masks\": [0]}}"
            )
        };
        let max = i64::MAX;
        assert!(GraphDescription::from_json(&one_edge("1", "[0, 1, 2]"))
            .unwrap()
            .to_graph()
            .is_ok());
        for (virtuals, edge) in [
            ("1", "[0, 0, 2]".to_string()),
            ("1", "[0, 1, -2]".to_string()),
            ("0, 1", "[0, 1, 2]".to_string()),
            ("1", format!("[0, 1, {max}]")),
        ] {
            let desc = GraphDescription::from_json(&one_edge(virtuals, &edge)).unwrap();
            assert!(desc.to_graph().is_err(), "{virtuals} / {edge}");
        }
    }
}
