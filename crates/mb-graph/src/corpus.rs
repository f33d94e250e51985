//! Versioned on-disk trace corpus: record shot/round defect streams once,
//! replay them everywhere.
//!
//! Every accuracy number produced by the in-process Monte-Carlo harness is
//! tied to the run that sampled it — two backends, two worker counts, or
//! two checkouts cannot be compared shot-for-shot unless they resample the
//! exact same stream. A [`TraceCorpus`] decouples sampling from decoding:
//! the circuit-level sampler writes its shots to a compact binary file
//! (round-major defect records plus provenance), and any pipeline —
//! batch, stream, or windowed, on any backend with any worker count —
//! replays the identical shots later (see `mb_decoder::replay`).
//!
//! # File format (version 1, extension `.mbtc`)
//!
//! All integers little-endian; `varint` is LEB128 (7 bits per byte, high
//! bit = continuation).
//!
//! ```text
//! header:
//!   magic      4 bytes  "MBTC"
//!   version    u16      1
//!   flags      u16      bit 0 HAS_TRUTH, bit 1 HAS_WEIGHTS (others invalid)
//!   num_layers u32      rounds per record
//!   graph_fp   u64      fingerprint of the decoding graph (see
//!                       [`graph_fingerprint`])
//!   prov_len   u32      length of the provenance JSON in bytes
//!   provenance prov_len UTF-8 JSON (code / noise / seed metadata)
//! records (repeated):
//!   marker     1 byte   0x01
//!   observable u64      ground-truth logical flips   (iff HAS_TRUTH)
//!   log_weight f64 bits importance-sampling log-LR   (iff HAS_WEIGHTS)
//!   per layer (num_layers times):
//!     count    varint   defects in this layer
//!     defects  varints  first absolute, then strictly positive deltas
//! trailer:
//!   marker     1 byte   0x00
//!   count      varint   number of records
//!   checksum   u64      FNV-1a 64 over every preceding byte of the file
//! ```
//!
//! The checksum catches bit corruption and truncation
//! ([`CorpusError::ChecksumMismatch`]); the decoder verifies it right after
//! the magic, version and flags, before the provenance or any record is
//! parsed, so a damaged file never reaches the parsers. The explicit
//! record/end markers and the trailer count then catch a well-summed file
//! whose structure is wrong. The graph fingerprint stops a
//! corpus recorded for one code from being silently replayed on another
//! ([`CorpusError::GraphMismatch`]).
//!
//! # Example
//!
//! ```
//! use mb_graph::circuit::CircuitLevelCode;
//! use mb_graph::corpus::{graph_fingerprint, CorpusHeader, TraceCorpus, TraceRecord};
//! use mb_graph::json::JsonValue;
//! use rand::SeedableRng;
//!
//! let circuit = CircuitLevelCode::rotated(3, 3, 0.02).compile();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let mut corpus = TraceCorpus::new(CorpusHeader {
//!     num_layers: circuit.graph().num_layers(),
//!     graph_fingerprint: graph_fingerprint(circuit.graph()),
//!     has_truth: true,
//!     has_weights: false,
//!     provenance: JsonValue::Null,
//! });
//! for _ in 0..16 {
//!     let shot = circuit.sampler().sample(&mut rng);
//!     corpus.records.push(TraceRecord::from_shot(circuit.graph(), &shot, 0.0));
//! }
//! let bytes = corpus.encode();
//! let back = TraceCorpus::decode(&bytes).unwrap();
//! assert_eq!(back, corpus);
//! assert!(back.validate_for(circuit.graph()).is_ok());
//! ```

use crate::graph::DecodingGraph;
use crate::json::JsonValue;
use crate::syndrome::{ErrorPattern, Shot, SyndromePattern};
use crate::types::{ObservableMask, VertexIndex};
use std::io::Write;
use std::path::Path;

/// Magic bytes opening every corpus file.
pub const CORPUS_MAGIC: [u8; 4] = *b"MBTC";

/// The format version this build reads and writes.
pub const CORPUS_VERSION: u16 = 1;

const FLAG_HAS_TRUTH: u16 = 1 << 0;
const FLAG_HAS_WEIGHTS: u16 = 1 << 1;
const RECORD_MARKER: u8 = 0x01;
const END_MARKER: u8 = 0x00;

/// Typed failure of corpus encoding, decoding, or validation — corrupt
/// input is reported, never panicked on.
#[derive(Debug)]
pub enum CorpusError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`CORPUS_MAGIC`].
    BadMagic,
    /// The file's format version is not [`CORPUS_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The header carries flag bits this build does not know.
    UnknownFlags {
        /// The offending flags word.
        flags: u16,
    },
    /// The file ends mid-structure (no end marker / trailer).
    Truncated {
        /// Byte offset at which input ran out.
        offset: usize,
    },
    /// Structurally invalid content at a specific offset.
    Corrupt {
        /// Byte offset of the invalid content.
        offset: usize,
        /// What was wrong.
        message: String,
    },
    /// The trailer checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the file.
        computed: u64,
    },
    /// The corpus was recorded for a different decoding graph.
    GraphMismatch {
        /// Fingerprint stored in the corpus header.
        corpus: u64,
        /// Fingerprint of the graph offered for replay.
        graph: u64,
    },
    /// The provenance header lacks a code parameter needed to rebuild the
    /// graph, or carries one outside the code's valid range.
    BadProvenance {
        /// The offending provenance key.
        key: &'static str,
    },
    /// A record's round count disagrees with the header's `num_layers`.
    RoundCountMismatch {
        /// Rounds promised by the header.
        expected: usize,
        /// Rounds carried by the record.
        found: usize,
    },
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus I/O error: {e}"),
            CorpusError::BadMagic => write!(f, "not a trace corpus (bad magic)"),
            CorpusError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported corpus version {found} (expected {CORPUS_VERSION})"
                )
            }
            CorpusError::UnknownFlags { flags } => {
                write!(f, "corpus header carries unknown flag bits: {flags:#06x}")
            }
            CorpusError::Truncated { offset } => {
                write!(f, "corpus truncated at byte {offset}")
            }
            CorpusError::Corrupt { offset, message } => {
                write!(f, "corpus corrupt at byte {offset}: {message}")
            }
            CorpusError::ChecksumMismatch { stored, computed } => write!(
                f,
                "corpus checksum mismatch: trailer {stored:#018x}, contents {computed:#018x}"
            ),
            CorpusError::GraphMismatch { corpus, graph } => write!(
                f,
                "corpus was recorded for graph {corpus:#018x}, not {graph:#018x}"
            ),
            CorpusError::BadProvenance { key } => write!(
                f,
                "corpus provenance lacks a valid `{key}` (recorded by an older tool?)"
            ),
            CorpusError::RoundCountMismatch { expected, found } => write!(
                f,
                "record has {found} rounds but the corpus header promises {expected}"
            ),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CorpusError {
    fn from(e: std::io::Error) -> Self {
        CorpusError::Io(e)
    }
}

/// FNV-1a 64-bit fold of one byte into a running hash.
#[inline]
fn fnv1a(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = fnv1a(hash, b);
    }
    hash
}

/// Structural fingerprint of a decoding graph: vertex positions and
/// virtual flags, edge endpoints, weights, error probabilities, and
/// observable masks, FNV-1a folded in deterministic order. Two graphs
/// with the same fingerprint decode a corpus identically; a corpus header
/// stores the fingerprint of the graph it was recorded on so replay on a
/// mismatched graph fails typed instead of producing garbage.
pub fn graph_fingerprint(graph: &DecodingGraph) -> u64 {
    let mut hash = FNV_OFFSET;
    let fold_u64 = |hash: &mut u64, value: u64| {
        *hash = fnv1a_bytes(*hash, &value.to_le_bytes());
    };
    fold_u64(&mut hash, graph.vertex_count() as u64);
    fold_u64(&mut hash, graph.num_layers() as u64);
    for v in 0..graph.vertex_count() {
        let info = graph.vertex(v);
        fold_u64(&mut hash, info.position.t as u64);
        fold_u64(&mut hash, info.position.i as u64);
        fold_u64(&mut hash, info.position.j as u64);
        fold_u64(&mut hash, u64::from(graph.is_virtual(v)));
    }
    fold_u64(&mut hash, graph.edge_count() as u64);
    for e in 0..graph.edge_count() {
        let info = graph.edge(e);
        fold_u64(&mut hash, info.vertices.0 as u64);
        fold_u64(&mut hash, info.vertices.1 as u64);
        fold_u64(&mut hash, info.weight as u64);
        fold_u64(&mut hash, info.error_probability.to_bits());
        fold_u64(&mut hash, info.observable_mask);
    }
    hash
}

/// Corpus-wide metadata written once at the head of the file.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusHeader {
    /// Rounds (fusion layers) per record — must equal the decoding graph's
    /// `num_layers`.
    pub num_layers: usize,
    /// [`graph_fingerprint`] of the graph the corpus was recorded on.
    pub graph_fingerprint: u64,
    /// Whether records carry ground-truth observables.
    pub has_truth: bool,
    /// Whether records carry importance-sampling log-likelihood-ratio
    /// weights (see `mb_graph::circuit::MechanismTilt`).
    pub has_weights: bool,
    /// Free-form provenance: code parameters, noise model, sampler seed.
    /// Serialized as compact JSON; [`JsonValue::Null`] when absent.
    pub provenance: JsonValue,
}

/// One recorded shot: its defects bucketed round-major, plus optional
/// ground truth and importance weight.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// `rounds[t]` holds the defect vertices of fusion layer `t`, strictly
    /// increasing.
    pub rounds: Vec<Vec<VertexIndex>>,
    /// Ground-truth logical flips (zero when the corpus has no truth).
    pub observable: ObservableMask,
    /// Log of the importance-sampling likelihood ratio `p(shot)/q(shot)`
    /// under the tilt the corpus was recorded with (zero — weight 1 — for
    /// untilted corpora).
    pub log_weight: f64,
}

impl TraceRecord {
    /// Buckets a sampled shot into its round-major record.
    pub fn from_shot(graph: &DecodingGraph, shot: &Shot, log_weight: f64) -> Self {
        Self {
            rounds: shot.syndrome.split_by_layer(graph),
            observable: shot.observable,
            log_weight,
        }
    }

    /// The full syndrome: union of all rounds.
    pub fn syndrome(&self) -> SyndromePattern {
        SyndromePattern::new(self.rounds.iter().flatten().copied().collect())
    }

    /// The importance-sampling weight `exp(log_weight)`.
    pub fn weight(&self) -> f64 {
        self.log_weight.exp()
    }

    /// Reassembles a decodable [`Shot`]. The physical error pattern is not
    /// stored in a corpus, so `error` comes back empty — everything the
    /// decoders and the logical-error accounting consume (syndrome and
    /// ground-truth observable) round-trips exactly.
    pub fn to_shot(&self) -> Shot {
        Shot {
            error: ErrorPattern::default(),
            syndrome: self.syndrome(),
            observable: self.observable,
        }
    }

    /// Total defect count across rounds.
    pub fn defect_count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}

/// Streaming corpus writer: emits the header up front, one record per
/// [`CorpusWriter::push`], and the trailer on [`CorpusWriter::finish`] —
/// arbitrarily large corpora are recorded without buffering them.
#[derive(Debug)]
pub struct CorpusWriter<W: Write> {
    sink: W,
    header: CorpusHeader,
    hash: u64,
    records: u64,
}

impl<W: Write> CorpusWriter<W> {
    /// Opens a corpus on `sink` and writes the header.
    pub fn new(mut sink: W, header: CorpusHeader) -> Result<Self, CorpusError> {
        let mut hash = FNV_OFFSET;
        let mut out = Vec::new();
        out.extend_from_slice(&CORPUS_MAGIC);
        out.extend_from_slice(&CORPUS_VERSION.to_le_bytes());
        let mut flags = 0u16;
        if header.has_truth {
            flags |= FLAG_HAS_TRUTH;
        }
        if header.has_weights {
            flags |= FLAG_HAS_WEIGHTS;
        }
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(
            &u32::try_from(header.num_layers)
                .expect("layer count fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(&header.graph_fingerprint.to_le_bytes());
        let provenance = header.provenance.to_pretty_string();
        out.extend_from_slice(
            &u32::try_from(provenance.len())
                .expect("provenance fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(provenance.as_bytes());
        hash = fnv1a_bytes(hash, &out);
        sink.write_all(&out)?;
        Ok(Self {
            sink,
            header,
            hash,
            records: 0,
        })
    }

    /// Appends one record.
    ///
    /// Fails with [`CorpusError::RoundCountMismatch`] when the record's
    /// round count disagrees with the header, and with
    /// [`CorpusError::Corrupt`] when a round's defects are not strictly
    /// increasing.
    pub fn push(&mut self, record: &TraceRecord) -> Result<(), CorpusError> {
        if record.rounds.len() != self.header.num_layers {
            return Err(CorpusError::RoundCountMismatch {
                expected: self.header.num_layers,
                found: record.rounds.len(),
            });
        }
        let mut out = vec![RECORD_MARKER];
        if self.header.has_truth {
            out.extend_from_slice(&record.observable.to_le_bytes());
        }
        if self.header.has_weights {
            out.extend_from_slice(&record.log_weight.to_bits().to_le_bytes());
        }
        for round in &record.rounds {
            write_varint(&mut out, round.len() as u64);
            let mut previous: Option<VertexIndex> = None;
            for &defect in round {
                match previous {
                    None => write_varint(&mut out, defect as u64),
                    Some(p) if defect > p => write_varint(&mut out, (defect - p) as u64),
                    Some(p) => {
                        return Err(CorpusError::Corrupt {
                            offset: 0,
                            message: format!(
                                "round defects not strictly increasing ({p} then {defect})"
                            ),
                        })
                    }
                }
                previous = Some(defect);
            }
        }
        self.hash = fnv1a_bytes(self.hash, &out);
        self.sink.write_all(&out)?;
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Writes the trailer (end marker, record count, checksum), flushes,
    /// and returns the sink.
    pub fn finish(mut self) -> Result<W, CorpusError> {
        let mut out = vec![END_MARKER];
        write_varint(&mut out, self.records);
        self.hash = fnv1a_bytes(self.hash, &out);
        out.extend_from_slice(&self.hash.to_le_bytes());
        self.sink.write_all(&out)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Byte-slice reader tracking its offset for error reporting.
struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CorpusError> {
        if self.offset + n > self.bytes.len() {
            return Err(CorpusError::Truncated {
                offset: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CorpusError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CorpusError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CorpusError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CorpusError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn varint(&mut self) -> Result<u64, CorpusError> {
        let start = self.offset;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 63 && byte > 1 {
                return Err(CorpusError::Corrupt {
                    offset: start,
                    message: "varint overflows u64".into(),
                });
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

/// A fully materialized trace corpus: header plus records.
///
/// For corpora too large to hold in memory, write with [`CorpusWriter`]
/// directly; this type is the convenience container the replay paths and
/// the bench bins use.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCorpus {
    /// Corpus-wide metadata.
    pub header: CorpusHeader,
    /// The recorded shots, in recording order.
    pub records: Vec<TraceRecord>,
}

impl TraceCorpus {
    /// An empty corpus under `header`.
    pub fn new(header: CorpusHeader) -> Self {
        Self {
            header,
            records: Vec::new(),
        }
    }

    /// Serializes to the version-1 binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut writer = CorpusWriter::new(Vec::new(), self.header.clone())
            .expect("writing to a Vec cannot fail");
        for record in &self.records {
            writer
                .push(record)
                .expect("in-memory records are well-formed");
        }
        writer.finish().expect("writing to a Vec cannot fail")
    }

    /// Parses the version-1 binary format, verifying checksum, structure
    /// and record count. The checksum is verified first, right after the
    /// magic, version and flags; every allocation is bounded by the bytes
    /// left to parse.
    pub fn decode(bytes: &[u8]) -> Result<Self, CorpusError> {
        let mut r = Reader { bytes, offset: 0 };
        if r.take(4)? != CORPUS_MAGIC {
            return Err(CorpusError::BadMagic);
        }
        let version = r.u16()?;
        if version != CORPUS_VERSION {
            return Err(CorpusError::UnsupportedVersion { found: version });
        }
        let flags = r.u16()?;
        if flags & !(FLAG_HAS_TRUTH | FLAG_HAS_WEIGHTS) != 0 {
            return Err(CorpusError::UnknownFlags { flags });
        }
        // the trailing checksum covers every byte before it
        let body_len = bytes
            .len()
            .checked_sub(8)
            .filter(|&len| len >= r.offset)
            .ok_or(CorpusError::Truncated {
                offset: bytes.len(),
            })?;
        let (body, checksum) = bytes.split_at(body_len);
        let stored = u64::from_le_bytes(checksum.try_into().unwrap());
        let computed = fnv1a_bytes(FNV_OFFSET, body);
        if stored != computed {
            return Err(CorpusError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader {
            bytes: body,
            offset: r.offset,
        };
        let has_truth = flags & FLAG_HAS_TRUTH != 0;
        let has_weights = flags & FLAG_HAS_WEIGHTS != 0;
        let num_layers = r.u32()? as usize;
        let graph_fp = r.u64()?;
        let prov_len = r.u32()? as usize;
        let prov_offset = r.offset;
        let prov_bytes = r.take(prov_len)?;
        let prov_text = std::str::from_utf8(prov_bytes).map_err(|e| CorpusError::Corrupt {
            offset: prov_offset,
            message: format!("provenance is not UTF-8: {e}"),
        })?;
        let provenance = crate::json::parse(prov_text).map_err(|e| CorpusError::Corrupt {
            offset: prov_offset + e.offset,
            message: format!("provenance JSON: {}", e.message),
        })?;

        let mut records = Vec::new();
        let declared = loop {
            let marker_offset = r.offset;
            match r.u8()? {
                RECORD_MARKER => {}
                END_MARKER => break r.varint()?,
                other => {
                    return Err(CorpusError::Corrupt {
                        offset: marker_offset,
                        message: format!("invalid record marker {other:#04x}"),
                    })
                }
            }
            let observable = if has_truth { r.u64()? } else { 0 };
            let log_weight = if has_weights {
                f64::from_bits(r.u64()?)
            } else {
                0.0
            };
            // every round costs at least one byte (its count varint), so a
            // damaged header cannot request more rounds than bytes remain
            let mut rounds = Vec::with_capacity(num_layers.min(body.len() - r.offset));
            for _ in 0..num_layers {
                let count_offset = r.offset;
                let count = r.varint()? as usize;
                // and every defect at least one byte (its delta varint)
                let mut round = Vec::with_capacity(count.min(1 << 16).min(body.len() - r.offset));
                let mut previous: Option<u64> = None;
                for _ in 0..count {
                    let raw = r.varint()?;
                    let absolute = match previous {
                        None => raw,
                        Some(p) if raw > 0 => p.checked_add(raw).ok_or(CorpusError::Corrupt {
                            offset: count_offset,
                            message: "defect index overflows u64".into(),
                        })?,
                        Some(_) => {
                            return Err(CorpusError::Corrupt {
                                offset: count_offset,
                                message: "zero delta: defects not strictly increasing".into(),
                            })
                        }
                    };
                    previous = Some(absolute);
                    round.push(absolute as VertexIndex);
                }
                rounds.push(round);
            }
            records.push(TraceRecord {
                rounds,
                observable,
                log_weight,
            });
        };
        if declared != records.len() as u64 {
            return Err(CorpusError::Corrupt {
                offset: r.offset,
                message: format!(
                    "trailer declares {declared} records, file holds {}",
                    records.len()
                ),
            });
        }
        if r.offset != body.len() {
            return Err(CorpusError::Corrupt {
                offset: r.offset,
                message: format!("{} trailing bytes after trailer", body.len() - r.offset),
            });
        }
        Ok(Self {
            header: CorpusHeader {
                num_layers,
                graph_fingerprint: graph_fp,
                has_truth,
                has_weights,
                provenance,
            },
            records,
        })
    }

    /// Writes the corpus to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CorpusError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Reads and parses a corpus from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CorpusError> {
        Self::decode(&std::fs::read(path)?)
    }

    /// Checks the corpus is replayable on `graph`: fingerprint and layer
    /// count match, and every defect is a real vertex of its recorded
    /// layer.
    pub fn validate_for(&self, graph: &DecodingGraph) -> Result<(), CorpusError> {
        let fp = graph_fingerprint(graph);
        if self.header.graph_fingerprint != fp {
            return Err(CorpusError::GraphMismatch {
                corpus: self.header.graph_fingerprint,
                graph: fp,
            });
        }
        if self.header.num_layers != graph.num_layers() {
            return Err(CorpusError::RoundCountMismatch {
                expected: graph.num_layers(),
                found: self.header.num_layers,
            });
        }
        for (index, record) in self.records.iter().enumerate() {
            for (t, round) in record.rounds.iter().enumerate() {
                for &defect in round {
                    let valid = defect < graph.vertex_count()
                        && !graph.is_virtual(defect)
                        && graph.layer_of(defect) == t;
                    if !valid {
                        return Err(CorpusError::Corrupt {
                            offset: 0,
                            message: format!(
                                "record {index}: vertex {defect} is not a real layer-{t} defect"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitLevelCode;
    use crate::codes::PhenomenologicalCode;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_corpus(shots: usize, seed: u64) -> (TraceCorpus, std::sync::Arc<DecodingGraph>) {
        let circuit = CircuitLevelCode::rotated(3, 3, 0.03).compile();
        let graph = std::sync::Arc::clone(circuit.graph());
        let mut corpus = TraceCorpus::new(CorpusHeader {
            num_layers: graph.num_layers(),
            graph_fingerprint: graph_fingerprint(&graph),
            has_truth: true,
            has_weights: true,
            provenance: crate::json::parse(r#"{"code":"rotated","d":3}"#).unwrap(),
        });
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for i in 0..shots {
            let shot = circuit.sampler().sample(&mut rng);
            corpus
                .records
                .push(TraceRecord::from_shot(&graph, &shot, i as f64 * 0.125));
        }
        (corpus, graph)
    }

    #[test]
    fn round_trips_bit_exactly() {
        let (corpus, graph) = sample_corpus(64, 9);
        let bytes = corpus.encode();
        let back = TraceCorpus::decode(&bytes).unwrap();
        assert_eq!(back, corpus);
        assert!(back.validate_for(&graph).is_ok());
        // re-encoding is byte-identical (deterministic format)
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn record_syndrome_union_matches_shot() {
        let circuit = CircuitLevelCode::rotated(5, 4, 0.04).compile();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..32 {
            let shot = circuit.sampler().sample(&mut rng);
            let record = TraceRecord::from_shot(circuit.graph(), &shot, 0.0);
            assert_eq!(record.syndrome(), shot.syndrome);
            assert_eq!(record.to_shot().observable, shot.observable);
            assert_eq!(record.defect_count(), shot.syndrome.len());
        }
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let (corpus, _) = sample_corpus(8, 1);
        let bytes = corpus.encode();
        for len in 0..bytes.len() {
            let result = TraceCorpus::decode(&bytes[..len]);
            assert!(
                result.is_err(),
                "prefix of {len} bytes must not parse as a corpus"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let (corpus, _) = sample_corpus(8, 2);
        let bytes = corpus.encode();
        // flip one bit in every byte position; every mutation must error
        // (structure or checksum), never panic or silently succeed
        for index in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[index] ^= 0x10;
            assert!(
                TraceCorpus::decode(&mutated).is_err(),
                "bit flip at byte {index} must be detected"
            );
        }
    }

    #[test]
    fn wrong_version_and_flags_are_typed() {
        let (corpus, _) = sample_corpus(2, 3);
        let mut bytes = corpus.encode();
        bytes[4] = 99; // version low byte
        assert!(matches!(
            TraceCorpus::decode(&bytes),
            Err(CorpusError::UnsupportedVersion { found: 99 })
        ));

        let mut bytes = corpus.encode();
        bytes[6] |= 0x80; // unknown flag bit
        assert!(matches!(
            TraceCorpus::decode(&bytes),
            Err(CorpusError::UnknownFlags { .. })
        ));

        let mut bytes = corpus.encode();
        bytes[0] = b'X';
        assert!(matches!(
            TraceCorpus::decode(&bytes),
            Err(CorpusError::BadMagic)
        ));
    }

    #[test]
    fn graph_mismatch_is_typed() {
        let (corpus, _) = sample_corpus(4, 4);
        let other = PhenomenologicalCode::rotated(3, 3, 0.01).decoding_graph();
        assert!(matches!(
            corpus.validate_for(&other),
            Err(CorpusError::GraphMismatch { .. })
        ));
    }

    #[test]
    fn fingerprint_separates_codes_and_noise() {
        let a = CircuitLevelCode::rotated(3, 3, 0.01).decoding_graph();
        let b = CircuitLevelCode::rotated(3, 3, 0.02).decoding_graph();
        let c = CircuitLevelCode::rotated(3, 4, 0.01).decoding_graph();
        let a2 = CircuitLevelCode::rotated(3, 3, 0.01).decoding_graph();
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&a2));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&c));
    }

    #[test]
    fn writer_rejects_round_count_mismatch() {
        let (corpus, _) = sample_corpus(1, 5);
        let mut writer = CorpusWriter::new(Vec::new(), corpus.header.clone()).unwrap();
        let bad = TraceRecord {
            rounds: vec![vec![]],
            observable: 0,
            log_weight: 0.0,
        };
        assert!(matches!(
            writer.push(&bad),
            Err(CorpusError::RoundCountMismatch {
                expected: 3,
                found: 1
            })
        ));
        assert_eq!(writer.records_written(), 0);
    }

    #[test]
    fn writer_rejects_unsorted_defects() {
        let (corpus, _) = sample_corpus(1, 6);
        let mut writer = CorpusWriter::new(Vec::new(), corpus.header.clone()).unwrap();
        let bad = TraceRecord {
            rounds: vec![vec![5, 5], vec![], vec![]],
            observable: 0,
            log_weight: 0.0,
        };
        assert!(matches!(
            writer.push(&bad),
            Err(CorpusError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_corpus_round_trips() {
        let (mut corpus, graph) = sample_corpus(0, 7);
        corpus.header.provenance = JsonValue::Null;
        let back = TraceCorpus::decode(&corpus.encode()).unwrap();
        assert_eq!(back, corpus);
        assert!(back.validate_for(&graph).is_ok());
        assert!(back.records.is_empty());
    }

    #[test]
    fn over_deep_provenance_fails_typed() {
        let (mut corpus, _) = sample_corpus(2, 11);
        let nested = |depth: usize| {
            (0..depth).fold(JsonValue::Null, |inner, _| JsonValue::Array(vec![inner]))
        };
        corpus.header.provenance = nested(crate::json::MAX_DEPTH);
        assert_eq!(TraceCorpus::decode(&corpus.encode()).unwrap(), corpus);
        corpus.header.provenance = nested(crate::json::MAX_DEPTH + 1);
        assert!(matches!(
            TraceCorpus::decode(&corpus.encode()),
            Err(CorpusError::Corrupt { .. })
        ));
    }

    /// Replaces the trailing checksum of `bytes` with the right one.
    fn reseal(bytes: &mut Vec<u8>) {
        let body = bytes.len() - 8;
        bytes.truncate(body);
        let checksum = fnv1a_bytes(FNV_OFFSET, bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn checksum_is_verified_before_the_provenance_is_parsed() {
        let (corpus, _) = sample_corpus(3, 12);
        let mut bytes = corpus.encode();
        // the provenance starts after magic, version, flags, layers,
        // fingerprint and its length: make its first byte invalid UTF-8
        bytes[4 + 2 + 2 + 4 + 8 + 4] = 0xFF;
        assert!(matches!(
            TraceCorpus::decode(&bytes),
            Err(CorpusError::ChecksumMismatch { .. })
        ));
        // with a matching checksum the same damage reaches the parser
        reseal(&mut bytes);
        assert!(matches!(
            TraceCorpus::decode(&bytes),
            Err(CorpusError::Corrupt { .. })
        ));
    }

    #[test]
    fn huge_declared_counts_fail_typed_without_allocating_them() {
        let (mut corpus, _) = sample_corpus(0, 13);
        corpus.header.num_layers = u32::MAX as usize;
        corpus.header.has_truth = false;
        corpus.header.has_weights = false;
        let mut bytes = corpus.encode();
        // swap the empty trailer for one record whose first round declares
        // 2^40 defects, then end the file; the checksum matches
        let trailer = bytes.len() - 8 - 2;
        bytes.truncate(trailer);
        bytes.push(RECORD_MARKER);
        write_varint(&mut bytes, 1 << 40);
        bytes.extend_from_slice(&[0; 8]);
        reseal(&mut bytes);
        assert!(matches!(
            TraceCorpus::decode(&bytes),
            Err(CorpusError::Truncated { .. })
        ));
    }

    #[test]
    fn flagless_corpus_drops_truth_and_weights() {
        let (mut corpus, _) = sample_corpus(4, 8);
        corpus.header.has_truth = false;
        corpus.header.has_weights = false;
        let back = TraceCorpus::decode(&corpus.encode()).unwrap();
        assert!(back.records.iter().all(|r| r.observable == 0));
        assert!(back.records.iter().all(|r| r.log_weight == 0.0));
        assert_eq!(
            back.records
                .iter()
                .map(TraceRecord::defect_count)
                .sum::<usize>(),
            corpus
                .records
                .iter()
                .map(TraceRecord::defect_count)
                .sum::<usize>(),
        );
    }

    #[test]
    fn save_and_load_round_trip() {
        let (corpus, _) = sample_corpus(16, 10);
        let path = std::env::temp_dir().join("mbtc_selftest.mbtc");
        corpus.save(&path).unwrap();
        let back = TraceCorpus::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, corpus);
    }

    #[test]
    fn missing_file_is_io_error() {
        let result = TraceCorpus::load("/nonexistent/definitely/missing.mbtc");
        assert!(matches!(result, Err(CorpusError::Io(_))));
    }
}
