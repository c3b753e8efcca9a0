//! The service wire protocol: typed mining requests and responses.
//!
//! Requests cross the tuple space as a single `Bytes` field, so the codec
//! here is the service's public ABI. It is deliberately hand-rolled in the
//! style of [`plinda::codec`]: a one-byte kind tag, little-endian `u64`
//! integers, and length-prefixed strings — no derive machinery, no external
//! serializer, and a versioned leading magic byte so a future revision can
//! change the layout without silently misreading old frames.
//!
//! Only the mining *parameters* travel in a request; datasets are resident
//! server-side in the [`crate::catalog::DatasetCatalog`] and referenced by
//! name. That split is what makes the service "warm": the expensive part of
//! a classification job (the presorted columnar index) is built once per
//! dataset and shared by every request that names it.

use classify::{GrowConfig, GrowRule};
use episodes::EpisodeParams;
use seqmine::discover::DiscoveryParams;
use treemine::discover::TreeDiscoveryParams;

/// Codec version byte leading every encoded request.
const MAGIC: u8 = 0xF1;

/// Split-selection rule a classification request may ask for.
///
/// `NyuMiner` is deliberately absent: it is parameterised by a borrowed
/// `&dyn Impurity`, which has no canonical wire form. Service callers that
/// need it run the library directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleTag {
    /// CART: optimal binary splits under Gini.
    Cart,
    /// C4.5: gain-ratio splits.
    C45,
}

impl RuleTag {
    /// The borrow-free grow rule this tag denotes.
    pub fn grow_rule(&self) -> GrowRule<'static> {
        match self {
            RuleTag::Cart => GrowRule::Cart,
            RuleTag::C45 => GrowRule::C45,
        }
    }
}

/// A mining job addressed to a named resident dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum MiningRequest {
    /// Active-motif discovery over a resident protein family.
    Seqmine {
        /// Catalog name of the sequence set.
        dataset: String,
        /// Discovery parameters.
        params: DiscoveryParams,
    },
    /// Active tree-motif discovery over resident ordered trees.
    Treemine {
        /// Catalog name of the tree set.
        dataset: String,
        /// Discovery parameters.
        params: TreeDiscoveryParams,
    },
    /// Frequent-episode discovery over a resident event stream.
    Episodes {
        /// Catalog name of the event sequence.
        dataset: String,
        /// Discovery parameters.
        params: EpisodeParams,
    },
    /// Grow a classification tree over a resident table, reusing the
    /// service's shared columnar index.
    Classify {
        /// Catalog name of the table.
        dataset: String,
        /// Split rule.
        rule: RuleTag,
        /// Minimum rows a node must have to split.
        min_split: usize,
        /// Maximum tree depth.
        max_depth: usize,
    },
    /// Frequent-itemset mining over a resident transaction database.
    Apriori {
        /// Catalog name of the basket set.
        dataset: String,
        /// Minimum absolute support.
        min_support: usize,
    },
}

impl MiningRequest {
    /// A short stable label for metrics and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            MiningRequest::Seqmine { .. } => "seqmine",
            MiningRequest::Treemine { .. } => "treemine",
            MiningRequest::Episodes { .. } => "episodes",
            MiningRequest::Classify { .. } => "classify",
            MiningRequest::Apriori { .. } => "apriori",
        }
    }

    /// The catalog name this request addresses.
    pub fn dataset(&self) -> &str {
        match self {
            MiningRequest::Seqmine { dataset, .. }
            | MiningRequest::Treemine { dataset, .. }
            | MiningRequest::Episodes { dataset, .. }
            | MiningRequest::Classify { dataset, .. }
            | MiningRequest::Apriori { dataset, .. } => dataset,
        }
    }

    /// The classification grow knobs, where applicable.
    pub fn grow_config(&self) -> Option<GrowConfig> {
        match self {
            MiningRequest::Classify {
                min_split,
                max_depth,
                ..
            } => Some(GrowConfig {
                min_split: *min_split,
                max_depth: *max_depth,
            }),
            _ => None,
        }
    }

    /// Encode into the service wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![MAGIC];
        match self {
            MiningRequest::Seqmine { dataset, params } => {
                out.push(0);
                put_str(&mut out, dataset);
                put_u64(&mut out, params.min_length as u64);
                put_u64(&mut out, params.max_length as u64);
                put_u64(&mut out, params.min_occurrence as u64);
                put_u64(&mut out, params.max_mutations as u64);
                put_u64(&mut out, params.min_sample_occurrence as u64);
            }
            MiningRequest::Treemine { dataset, params } => {
                out.push(1);
                put_str(&mut out, dataset);
                put_u64(&mut out, params.min_size as u64);
                put_u64(&mut out, params.max_size as u64);
                put_u64(&mut out, params.min_occurrence as u64);
                put_u64(&mut out, params.max_distance as u64);
            }
            MiningRequest::Episodes { dataset, params } => {
                out.push(2);
                put_str(&mut out, dataset);
                put_u64(&mut out, params.window as u64);
                put_u64(&mut out, params.min_windows as u64);
                put_u64(&mut out, params.min_length as u64);
                put_u64(&mut out, params.max_length as u64);
            }
            MiningRequest::Classify {
                dataset,
                rule,
                min_split,
                max_depth,
            } => {
                out.push(3);
                put_str(&mut out, dataset);
                out.push(match rule {
                    RuleTag::Cart => 0,
                    RuleTag::C45 => 1,
                });
                put_u64(&mut out, *min_split as u64);
                put_u64(&mut out, *max_depth as u64);
            }
            MiningRequest::Apriori {
                dataset,
                min_support,
            } => {
                out.push(4);
                put_str(&mut out, dataset);
                put_u64(&mut out, *min_support as u64);
            }
        }
        out
    }

    /// Decode the service wire form.
    pub fn decode(bytes: &[u8]) -> Result<MiningRequest, String> {
        let mut cur = Cursor::new(bytes);
        if cur.u8()? != MAGIC {
            return Err("bad request magic".into());
        }
        let kind = cur.u8()?;
        let req = match kind {
            0 => {
                let dataset = cur.string()?;
                let min_length = cur.usize()?;
                let max_length = cur.usize()?;
                let min_occurrence = cur.usize()?;
                let max_mutations = cur.usize()?;
                let min_sample_occurrence = cur.usize()?;
                MiningRequest::Seqmine {
                    dataset,
                    params: DiscoveryParams::new(
                        min_length,
                        max_length,
                        min_occurrence,
                        max_mutations,
                    )
                    .with_sample_occurrence(min_sample_occurrence),
                }
            }
            1 => {
                let dataset = cur.string()?;
                MiningRequest::Treemine {
                    dataset,
                    params: TreeDiscoveryParams {
                        min_size: cur.usize()?,
                        max_size: cur.usize()?,
                        min_occurrence: cur.usize()?,
                        max_distance: cur.usize()?,
                    },
                }
            }
            2 => {
                let dataset = cur.string()?;
                let window = u32::try_from(cur.u64()?)
                    .map_err(|_| "episode window out of range".to_string())?;
                // `EpisodeMiningProblem::new` asserts a non-empty window;
                // an executor must never reach that assert. The miners
                // assert nothing about any other decoded parameter.
                if window == 0 {
                    return Err("episode window must be at least 1".into());
                }
                MiningRequest::Episodes {
                    dataset,
                    params: EpisodeParams {
                        window,
                        min_windows: cur.usize()?,
                        min_length: cur.usize()?,
                        max_length: cur.usize()?,
                    },
                }
            }
            3 => {
                let dataset = cur.string()?;
                let rule = match cur.u8()? {
                    0 => RuleTag::Cart,
                    1 => RuleTag::C45,
                    other => return Err(format!("unknown rule tag {other}")),
                };
                MiningRequest::Classify {
                    dataset,
                    rule,
                    min_split: cur.usize()?,
                    max_depth: cur.usize()?,
                }
            }
            4 => MiningRequest::Apriori {
                dataset: cur.string()?,
                min_support: cur.usize()?,
            },
            other => return Err(format!("unknown request kind {other}")),
        };
        if !cur.done() {
            return Err("trailing bytes after request".into());
        }
        Ok(req)
    }
}

/// Response disposition, carried as the first integer of the response
/// payload on the `svc.response` keyed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The job ran; the payload is the canonical `Debug` rendering of the
    /// miner's result (bit-identical to a direct library run).
    Ok = 0,
    /// Admission control refused the job; the payload names the reason.
    Shed = 1,
    /// The request was malformed or named an unknown dataset; the payload
    /// is the error message.
    Error = 2,
}

impl Status {
    /// Decode from the wire integer.
    pub fn from_i64(v: i64) -> Result<Status, String> {
        match v {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Shed),
            2 => Ok(Status::Error),
            other => Err(format!("unknown response status {other}")),
        }
    }
}

/// A completed service exchange as seen by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningResponse {
    /// What happened to the request.
    pub status: Status,
    /// Result rendering (Ok) or diagnostic text (Shed / Error).
    pub payload: Vec<u8>,
}

impl MiningResponse {
    /// The payload as text (results are `Debug` renderings, diagnostics
    /// are messages — both are always UTF-8).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.payload).unwrap_or("<non-utf8 payload>")
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("dataset name longer than u32::MAX");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| "truncated request".to_string())?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, String> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "integer out of range".to_string())
    }

    fn string(&mut self) -> Result<String, String> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| "dataset name is not UTF-8".to_string())
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<MiningRequest> {
        vec![
            MiningRequest::Seqmine {
                dataset: "globins".into(),
                params: DiscoveryParams::new(3, 8, 4, 1).with_sample_occurrence(2),
            },
            MiningRequest::Treemine {
                dataset: "rna".into(),
                params: TreeDiscoveryParams {
                    min_size: 2,
                    max_size: 6,
                    min_occurrence: 3,
                    max_distance: 1,
                },
            },
            MiningRequest::Episodes {
                dataset: "alarms".into(),
                params: EpisodeParams {
                    window: 10,
                    min_windows: 4,
                    min_length: 2,
                    max_length: 5,
                },
            },
            MiningRequest::Classify {
                dataset: "diabetes".into(),
                rule: RuleTag::C45,
                min_split: 2,
                max_depth: 64,
            },
            MiningRequest::Apriori {
                dataset: "baskets".into(),
                min_support: 7,
            },
        ]
    }

    #[test]
    fn codec_round_trips_every_kind() {
        for req in all_requests() {
            let bytes = req.encode();
            assert_eq!(
                MiningRequest::decode(&bytes).unwrap(),
                req,
                "{}",
                req.kind()
            );
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MiningRequest::decode(&[]).is_err());
        assert!(MiningRequest::decode(&[0x00, 0x00]).is_err());
        assert!(MiningRequest::decode(&[MAGIC, 99]).is_err());
        // Truncated mid-field.
        let mut bytes = all_requests()[0].encode();
        bytes.truncate(bytes.len() - 3);
        assert!(MiningRequest::decode(&bytes).is_err());
        // Trailing junk.
        let mut bytes = all_requests()[4].encode();
        bytes.push(0);
        assert!(MiningRequest::decode(&bytes).is_err());
    }

    #[test]
    fn kind_and_dataset_accessors() {
        let reqs = all_requests();
        let kinds: Vec<_> = reqs.iter().map(|r| r.kind()).collect();
        assert_eq!(
            kinds,
            ["seqmine", "treemine", "episodes", "classify", "apriori"]
        );
        assert_eq!(reqs[3].dataset(), "diabetes");
        let gc = reqs[3].grow_config().unwrap();
        assert_eq!((gc.min_split, gc.max_depth), (2, 64));
        assert!(reqs[0].grow_config().is_none());
    }
}
